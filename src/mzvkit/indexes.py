"""The formal Q-vector space on indices and its cyclic machinery.

An index is a tuple of positive ints.  ``IndexCombo`` is a finite
rational-linear combination of indices, a ``linear.Combo`` keyed by
index; summing a function over a combo means extending it linearly, so
overlapping rotations are counted with multiplicity.  This module also
builds the cyclic equivalence classes of compositions, the signed
comma/plus contraction sums (star expansion and its inversion), the
cyclic contraction sums ``s_m``, and exact verifiers for the index-level
identities used to reduce the cyclic sum formula of the t-adic values to
its star form; each verifier returns a ``reports.ExactCheck``.

Star expansion and inversion are one linear map, ``star_map``, on
combinations of indices or of (index, t-power) symbols.  A contraction
of a weight-w index clears some of the y bits of its z-word below the
leading y, so a dense weight slice is one ``words.superset_sums``; a
single index, or a sparse slice, takes the doubling ``_contractions``,
which given a depth also builds the sums of ``s_m``.  The identities
expand whole combinations: prop1-3 and ``csf_reduction`` the collected
alternating s_m sum (itself one star inversion), ``lemma112`` the sum of
the rotations, split by depth.

The t-adic expansion and the cyclic-sum combinations are defined here,
once, as formal sums of t-adic symbols, plain ``Combo`` objects keyed by
(index, t-power): ``shift_terms`` builds the binomially shifted, reversed
expansion one t-power at a time from the cached weak compositions,
``shift_symbols`` and ``hat_symbols`` sum it up to an order, and the
combinations splice around ``rotation_pivots``.  ``tseries``, ``posets``
and ``numeval`` evaluate them as word series, poset series and numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from operator import add
from typing import Callable, Iterable, Iterator

from .linear import Combo
from .polys import word_of_index
from .reports import ExactCheck
from .words import superset_sums

Index = tuple[int, ...]


def check_index(k: Iterable[int]) -> Index:
    k = tuple(k)
    if any((not isinstance(p, int)) or p < 1 for p in k):
        raise ValueError(f"not an index: {k}")
    return k


class IndexCombo(Combo):
    """Sparse linear combination of indices with exact coefficients."""

    __slots__ = ()

    @classmethod
    def of(cls, k: Index, c=1) -> "IndexCombo":
        return cls({tuple(k): c})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (sum(k), len(k), k))
        return "+".join(f"{self.terms[k]}*({','.join(map(str, k))})" for k in keys)


def _contractions(k: Index, plus_sign: int, depth: int | None = None) -> list[tuple[Index, int]]:
    """(contraction, plus_sign ** pluses) for every comma/plus contraction
    of k, or with ``depth`` (1 <= depth <= len(k)) for those of that depth.
    Built left to right by doubling: at each further part, every tuple so
    far first takes it as a new part, then adds it to its last entry.  With
    ``depth`` a tuple takes a comma only while it is shorter than depth,
    and a plus only while the parts to come can bring it up to depth."""
    r = len(k)
    # without depth both filters always hold: len(t) <= i < r and len(t) >= 1
    hi = depth or r
    lo = depth or 1
    terms = [(k[:1], 1)]
    for i in range(1, r):
        p = k[i]
        # after a plus, the r - 1 - i parts to come add at most r - 1 - i entries
        short = lo - (r - 1 - i)
        terms = [(t + (p,), c) for t, c in terms if len(t) < hi] + [
            (t[:-1] + (t[-1] + p,), plus_sign * c) for t, c in terms if len(t) >= short
        ]
    return terms


@lru_cache(maxsize=None)
def _indices_by_bits(w: int) -> tuple[Index, ...]:
    """The weight-w indices in the order of the low w - 1 bits of their z-words."""
    return tuple(sorted(indices_up_to(w, w), key=word_of_index))


def star_map(combo: Combo, sign: int = 1) -> Combo:
    """Star expansion (sign 1) or inversion (sign -1) of a combination of
    indices (an ``IndexCombo``) or of (index, tag) symbols, extended
    linearly; a symbol keeps its tag.  A contraction of a weight-w index
    clears some of the y bits below the leading y of its z-word, so each
    bucket of one weight and tag is one ``words.superset_sums`` over the
    low w - 1 bits, read back through the weight-w indices.  A bucket
    takes it when it holds more than one index and its 2^(w-1) entries
    take no more room than the terms of the doubling (16 entries a term),
    else it takes ``_contractions`` of each index."""
    plain = isinstance(combo, IndexCombo)
    buckets: dict[tuple, dict] = {}
    for key, c in combo.terms.items():
        k, tag = (key, None) if plain else key
        buckets.setdefault((sum(k), tag), {})[k] = c
    out = type(combo)()
    for (w, tag), part in buckets.items():
        if len(part) > 1 and sum(1 << len(k) for k in part) << 3 >= 1 << (w - 1):
            table, low = _indices_by_bits(w), (1 << (w - 1)) - 1
            bits = {word_of_index(k) & low: c for k, c in part.items()}
            terms = [(table[u], c) for u, c in superset_sums(bits, w - 1, sign)]
        else:
            terms = [(t, c * s) for k, c in part.items() for t, s in _contractions(k, sign)]
        out.add_terms(terms if plain else (((t, tag), c) for t, c in terms))
    return out


def star_expand(k: Index) -> IndexCombo:
    """Sum of the 2^(r-1) comma/plus contractions of k; () expands to ()."""
    return IndexCombo().add_terms(_contractions(check_index(k), 1))


def star_invert(k: Index) -> IndexCombo:
    """Signed contraction sum whose star expansion collapses back to k."""
    k = check_index(k)
    if not k:
        raise ValueError("star inversion needs a non-empty index")
    return IndexCombo().add_terms(_contractions(k, -1))


def rotations(k: Index) -> Iterator[Index]:
    for i in range(len(k)):
        yield k[i:] + k[:i]


def rotation_pivots(k: Index) -> Iterator[tuple[int, Index]]:
    """(k_i, (k_{i+1}, ..., k_r, k_1, ..., k_{i-1})) for i = 1..r: each entry
    as the pivot, with the rest of k read cyclically after it."""
    for i in range(1, len(k) + 1):
        yield k[i - 1], k[i:] + k[: i - 1]


def last_pivots(members: Iterable[Index]) -> list[tuple[int, Index]]:
    """(m_r, (m_1, ..., m_{r-1})) per index: the members of a cyclic class
    pivot on their last entry."""
    return [(m[-1], m[:-1]) for m in members]


def splices(p: int, rest: Index) -> Iterator[Index]:
    """(j + 1, rest, p - j) for 0 <= j <= p - 2: the pivot p split around
    the rest, one unit heavier."""
    for j in range(p - 1):
        yield (j + 1,) + rest + (p - j,)


@dataclass(frozen=True)
class CyclicClass:
    """Rotation orbit of an index; members lists each distinct rotation once."""

    representative: Index
    members: tuple[Index, ...]

    @classmethod
    def of(cls, k: Index) -> "CyclicClass":
        k = check_index(k)
        rots = sorted(set(rotations(k)))
        return cls(representative=rots[0], members=tuple(rots))

    @property
    def depth(self) -> int:
        return len(self.representative)

    @property
    def weight(self) -> int:
        return sum(self.representative)

    def __str__(self) -> str:
        return f"[({','.join(map(str, self.representative))})]"


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints with sum == total, in
    lexicographic order; none for a negative total."""
    if total < 0 or parts < 1:
        if not total:  # no parts, sum 0
            yield ()
        return
    end = total + parts - 1  # stars and bars: parts - 1 bars among end slots
    for bars in itertools.combinations(range(end), parts - 1):
        out, prev = [], -1
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(end - prev - 1)
        yield tuple(out)


def _weight_sign(k: Index) -> int:
    return -1 if sum(k) & 1 else 1


@lru_cache(maxsize=None)
def _compositions(e: int, r: int) -> tuple[tuple[Index, tuple[tuple[int, int], ...]], ...]:
    """Each weak composition l of e into r parts, in order, as l reversed
    and its (j, l_j) with l_j > 0."""
    return tuple((ls[::-1], tuple((j, l) for j, l in enumerate(ls) if l)) for ls in weak_compositions(e, r))


def shift_terms(k: Index, e: int) -> list[tuple[Index, int]]:
    """The t^e terms of the signed shift expansion of k, as (index,
    coefficient) pairs: (-1)^wt(k) prod_j C(k_j + l_j - 1, l_j) and
    (k_r + l_r, ..., k_1 + l_1) for every shift l >= 0 with |l| = e."""
    sign, rk = _weight_sign(k), k[::-1]
    return [
        (tuple(map(add, rk, rl)), sign * prod(comb(k[j] + l - 1, l) for j, l in nz))
        for rl, nz in _compositions(e, len(k))
    ]


def shift_symbols(k: Index, order: int) -> Combo:
    """The signed shift expansion of k as (index, t-power) symbols: the
    ``shift_terms`` of k at each t^e, e <= order."""
    return Combo().add_terms(((s, e), c) for e in range(order + 1) for s, c in shift_terms(k, e))


def hat_symbols(k: Index, order: int) -> Combo:
    """The two-sided expansion behind the t-adic symmetric values: for each
    split k = (prefix, suffix), the prefix against the shift expansion of
    the suffix, keyed by ((prefix, shifted suffix), t-power)."""
    out = Combo()
    for i in range(len(k) + 1):
        shifts = shift_symbols(k[i:], order).terms.items()
        out.add_terms((((k[:i], s), e), c) for (s, e), c in shifts)
    return out


def compositions(k: int, r: int) -> Iterator[Index]:
    """All compositions of k into exactly r positive parts, in
    lexicographic order: the weak compositions of k - r, each part + 1."""
    ones = (1,) * r
    return (tuple(map(add, c, ones)) for c in weak_compositions(k - r, r))


def cyclic_classes(k: int, r: int) -> list[CyclicClass]:
    """Partition of the weight-k depth-r compositions into rotation classes."""
    if not (1 <= r <= k):
        raise ValueError(f"need 1 <= depth <= weight, got depth={r} weight={k}")
    seen: set[Index] = set()
    out: list[CyclicClass] = []
    for idx in compositions(k, r):
        if idx in seen:
            continue
        cls = CyclicClass.of(idx)
        seen.update(cls.members)
        out.append(cls)
    out.sort(key=lambda c: c.representative)
    return out


def s_m(k: Index, m: int, policy: str = "first") -> IndexCombo:
    """Cyclic contraction sum: fill the r boxes of (k_1 [] ... k_r []) with
    exactly m pluses, cut the necklace at a comma box and read it off.

    Box i sits after k_i (box r wraps to k_1).  The cut position j is the
    first comma box under the default policy, the last under
    ``policy="last"``; sums that are later cyclically symmetrised do not
    depend on this choice.  Every resulting index has depth r - m.

    Every box on one side of the cut is a plus, so those entries merge
    into one and the rest is a contraction of depth r - m.  Cutting after
    k_{j+1} (0-based box j), the first policy reads the contractions of
    (k_{j+2}, ..., k_r, k_1 + ... + k_{j+1}) for j = 0..m, the last policy
    those of (k_{j+2} + ... + k_r + k_1, k_2, ..., k_{j+1}) for
    j = r-1-m..r-1.
    """
    k = check_index(k)
    r = len(k)
    if not k:
        raise ValueError("s_m needs a non-empty index")
    if not 0 <= m <= r - 1:
        raise ValueError(f"need 0 <= m <= depth-1, got m={m}")
    if policy == "first":
        bases = [k[j + 1 :] + (sum(k[: j + 1]),) for j in range(m + 1)]
    elif policy == "last":
        bases = [(sum(k[j + 1 :]) + k[0],) + k[1 : j + 1] for j in range(r - 1 - m, r)]
    else:
        raise ValueError(f"unknown cut policy {policy!r}")
    return IndexCombo().add_terms(
        term for base in bases for term in _contractions(base, 1, r - m)
    )


def _cyclic_split_lhs(k: Index, j: int) -> IndexCombo:
    """Sum over i of (j+1+k_i, rot) + (j+1, k_i, rot) used on the plain side."""
    return IndexCombo().add_terms(
        (idx, 1)
        for p, rest in rotation_pivots(k)
        for idx in ((j + 1 + p,) + rest, (j + 1, p) + rest)
    )


@lru_cache(maxsize=None)
def _signed_s_m(k: Index) -> tuple[tuple[Index, int], ...]:
    """(l, (-1)^m * multiplicity) for every m = 0..r-1 and term l of s_m(k),
    built once per index.  A contraction with p pluses of the j-th base of
    ``s_m`` lies in s_{j+p}, so this is the alternating sum over j of the
    star inversions of the bases (k_{j+2}, ..., k_r, k_1 + ... + k_{j+1})."""
    bases = ((k[j + 1 :] + (sum(k[: j + 1]),), -1 if j & 1 else 1) for j in range(len(k)))
    return tuple(star_map(IndexCombo().add_terms(bases), -1).terms.items())


def _star_over_sm(k: Index, f: Callable[[Index], Iterable], kind: type = IndexCombo) -> Combo:
    """The star expansion of the alternating sum over m and S_m(k) of the
    (key, coefficient) terms f(l), collected first into one ``kind``."""
    return star_map(kind().add_terms((key, c * d) for l, c in _signed_s_m(k) for key, d in f(l)))


def cyclic_symmetrized_s_m(k: Index, m: int, policy: str = "first") -> IndexCombo:
    """Sum of all rotations of every index in s_m(k); this combination is
    independent of the cut policy."""
    return IndexCombo().add_terms(
        (rot, mult) for l, mult in s_m(k, m, policy).terms.items() for rot in rotations(l)
    )


def _full_splices(k: Index) -> Iterator[Index]:
    """The rotation splices of k plus, per pivot, the end term (k_i, rest, 1)."""
    for p, rest in rotation_pivots(k):
        yield from splices(p, rest)
        yield (p,) + rest + (1,)


def verify_index_identity(
    name: str, k: Index, j: int = 0, m: int | None = None, t_order: int = 2
) -> ExactCheck:
    """Exact check of one of the index-space identities.

    ``lemma112``: the cyclic symmetrisation of s_m(k) equals the full
    rotation/contraction double sum (all m, or a single one if given).
    ``prop1`` .. ``prop3``: the three reduction identities between plain
    rotation sums and star-expanded s_m sums; prop1 takes j.
    ``csf_reduction``: the full cyclic-sum combination for the t-adic
    symbols equals the alternating s_m sum of its star form, as formal
    sums of (index, t-power) symbols truncated at t_order.
    """
    k = check_index(k)
    if not k:
        raise ValueError("identities need a non-empty index")
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    if t_order < 0:
        raise ValueError(f"need t_order >= 0, got t_order={t_order}")
    r = len(k)

    if name == "lemma112":
        ms = [m] if m is not None else list(range(r))
        if any(not 0 <= mm <= r - 1 for mm in ms):
            raise ValueError(f"lemma112 needs 0 <= m <= {r - 1}")
        lhs = Combo({mm: cyclic_symmetrized_s_m(k, mm) for mm in ms})
        star = star_map(IndexCombo().add_terms((rot, 1) for rot in rotations(k))).terms.items()
        rhs = Combo({mm: IndexCombo({t: c for t, c in star if len(t) == r - mm}) for mm in ms})
        return ExactCheck(name, k, {"m": m}, lhs, rhs)

    if name == "prop1":
        lhs = _cyclic_split_lhs(k, j)
        rhs = _star_over_sm(k, lambda l: (((j + 1,) + rot, 1) for rot in rotations(l)))
        return ExactCheck(name, k, {"j": j}, lhs, rhs)

    if name == "prop2":
        lhs = _star_over_sm(k, lambda l: ((idx, 1) for idx in _full_splices(l)))
        wt = sum(k)
        sign = -1 if r & 1 else 1
        rhs = IndexCombo().add_terms((idx, 1) for idx in _full_splices(k))
        rhs.add_terms([((wt + 1,), -sign * wt)])
        return ExactCheck(name, k, {}, lhs, rhs)

    if name == "prop3":
        lhs = _star_over_sm(k, lambda l: ((rot + (1,), 1) for rot in rotations(l)))
        rhs = IndexCombo().add_terms(
            (idx, 1) for p, rest in rotation_pivots(k) for idx in (rest + (p, 1), rest + (p + 1,))
        )
        return ExactCheck(name, k, {}, lhs, rhs)

    if name == "csf_reduction":
        lhs = csf_symbols(k, t_order)
        rhs = _star_over_sm(k, lambda l: csf_star_hat_symbols(l, t_order).terms.items(), Combo)
        return ExactCheck(name, k, {"t_order": t_order}, lhs, rhs)

    raise ValueError(f"unknown identity {name!r}")


# -- cyclic-sum combinations ---------------------------------------------
#
# Each combination is a formal sum of t-adic symbols, a Combo keyed by
# (index, t-power).  The exact word checks (tseries), the numeric checks
# (numeval.verify_csf) and the index check ``csf_reduction`` all evaluate
# these same combinations.


def splice_symbols(pivots: Iterable[tuple[int, Index]]) -> Combo:
    """Splice sum over the pivots, at t^0."""
    return Combo().add_terms(((idx, 0), 1) for p, rest in pivots for idx in splices(p, rest))


def tail_symbols(pivots: Iterable[tuple[int, Index]], t_order: int) -> Combo:
    """Minus the t-shifted tail sums: -(j + 1, rest, p) t^j, 0 <= j <= t_order."""
    return Combo().add_terms(
        (((j + 1,) + rest + (p,), j), -1) for p, rest in pivots for j in range(t_order + 1)
    )


def csf_star_symbols(k: Index) -> Combo:
    """Star cyclic-sum combination of k: its rotation splice sum minus
    wt(k) times the single index (wt(k) + 1)."""
    wt = sum(k)
    return splice_symbols(rotation_pivots(k)).add_terms([(((wt + 1,), 0), -wt)])


def csf_star_hat_symbols(k: Index, t_order: int) -> Combo:
    """Hatted star combination: the star combination plus the t-shifted tail."""
    return csf_star_symbols(k) + tail_symbols(rotation_pivots(k), t_order)


def csf_symbols(k: Index, t_order: int) -> Combo:
    """The cyclic-sum combination of plain t-adic symbols: the splice sum
    and the t-shifted tail, minus the second infinite rotation sum and the
    shifted rotation sum."""
    pivots = list(rotation_pivots(k))

    def rotation_sums() -> Iterator[tuple[tuple[Index, int], int]]:
        for p, rest in pivots:
            for j in range(t_order + 1):
                yield ((p + j + 1,) + rest, j), -1
            yield (rest + (p + 1,), 0), -1

    return (splice_symbols(pivots) + tail_symbols(pivots, t_order)).add_terms(rotation_sums())


def indices_up_to(max_weight: int, min_weight: int = 1) -> list[Index]:
    """All indices of the given weights, ordered by weight, depth, lex."""
    out: list[Index] = []
    for w in range(min_weight, max_weight + 1):
        for r in range(1, w + 1):
            out.extend(sorted(compositions(w, r)))
    return out


def all_cyclic_classes(max_weight: int) -> list[CyclicClass]:
    out: list[CyclicClass] = []
    for w in range(1, max_weight + 1):
        for r in range(1, w + 1):
            out.extend(cyclic_classes(w, r))
    return out
