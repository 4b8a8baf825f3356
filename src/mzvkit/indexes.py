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

Every contraction sum on indices comes from one pruned doubling,
``_contractions``: it builds the contractions of an index left to right,
one tuple operation per term, in the order of their plus masks, and
given a depth it builds only the contractions of that depth.  Star
expansion and inversion read all of them; ``s_m`` reads those of one
depth; the right side of ``lemma112`` sorts the full doubling of each
rotation by depth, one side per m.  The word side has its own
doubling, the letter-level ``words.sigma`` (y -> x + y): ``words.s_map``
is y*sigma(tail), which on a z-word gives the contractions of its index
in reverse plus-mask order.  Star expansion is linear, so the identities that star-expand
an alternating s_m sum first collect its indices (or its (index,
t-power) symbols) with their signed multiplicities, and then expand each
distinct one that survives once.

The t-adic expansion and the cyclic-sum combinations are defined here,
once, as formal sums of t-adic symbols, plain ``Combo`` objects keyed by
(index, t-power): ``shift_symbols`` and ``hat_symbols`` sum over
``binomial_shifts`` (the binomially shifted, reversed expansion), and the
combinations splice around ``rotation_pivots``.  ``tseries``, ``posets``
and ``numeval`` evaluate them as word series, poset series and numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Iterable, Iterator

from .linear import Combo
from .reports import ExactCheck

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

    def map_linear(self, f: Callable[[Index], "IndexCombo"]) -> "IndexCombo":
        """Linear extension: sum of c * f(k) over the combo's terms."""
        return IndexCombo().add_terms(
            (kk, c * d) for k, c in self.terms.items() for kk, d in f(k).terms.items()
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (sum(k), len(k), k))
        return "+".join(f"{self.terms[k]}*({','.join(map(str, k))})" for k in keys)


def _contractions(k: Index, plus_sign: int, depth: int | None = None) -> list[tuple[Index, int]]:
    """(contraction, plus_sign ** pluses) for every comma/plus contraction
    of a non-empty k; with ``depth`` (1 <= depth <= len(k)), only for the
    contractions of that depth.

    Built left to right by doubling: at each further part, every tuple so
    far first takes it as a new part, then adds it to its last entry.  The
    terms come in plus-mask order (bit i - 1 puts a plus before k_{i+1}),
    one tuple operation each.  With ``depth`` the doubling is pruned: a
    tuple takes a comma only while it is shorter than depth, and a plus
    only while the parts still to come can bring it up to depth."""
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


def star_expand(k: Index) -> IndexCombo:
    """Sum of the 2^(r-1) comma/plus contractions of k; () expands to ()."""
    k = check_index(k)
    return IndexCombo().add_terms(_contractions(k, 1)) if k else IndexCombo.of(())


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


def weak_compositions_upto(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints with sum <= total."""
    if parts == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions_upto(total - first, parts - 1):
            yield (first,) + rest


def binomial_shifts(k: Index, order: int) -> Iterator[tuple[int, int, Index]]:
    """(|l|, coefficient, reversed shifted index) for every shift l >= 0 of k
    with |l| <= order: the terms of the binomially shifted expansion, with
    coefficient prod_j C(k_j + l_j - 1, l_j) and index
    (k_r + l_r, ..., k_1 + l_1)."""
    for ls in weak_compositions_upto(order, len(k)):
        c = prod(comb(kj + lj - 1, lj) for kj, lj in zip(k, ls))
        yield sum(ls), c, tuple(kj + lj for kj, lj in zip(k, ls))[::-1]


def shift_symbols(k: Index, order: int) -> Combo:
    """The signed shift expansion of k as (index, t-power) symbols:
    (-1)^wt(k) * sum over l >= 0 with |l| <= order of
    prod_j C(k_j + l_j - 1, l_j) * (k_r + l_r, ..., k_1 + l_1) t^|l|."""
    sign = -1 if sum(k) & 1 else 1
    return Combo().add_terms(((s, e), sign * c) for e, c, s in binomial_shifts(k, order))


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
    """All compositions of k into exactly r positive parts."""
    if r == 0:
        if k == 0:
            yield ()
        return
    for cut in itertools.combinations(range(1, k), r - 1):
        parts = []
        prev = 0
        for c in cut + (k,):
            parts.append(c - prev)
            prev = c
        yield tuple(parts)


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


def _signed_s_m(k: Index) -> Iterator[tuple[Index, int]]:
    """(l, (-1)^m * multiplicity) for every m = 0..r-1 and term l of s_m(k)."""
    for m in range(len(k)):
        sign = -1 if m & 1 else 1
        for l, mult in s_m(k, m).terms.items():
            yield l, sign * mult


def _star_over_sm(k: Index, f: Callable[[Index], Iterable[Index]]) -> IndexCombo:
    """Alternating sum over m and S_m(k) of the star expansions of f(l):
    the indices f(l) are collected first, and each distinct one that
    survives is star-expanded once."""
    pre = IndexCombo().add_terms((idx, c) for l, c in _signed_s_m(k) for idx in f(l))
    return pre.map_linear(star_expand)


def cyclic_symmetrized_s_m(k: Index, m: int, policy: str = "first") -> IndexCombo:
    """Sum of all rotations of every index in s_m(k); this combination is
    independent of the cut policy."""
    return IndexCombo().add_terms(
        (rot, mult) for l, mult in s_m(k, m, policy).terms.items() for rot in rotations(l)
    )


def _lemma112_rhs(k: Index) -> list[IndexCombo]:
    """Per m, the depth-(r - m) contractions of every rotation of k, read
    off one full doubling per rotation."""
    r = len(k)
    by_m: list[list[tuple[Index, int]]] = [[] for _ in range(r)]
    for rot in rotations(k):
        for t, c in _contractions(rot, 1):
            by_m[r - len(t)].append((t, c))
    return [IndexCombo().add_terms(terms) for terms in by_m]


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
        rhs_by_m = _lemma112_rhs(k)
        lhs = Combo({mm: cyclic_symmetrized_s_m(k, mm) for mm in ms})
        rhs = Combo({mm: rhs_by_m[mm] for mm in ms})
        return ExactCheck(name, k, {"m": m}, lhs, rhs)

    if name == "prop1":
        lhs = _cyclic_split_lhs(k, j)
        rhs = _star_over_sm(k, lambda l: ((j + 1,) + rot for rot in rotations(l)))
        return ExactCheck(name, k, {"j": j}, lhs, rhs)

    if name == "prop2":
        lhs = _star_over_sm(k, _full_splices)
        wt = sum(k)
        sign = -1 if r & 1 else 1
        rhs = IndexCombo().add_terms((idx, 1) for idx in _full_splices(k))
        rhs.add_terms([((wt + 1,), -sign * wt)])
        return ExactCheck(name, k, {}, lhs, rhs)

    if name == "prop3":
        lhs = _star_over_sm(k, lambda l: (rot + (1,) for rot in rotations(l)))
        rhs = IndexCombo().add_terms(
            (idx, 1) for p, rest in rotation_pivots(k) for idx in (rest + (p, 1), rest + (p + 1,))
        )
        return ExactCheck(name, k, {}, lhs, rhs)

    if name == "csf_reduction":
        lhs = csf_symbols(k, t_order)
        pre = Combo().add_terms(
            (sym, c * d)
            for l, c in _signed_s_m(k)
            for sym, d in csf_star_hat_symbols(l, t_order).terms.items()
        )
        rhs = Combo().add_terms(
            ((kk, e), c * n)
            for (idx, e), c in pre.terms.items()
            for kk, n in star_expand(idx).terms.items()
        )
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
