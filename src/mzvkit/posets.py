"""Labeled 2-posets and the linear-extension word map.

A 2-poset is a finite strict partial order whose vertices carry a letter
from {x, y}.  ``w_map`` sends a poset to the sum over its linear
extensions of the word read off along the extension; it is the unique
algebra homomorphism into the shuffle algebra that is the plain word on
chains and splits non-comparable pairs.  The zig-zag posets built by
:func:`x_star` encode the star-value integrals: one y-rooted x-chain per
index entry, with the previous chain's root hung below the next chain's
top.

The order is stored as one bitmask per vertex, ``below[v]``, the set of
vertices strictly below v, and it is kept closed.  Every poset is made
by one closing path: relation pairs are OR-ed into the masks and closed
by Warshall's algorithm on bitmasks (for each vertex u, whatever has u
below it gains ``below[u]``), and a vertex below itself is a cycle.
``disjoint_union`` shifts the second poset's masks and ``with_relation``
sets one bit, both through that path.

``w_map`` runs a DP over subsets: W(S) for a remaining vertex set S (an
up-set of the poset) is assembled from W(S - v) over the minimal
vertices v of S, memoised on the subset bitmask.  Every linear extension
of S reads a word with exactly y(S) y's, y(S) being the number of
y-labelled vertices in S, so W(S) is a vector over only those
C(|S|, y(S)) words, ranked lexicographically, packed into one Python int
with one lane per word: prepending x to a vector keeps every rank,
prepending y shifts it up by the C(|S| - 1, y(S)) lanes of the x-first
words, and sums are int additions.  A lane is the narrowest unsigned
type that holds n!, so 16, 32 or 64 bits.  The result is read out of
the packed int once (numpy's frombuffer) and zipped with a cached
ascending table of the packed words of its grade (weight, y-count).

A zig-zag can also be given to ``w_map`` as ``ZigZag(k)``, its index
alone; ``w_map`` then reads the words of ``x_star(k)``, term for term,
by a DP on the index that builds no order.  Every up-set of a zig-zag is
again a zig-zag of whole chains and root-less chain tops, so a state is
one int with a 6-bit field per chain, the first chain in the highest
field: a whole chain of c vertices is ``(c << 1) | 1``, the top u x's of
a chain whose root has been read are ``u << 1``, and an emptied chain is
0.  Trailing empty fields are shifted out and leading ones vanish, so
equal ints are equal sub-posets whatever index they came from.  The step
is the same as the subset DP's on the same lanes: reading a root
subtracts 3 and prepends y, reading an x subtracts 2.  States of at most
``_SHARED_VERTICES`` = 7 vertices are memoised across calls, one
write-once dict per lane width; the dicts grow with the indices a
process meets, up to the states that all indices of weight <= 20 reach
(317,047 over the three widths, 71.2 MB by ``sys.getsizeof``; every
index of weight <= 13 fills 40,939, 9.1 MB, and a benchmark exact-series
pass 8,603, 1.4 MB).  Larger states are memoised per call.  Both DPs
share the lane choice and the vertex guard (``_extension_vec``).

The zig-zag DP's result is cached per index as a dense read-only int64
vector over the words of its grade (weight, depth), ``_zigzag_vec``;
``w_map(ZigZag(k))`` is that vector as a ``polys.GradedPoly``, whose
terms are unpacked only if read, while the subset DP's words are
unpacked at once.  ``zigzag_sum`` adds c * w_map(ZigZag(k)) over many
(k, c) pairs with one ``polys.grade_sum`` of the same vectors: one
product per grade, int64 while sum |c| * weight! stays below 2^62, else
in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, pairwise
from math import comb, factorial
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .indexes import check_index
from .linear import Combo
from .polys import GradedPoly, NcPoly, _grade_terms, grade_sum

Index = tuple[int, ...]


class TwoPoset:
    """Immutable 2-poset: labels per vertex plus a strict order closure.

    ``below[v]`` is the bitmask of vertices strictly below v, always
    transitively closed.  Relations passed to the constructor may be any
    generating set; the closure is taken and cycles are rejected.
    """

    __slots__ = ("n", "labels", "below")

    def __init__(self, labels: Sequence[str], relations: Iterable[tuple[int, int]] = ()):
        self._close(tuple(labels), [0] * len(labels), relations)

    @classmethod
    def _of(cls, labels: tuple[str, ...], below: Sequence[int], relations=()) -> "TwoPoset":
        """The poset over these masks plus relations, closed as the constructor closes."""
        p = object.__new__(cls)
        p._close(labels, list(below), relations)
        return p

    def _close(self, labels: tuple[str, ...], below: list[int], relations: Iterable):
        if not set(labels) <= {"x", "y"}:
            raise ValueError("labels must be 'x' or 'y'")
        n = len(labels)
        for lo, hi in relations:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ValueError(f"relation {(lo, hi)} names a vertex outside 0..{n - 1}")
            below[hi] |= 1 << lo
        # Warshall: whatever has u below it gains below[u].  A cycle's largest
        # vertex is below itself once every smaller vertex has been passed.
        for u, lower in enumerate(below):
            bit = 1 << u
            if lower & bit:
                raise ValueError("relations contain a cycle")
            if lower:
                for v, m in enumerate(below):
                    if m & bit:
                        below[v] = m | lower
        self.n, self.labels, self.below = n, labels, tuple(below)

    # -- structure ----------------------------------------------------

    def minimal(self) -> list[int]:
        return [v for v in range(self.n) if self.below[v] == 0]

    def maximal(self) -> list[int]:
        above = reduce(or_, self.below, 0)
        return [v for v in range(self.n) if not above >> v & 1]

    def comparable(self, a: int, b: int) -> bool:
        return bool((self.below[a] >> b) & 1 or (self.below[b] >> a) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (u, v), u directly below v, in sorted order: the
        vertices below v that lie below nothing else below v."""
        out = []
        for v, lower in enumerate(self.below):
            direct = lower
            for w, m in enumerate(self.below):
                if lower >> w & 1:
                    direct &= ~m
            out += [(u, v) for u in range(self.n) if direct >> u & 1]
        return sorted(out)

    def with_relation(self, lo: int, hi: int) -> "TwoPoset":
        return TwoPoset._of(self.labels, self.below, [(lo, hi)])

    def describe(self) -> str:
        """Deterministic debug form: labels then cover pairs."""
        lab = "".join(self.labels)
        cov = ",".join(f"{u}<{v}" for u, v in self.covers())
        return f"[{lab}|{cov}]"

    def __repr__(self) -> str:
        return f"TwoPoset{self.describe()}"


def is_admissible(p: TwoPoset) -> bool:
    """True iff every maximal vertex is an x and every minimal one a y."""
    return all(p.labels[v] == "x" for v in p.maximal()) and all(
        p.labels[v] == "y" for v in p.minimal()
    )


def disjoint_union(p: TwoPoset, q: TwoPoset) -> TwoPoset:
    """p and q side by side, the vertices of q numbered after those of p."""
    return TwoPoset._of(p.labels + q.labels, p.below + tuple(m << p.n for m in q.below))


# Every coefficient of w_map counts linear extensions, at most n!, and so
# does every lane of every state of its DP; the lanes are the narrowest
# unsigned type that holds n!: 16 bits up to 8 vertices, 32 up to 12 and
# 64 up to 20, where 20! < 2^64 still fits and no lane carries into the
# next.  The bound also keeps every part of a ZigZag's index at most 20,
# within the 6-bit chain fields of its DP (which hold parts up to 31).
_MAX_WMAP_VERTICES = 20
_LANE_TYPES = (np.uint16, np.uint32, np.uint64)


@lru_cache(maxsize=None)
def _lane(n: int) -> tuple[type, int]:
    """The lane type of an n-vertex DP and its width in bits."""
    lane = next(t for t in _LANE_TYPES if np.iinfo(t).max >= factorial(n))
    return lane, np.iinfo(lane).bits


@lru_cache(maxsize=None)
def _yshifts(width: int) -> tuple[tuple[int, ...], ...]:
    """[m - 1][r]: bit offset of the y-first words of weight m with r y's."""
    return tuple(
        tuple(width * comb(m - 1, r) for r in range(m + 1))
        for m in range(1, _MAX_WMAP_VERTICES + 1)
    )


def _extension_vec(n: int, r: int, dp) -> np.ndarray:
    """The word vector of an n-vertex 2-poset with r y's, over
    ``_grade_words(n, r)``, from its packed DP: ``dp(width, yshift)``
    returns the vector of the whole poset in lanes of ``width`` bits."""
    if n > _MAX_WMAP_VERTICES:
        raise ValueError(f"poset too large for w_map ({n} vertices)")
    if n == 0:
        return np.ones(1, np.uint16)
    lane, width = _lane(n)
    packed = dp(width, _yshifts(width))
    return np.frombuffer(packed.to_bytes(comb(n, r) * width // 8, "little"), lane)


@dataclass(frozen=True)
class ZigZag:
    """The zig-zag 2-poset ``x_star(index)``, held as its index only."""

    index: Index

    def __post_init__(self):
        object.__setattr__(self, "index", check_index(self.index))

    @property
    def n(self) -> int:
        return sum(self.index)


def w_map(p: TwoPoset | ZigZag) -> NcPoly:
    """Sum over linear extensions of the read-off word; a ``ZigZag``
    gives the same words as ``x_star`` of its index."""
    if isinstance(p, ZigZag):
        return _zigzag_poly(p.index)
    below = p.below
    ybit = [1 if l == "y" else 0 for l in p.labels]
    ymask = sum(b << v for v, b in enumerate(ybit))

    def dp(width: int, yshift) -> int:
        memo: dict[int, int] = {0: 1}

        def rec(S: int) -> int:
            ylane = yshift[S.bit_count() - 1][(S & ymask).bit_count()]
            vec = 0
            rest = S
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if below[v] & S:
                    continue  # not minimal in S
                T = S ^ low
                sub = memo.get(T)
                if sub is None:
                    sub = rec(T)
                vec += sub << ylane if ybit[v] else sub
            memo[S] = vec
            return vec

        return rec((1 << p.n) - 1)

    r = ymask.bit_count()
    return NcPoly(_grade_terms(p.n, r, _extension_vec(p.n, r, dp)))


# The zig-zag DP's states of at most this many vertices, per lane width:
# filled as indices reach them and never changed, and finite, as the
# vertex guard bounds the indices (at most 317,047 states).  Larger
# states are memoised per call.
_SHARED_VERTICES = 7
_SHARED: dict[int, dict[int, int]] = {}


@lru_cache(maxsize=None)
def _zigzag_vec(k: Index) -> np.ndarray:
    """The word vector of ``x_star(k)`` over ``_grade_words(wt(k),
    len(k))``, as read-only int64, by a DP on the chain-length fields of
    the module docstring, with no poset built.

    The lowest remaining vertex of a chain is minimal unless it is the
    chain's top (field 2 or 3) and the next-higher chain is whole, its
    root then lying below that top."""
    n = sum(check_index(k))

    def dp(width: int, yshift) -> int:
        shared = _SHARED.setdefault(width, {0: 1})
        local: dict[int, int] = {}

        def rec(s: int, m: int, r: int) -> int:
            ylane = yshift[m - 1][r]
            memo = shared if m - 1 <= _SHARED_VERTICES else local
            vec = 0
            shift = 0
            rest = s
            while rest:
                f = rest & 63
                rest >>= 6
                if f and not (f <= 3 and rest & 1):
                    y = f & 1  # a whole chain reads its root, a y; else its lowest x
                    T = s - ((2 + y) << shift)
                    while T and not T & 63:
                        T >>= 6
                    sub = memo.get(T)
                    if sub is None:
                        sub = rec(T, m - 1, r - y)
                    vec += sub << ylane if y else sub
                shift += 6
            (shared if m <= _SHARED_VERTICES else local)[s] = vec
            return vec

        state = 0
        for part in k:
            state = state << 6 | part << 1 | 1
        return rec(state, n, len(k))

    vec = _extension_vec(n, len(k), dp).astype(np.int64)
    vec.flags.writeable = False
    return vec


def _zigzag_poly(k: Index) -> GradedPoly:
    """``w_map(ZigZag(k))``: the cached vector of k as a graded poly.  Its
    coefficients count linear extensions, so wt(k)! bounds their sum."""
    grade = (sum(k), len(k))
    return GradedPoly({grade: _zigzag_vec(k)}, {grade: factorial(grade[0])})


def zigzag_sum(terms: Iterable[tuple[Index, object]]) -> GradedPoly:
    """The sum of c * w_map(ZigZag(k)) over the (k, c) pairs: one
    ``grade_sum`` of the cached vectors, one product per grade (wt(k),
    len(k)), with wt(k)! bounding each vector's coefficients."""
    groups: dict[tuple[int, int], list] = {}
    for k, c in terms:
        if c:
            n = sum(k)
            groups.setdefault((n, len(k)), []).append((c, _zigzag_vec(k), factorial(n)))
    return grade_sum(groups)


def x_star(k: Index) -> TwoPoset:
    """Zig-zag poset of an index: per entry k_i a chain of one y below
    k_i - 1 x's, with the previous entry's y hung below this chain's top."""
    roots = list(accumulate(k, initial=0))  # entry i's chain is roots[i]..roots[i + 1] - 1
    rels = [r for i in range(len(k)) for r in pairwise(range(roots[i], roots[i + 1]))]
    rels += [(roots[i - 1], roots[i + 1] - 1) for i in range(1, len(k))]
    return TwoPoset("".join("y" + "x" * (part - 1) for part in k), rels)


# -- fixtures of the chain identities ------------------------------------


def _fork(a: int, b: int) -> list[tuple[int, int]]:
    """The covers of two chains rooted at vertex 0: 0 < 1 < ... < a and
    0 < a + 1 < ... < a + b."""
    return [*pairwise(range(a + 1)), *pairwise([0, *range(a + 1, a + b + 1)])]


def double_chain(c: int, d: int) -> TwoPoset:
    """A y root with two incomparable x-chains of lengths c and d above."""
    return TwoPoset("y" + "x" * (c + d), _fork(c, d))


def shift_lhs_chain(k: int, lpp: int, lp: int) -> TwoPoset:
    """Totally ordered chain reading y x^(k+lpp-1) y x^lp from bottom."""
    s = "y" + "x" * (k + lpp - 1) + "y" + "x" * lp
    return TwoPoset(s, pairwise(range(len(s))))


def shift_rhs_poset(k: int, l: int) -> TwoPoset:
    """Bottom y, an x-chain of length k-1 capped by a y, and an
    incomparable x-chain of length l above the same bottom."""
    return TwoPoset("y" + "x" * (k - 1) + "y" + "x" * l, _fork(k, l))


def check_shifting(k: int, order: int) -> bool:
    """Both sides of the chain-shifting series identity through w_map."""
    lhs = Combo().add_terms(
        (lpp + lp, comb(k + lpp - 1, lpp) * w_map(shift_lhs_chain(k, lpp, lp)))
        for lpp in range(order + 1)
        for lp in range(order + 1 - lpp)
    )
    return all(
        lhs.terms.get(l, NcPoly()) == w_map(shift_rhs_poset(k, l)) for l in range(order + 1)
    )


def random_2poset(rng: random.Random, n_min: int = 1, n_max: int = 8, admissible: bool = False) -> TwoPoset:
    """Random 2-poset; with admissible=True, labels are forced so that
    maxima are x and minima are y (resampling when a vertex is isolated)."""
    for _ in range(1000):
        n = rng.randint(n_min, n_max)
        rels = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        p = TwoPoset(["x"] * n, rels)
        mins, maxs = set(p.minimal()), set(p.maximal())
        if admissible and (mins & maxs):
            continue  # an isolated vertex cannot satisfy both constraints
        labels = []
        for v in range(n):
            if admissible and v in maxs:
                labels.append("x")
            elif admissible and v in mins:
                labels.append("y")
            else:
                labels.append("y" if rng.random() < 0.5 else "x")
        return TwoPoset(labels, rels)
    raise RuntimeError("could not sample an admissible poset")
