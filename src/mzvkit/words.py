"""The shuffle and harmonic products on word polynomials, the shuffle
regularisation and the star-expansion maps.

The packed words and the polynomials over them, sparse (``NcPoly``) and
dense per grade (``GradedPoly``), are defined in ``polys``.

``shuffle_sum`` adds up a ш b over many pairs, block by block, one
weight-p part of a against one weight-q part of b, and sums every output
weight once; ``shuffle`` is its one-pair case.  A weight-0 side is a
scalar.  A small block, p + q <= 8 with at most 192 interleaving products
na * nb * C(p+q, p), is summed in Python ints (:func:`_small_block`) from
spread tables cached per (p, q), which hold each word's letters' output
bits under each interleaving, so a pair's outputs are the ORs of two rows
(18,644 ints below 2^8 in all, about 0.2 MB).  The other blocks of a
weight are one riffle scatter (:func:`_riffle`): their products are
gathered in numpy and added into one dense weight-(p+q) vector, whose
fixed cost of some tens of microseconds pays off only on larger blocks.
A graded side's rows come from tables cached per (grade, partner
weight), uint16, read at the ranks of its nonzero words; a plain side's
rows are scattered from its words.  The sum of plain polys is plain; if
a factor is graded, so is the sum, its grades read from the riffle's
vector and added, with the scalar blocks' multiples of graded sides, by
one ``grade_sum``.

The harmonic (quasi-shuffle) product works on the z-word factorisation
of the packed words themselves: it peels the last z-letter off by its
lowest set bit, memoised per word pair, with no index tuples in between.

``reg_shuffle`` is the shuffle regularisation in closed form: its T^j term
is the T^0 map u·x·y^m -> (-1)^m (u ш y^m)·x (``reg_shuffle_constant``,
one shuffle sum over the trailing counts m) of the j-th trailing-y
derivative, over j!.

``sigma`` (y -> x + y) turns any set of a word's y letters into x: the
sub-masks of its letter bits.  ``s_map``, the word form of star
expansion, is y*sigma(tail); on a z-word that is the sum over the
comma/plus contractions of its index.  ``superset_sums`` is the same sum
over a whole slice of n-bit keys at once, a superset-sum transform of
one dense vector, which ``indexes.star_map`` runs on index combinations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial
from typing import Iterable, Iterator

import numpy as np

from .linear import Combo
from .polys import (
    EMPTY_WORD, GradedPoly, NcPoly, _check_h1, _exact_dtype, _grade_bits, _grade_vecs, grade_sum, weight,
)


# -- the shuffle product -----------------------------------------------------


@lru_cache(maxsize=None)
def _interleavings(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Output bit positions of the left and the right letters in each of
    the C(p+q, p) interleavings, as two uint8 tables of shape (C, p) and
    (C, q), first letter first; the rows follow the subsets of the left
    letters' output positions in ``itertools.combinations`` order."""
    n, c = p + q, comb(p + q, p)
    pos = np.fromiter(chain.from_iterable(combinations(range(n), p)), np.uint8, c * p)
    pos = pos.reshape(c, p)
    rest = np.ones((c, n), dtype=bool)
    rest[np.arange(c)[:, None], pos] = False
    other = np.nonzero(rest)[1].astype(np.uint8).reshape(c, q)
    return n - 1 - pos, n - 1 - other


def _scatter(bits, n: int, positions: np.ndarray) -> np.ndarray:
    """(N, C) output bits of each weight-n word's letters under each
    interleaving: the word's letter-bit matrix times 1 << positions."""
    shifts = np.arange(n - 1, -1, -1)
    letters = (np.asarray(bits, dtype=np.int64)[:, None] >> shifts) & 1
    return letters @ (np.int64(1) << positions.astype(np.int64)).T


@lru_cache(maxsize=None)
def _rows(p: int, q: int, r: int) -> np.ndarray:
    """The output letter bits of the weight-p words with r y's, in grade
    order, as the left side of the C(p + q, p) interleavings of weights p
    and q: uint16, or uint32 past weight 16.  The right side of the same
    interleavings is ``_rows(q, p, r)`` with its columns reversed, as the
    complement of the i-th p-subset of output positions, in lexicographic
    order, is the i-th last q-subset."""
    rows = _scatter(_grade_bits(p, r), p, _interleavings(p, q)[0])
    return rows.astype(np.uint16 if p + q <= 16 else np.uint32)


# The blocks that _small_block sums: past weight 8 the spread tables grow
# (2^p rows of C(p+q, p) entries a side), and past about 200 products the
# riffle has already paid back its fixed numpy cost.
_SMALL_WEIGHT = 8
_SMALL_PRODUCTS = 192


@lru_cache(maxsize=None)
def _spread(p: int, q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The output bits of every weight-p and every weight-q word under the
    C(p+q, p) interleavings: row u of the left table holds the output bits
    of u's letters in each interleaving, in :func:`_interleavings` order,
    and the right table likewise.  Every entry is below 2^(p+q)."""
    left, right = _interleavings(p, q)
    return (
        tuple(map(tuple, _scatter(range(1 << p), p, left).tolist())),
        tuple(map(tuple, _scatter(range(1 << q), q, right).tolist())),
    )


def _small_block(acc: dict, ap: dict, p: int, bp: dict, q: int) -> None:
    """Add the shuffle of one weight-p and one weight-q part (p, q >= 1)
    into acc, keyed by output letter bits, in exact Python arithmetic: a
    pair of words u, v gives the outputs ``map(int.__or__, left[u],
    right[v])`` of the :func:`_spread` tables, each counted with the
    product of the two coefficients."""
    left, right = _spread(p, q)
    get = acc.get
    for u, ca in ap.items():
        lu = left[u]
        for v, cb in bp.items():
            c = ca * cb
            for w in map(int.__or__, lu, right[v]):
                acc[w] = get(w, 0) + c


# A block side is the weight-p part of one factor: keyed by letter bits
# (a plain NcPoly's ``homogeneous_parts``), or the (y-count, vector, poly)
# of each of its grades (a GradedPoly's).  The small path reads a side by
# letter bits; the riffle reads the nonzero words of each grade of a
# graded side, and all words of a side keyed by letter bits, as one entry
# (y-count or None, ranks or letter bits, coefficients, norm).


def _weight_parts(p: NcPoly) -> dict:
    if not isinstance(p, GradedPoly):
        return p.homogeneous_parts()
    parts: dict[int, list] = {}
    for (n, r), vec in p.grades.items():
        parts.setdefault(n, []).append((r, vec, p))
    return parts


def _bits_part(side, p: int) -> dict:
    """A block side keyed by letter bits."""
    if type(side) is dict:
        return side
    parts = [poly._part((p, r)) for r, _, poly in side]
    if len(parts) == 1:
        return parts[0]
    return {u: c for part in parts for u, c in part.items()}


def _entries(side, p: int) -> list[tuple]:
    """A block side as the riffle reads it."""
    if type(side) is dict:
        norm = sum(map(abs, side.values()))
        return [(None, np.array(list(side)), np.array(list(side.values()), _exact_dtype(norm)), norm)]
    out = []
    for r, vec, poly in side:
        (nz,) = vec.nonzero()
        out.append((r, nz, vec[nz], poly._norm((p, r))))
    return out


def _entry_rows(r, words, p: int, q: int, right: bool) -> np.ndarray:
    """The output letter bits of an entry's words, of weight p (q on the
    right), under the interleavings of weights p and q: the cached rows of
    a grade, or the scatter of an entry's letter bits."""
    if r is None:
        return _scatter(words, q if right else p, _interleavings(p, q)[right])
    return _rows(q, p, r)[words, ::-1] if right else _rows(p, q, r)[words]


def _riffle(acc: dict, blocks: list, n: int) -> tuple[np.ndarray, object]:
    """The dense weight-n vector, indexed by letter bits, of acc (keyed by
    output letter bits) plus the shuffles of the blocks (a, p, b, q) of
    output weight n (p, q >= 1), by one riffle scatter, and a bound on the
    sum of the absolute values of its entries.  Each pair of entries of a
    block reads the rows of its words (:func:`_entry_rows`): left word i
    and right word j send ca[i] * cb[j] to the outputs ia[i] | ib[j] of
    the C(n, p) interleavings.  All products fill, left words in slices,
    one buffer of the largest (min(p, q) + 1) * 2^n elements (or one left
    word's products), added into the vector whenever it is full.  The
    vector is int64 when the bound, sum |acc| plus |a| * |b| * C(n, min(p,
    q)) over all entry pairs, is an int below 2^62, else it holds exact
    Python numbers."""
    sides = [(_entries(a, p), p, _entries(b, q), q) for a, p, b, q in blocks]
    bound = sum(map(abs, acc.values())) + sum(
        na * nb * comb(n, min(p, q)) for sa, p, sb, q in sides for *_, na in sa for *_, nb in sb
    )
    dtype = _exact_dtype(bound)
    vec = np.zeros(1 << n, dtype=dtype)
    if acc:
        vec[list(acc)] = np.array(list(acc.values()), dtype=dtype)
    size = max(
        max((min(p, q) + 1) << n, sum(len(w) for _, w, _, _ in sb) * comb(n, p)) for _, p, sb, q in sides
    )
    at, by, fill = np.empty(size, dtype=np.intp), np.empty(size, dtype=dtype), 0
    for sa, p, sb, q in sides:
        for ra, wa, ca, _ in sa:
            ia, ca = _entry_rows(ra, wa, p, q, False), ca.astype(dtype, copy=False)
            for rb, wb, cb, _ in sb:
                ib, cb = _entry_rows(rb, wb, p, q, True), cb.astype(dtype, copy=False)
                s = 0
                while s < len(ia):
                    if size - fill < ib.size:  # the buffer is full
                        np.add.at(vec, at[:fill], by[:fill])
                        fill = 0
                    k = min(len(ia) - s, (size - fill) // ib.size)
                    end = fill + k * ib.size
                    np.bitwise_or(ia[s : s + k, None], ib, out=at[fill:end].reshape(k, *ib.shape))
                    np.multiply(ca[s : s + k, None, None], cb[:, None], out=by[fill:end].reshape(k, *ib.shape))
                    s, fill = s + k, end
    if fill:
        np.add.at(vec, at[:fill], by[:fill])
    return vec, bound


def _weight_sum(blocks: list, n: int, graded: bool = False):
    """The shuffles of the blocks (a, p, b, q) of output weight n: the
    terms of a plain sum, or a GradedPoly when graded.  Small blocks (n <=
    ``_SMALL_WEIGHT``, at most ``_SMALL_PRODUCTS`` products na * nb *
    C(n, p)) go in Python ints into one dict, which :func:`_riffle` takes
    with all the rest.  A weight-0 side is a scalar c: c times the other
    side goes into the dict too if that side is keyed by letter bits, or
    if the weight is small and has no riffle; else c times its grade
    vectors is added to the grades by :func:`grade_sum`."""
    acc: dict = {}
    riffled, scalars = [], []
    for a, p, b, q in blocks:
        if not (p and q):  # a weight-0 side is a scalar
            scalars.append((a, b) if not p else (b, a))
            continue
        if n <= _SMALL_WEIGHT:
            ap = a if type(a) is dict else _bits_part(a, p)
            bp = b if type(b) is dict else _bits_part(b, q)
            if len(ap) * len(bp) * comb(n, p) <= _SMALL_PRODUCTS:
                _small_block(acc, ap, p, bp, q)
                continue
        riffled.append((a, p, b, q))
    groups: dict[tuple[int, int], list] = {}
    for one, other in scalars:
        (c,) = _bits_part(one, 0).values()
        if type(other) is dict or not riffled and n <= _SMALL_WEIGHT:
            for u, x in _bits_part(other, n).items():
                acc[u] = acc.get(u, 0) + x * c
        else:
            for r, vec, poly in other:
                groups.setdefault((n, r), []).append((c, vec, poly._norm((n, r))))
    if riffled:
        vec, bound = _riffle(acc, riffled, n)
        (nz,) = vec.nonzero()
        if not graded:
            return dict(zip((nz | 1 << n).tolist(), vec[nz].tolist()))
        for r in np.flatnonzero(np.bincount(np.bitwise_count(nz))).tolist():  # the grades reached
            groups.setdefault((n, r), []).append((1, vec[_grade_bits(n, r)], bound))
    elif not graded:
        return {u | (1 << n): c for u, c in acc.items() if c}
    elif acc:
        vecs, norms = {}, {}
        _grade_vecs(acc, n, vecs, norms)
        if not groups:
            return GradedPoly(vecs, norms)
        for g, vec in vecs.items():
            groups.setdefault(g, []).append((1, vec, norms[g]))
    return grade_sum(groups)


def shuffle_sum(pairs: Iterable[tuple[NcPoly, NcPoly]]) -> NcPoly:
    """The sum of the shuffles a ш b over the given pairs (a, b), bilinear
    over all weight pairs: the blocks of every pair are gathered by output
    weight, and each weight is summed once (:func:`_weight_sum`).  The sum
    is a GradedPoly if any factor is one, else a plain NcPoly."""
    groups: dict[int, list] = {}
    graded = False
    for a, b in pairs:
        graded = graded or isinstance(a, GradedPoly) or isinstance(b, GradedPoly)
        pb = _weight_parts(b)
        for p, ap in _weight_parts(a).items():
            for q, bp in pb.items():
                groups.setdefault(p + q, []).append((ap, p, bp, q))
    parts = [_weight_sum(blocks, n, graded) for n, blocks in groups.items()]
    if graded:
        if len(parts) == 1:
            return parts[0]
        return GradedPoly(
            {g: vec for part in parts for g, vec in part.grades.items()},
            {g: norm for part in parts for g, norm in part._norms.items()},
        )
    out = NcPoly()
    for part in parts:  # the weights are disjoint
        out.terms.update(part)
    return out


def shuffle(a: NcPoly, b: NcPoly) -> NcPoly:
    """Shuffle product: the one-pair :func:`shuffle_sum`."""
    return shuffle_sum(((a, b),))


def split_trailing(w: int) -> tuple[int, int]:
    """(stripped word, trailing degree) of an H1 word: its trailing y
    letters, which are also its trailing z_1 letters, so one split serves
    both products."""
    t = min((~w & (w + 1)).bit_length() - 1, weight(w))  # trailing 1 bits, not the sentinel
    return w >> t, t


def reg_shuffle_constant(p: NcPoly) -> NcPoly:
    """The T^0 term of :func:`reg_shuffle`: a word u·x·y^m goes to
    (-1)^m (u ш y^m)·x, so an H0 word is itself and y^m (m >= 1) goes to
    0.  The signed u of the words of each trailing count m are summed
    first, and all counts take one :func:`shuffle_sum`."""
    out = NcPoly()
    heads: dict[int, NcPoly] = {}
    for w, c in p.terms.items():
        _check_h1(w)
        stripped, m = split_trailing(w)
        if m == 0:
            out.add_terms([(w, c)])
        elif stripped != EMPTY_WORD:
            heads.setdefault(m, NcPoly()).add_terms([(stripped >> 1, -c if m & 1 else c)])
    pairs = ((u, NcPoly.from_word((1 << (m + 1)) - 1)) for m, u in heads.items())
    return out.add_terms((v << 1, c) for v, c in shuffle_sum(pairs).terms.items())


def reg_shuffle(p: NcPoly) -> list[NcPoly]:
    """The T^0..T^n coefficients of the shuffle regularisation of an H1
    polynomial: the shuffle homomorphism H1 = H0[y] -> H0[T] with y -> T
    (Ihara, Kaneko and Zagier, Compositio 142 (2006)).  Deleting one
    trailing y of each word (words ending in x go to 0) is a derivation
    that kills H0 and sends y to 1, hence d/dT: the T^j coefficient is
    ``reg_shuffle_constant`` of the j-th derivative over j!."""
    out: list[NcPoly] = []
    while p or not out:
        out.append(reg_shuffle_constant(p) / factorial(len(out)))
        p = NcPoly({w >> 1: c for w, c in p.terms.items() if w & 1 and w != EMPTY_WORD})
    return out


@lru_cache(maxsize=None)
def _quasi_shuffle(u: int, v: int) -> tuple[tuple[int, int], ...]:
    """Quasi-shuffle of two packed H1 words, as ((word, multiplicity), ...).

    The last z-letter of a nonempty H1 word w is z_a with
    a = (w & -w).bit_length(), the rest of the word is w >> a, and
    appending z_a to a word r is (r << a) | (1 << (a - 1)).  The recursion
    peels the last letter of u, then of v, then of both (merged into
    z_(a+b)); on a word outside H1 it would not terminate.
    """
    if u == EMPTY_WORD:
        return ((v, 1),)
    if v == EMPTY_WORD:
        return ((u, 1),)
    a = (u & -u).bit_length()
    b = (v & -v).bit_length()
    ru, rv = u >> a, v >> b
    za, zb, zab = 1 << (a - 1), 1 << (b - 1), 1 << (a + b - 1)
    out = Combo()
    out.add_terms(((r << a) | za, m) for r, m in _quasi_shuffle(ru, v))
    out.add_terms(((r << b) | zb, m) for r, m in _quasi_shuffle(u, rv))
    out.add_terms(((r << (a + b)) | zab, m) for r, m in _quasi_shuffle(ru, rv))
    return tuple(out.terms.items())


def harmonic(a: NcPoly, b: NcPoly) -> NcPoly:
    """Harmonic (quasi-shuffle) product.  Inputs must lie in H1."""
    for w in [*a.terms, *b.terms]:
        _check_h1(w)
    out = NcPoly()
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            c = ca * cb
            out.add_terms((w, c * m) for w, m in _quasi_shuffle(wa, wb))
    return out


def superset_sums(part: dict, n: int, sign: int = 1) -> list[tuple[int, object]]:
    """The nonzero sums over u of sign^popcount(v ^ u) * c over the terms
    (v, c) of part with v a superset of u: the superset-sum transform of
    one dense vector of 2^n entries, or for sign -1 its Mobius inverse, in
    n passes.  Each entry stays a signed sum of distinct coefficients, so
    the vector is int64 when sum |c| is an int below 2^62, else it holds
    exact Python numbers."""
    dtype = _exact_dtype(sum(map(abs, part.values())))
    vec = np.zeros(1 << n, dtype=dtype)
    vec[list(part)] = np.array(list(part.values()), dtype=dtype)
    op = np.add if sign > 0 else np.subtract
    for b in range(n):  # each entry with bit b set into the one without it
        lanes = vec.reshape(-1, 2, 1 << b)
        op(lanes[:, 0], lanes[:, 1], out=lanes[:, 0])
    nz = np.flatnonzero(vec)
    return list(zip(nz.tolist(), vec[nz].tolist()))


def _submasks(v: int) -> Iterator[int]:
    """v and every int made from it by clearing some of its set bits."""
    u = v
    while u:
        yield u
        u = (u - 1) & v
    yield 0


def sigma(p: NcPoly) -> NcPoly:
    """The ring automorphism with sigma(x) = x, sigma(y) = x + y: the sum
    over every way to turn some of a word's y letters into x."""
    out = NcPoly()
    for w, c in p.terms.items():
        top = 1 << weight(w)
        out.add_terms((u | top, c) for u in _submasks(w ^ top))
    return out


def s_map(p: NcPoly) -> NcPoly:
    """Linear map with 1 -> 1 and y*w -> y*sigma(w); defined on H1.  On
    z-words it is the sum over all comma/plus contractions of the index
    (Hoffman's map S), the word-level expansion behind the star values.
    Packed, the sentinel and leading y of a weight-n word are the bits of
    high = 3 << (n - 1), above the tail's letter bits."""
    out = NcPoly()
    for w, c in p.terms.items():
        _check_h1(w)
        if w == EMPTY_WORD:
            out.add_terms([(w, c)])
        else:
            high = 3 << (weight(w) - 1)
            out.add_terms((u | high, c) for u in _submasks(w ^ high))
    return out


def random_word(rng, max_weight: int = 8, h1: bool = False, h0: bool = False) -> int:
    """A uniform-ish random word, optionally constrained to H1 or H0."""
    lo = 2 if h0 else (1 if h1 else 0)
    n = rng.randint(lo, max(lo, max_weight))
    if n == 0:
        return EMPTY_WORD
    w = (1 << n) | rng.getrandbits(n)
    if h1 or h0:
        w |= 1 << (n - 1)  # starts with y
    if h0:
        w &= ~1  # ends with x
    return w


def random_ncpoly(rng, max_weight: int = 8, max_terms: int = 4, h1: bool = False) -> NcPoly:
    """Random small polynomial for law testing (words up to max_weight)."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_word(rng, max_weight, h1=h1)
        terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
    return NcPoly(terms)
