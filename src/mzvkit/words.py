"""Words over the two-letter alphabet {x, y} and the two products on them.

A word is packed into a single int: letters are read most-significant-bit
first with x = 0 and y = 1, behind a sentinel 1 bit that fixes the length.
So the empty word is ``1``, "x" is ``0b10``, "y" is ``0b11`` and "yxx" is
``0b1100``.  Two properties make this encoding convenient:

* ints are cheap dict keys, which is what a sparse polynomial needs;
* sorting keys numerically sorts words by weight and then
  lexicographically with x < y, the display order used everywhere.

``NcPoly`` is a finite rational-linear combination of words, a
``linear.Combo`` keyed by packed words; its sums, differences and scalar
multiples are the base's, and the shuffle and harmonic products below
accumulate into it with ``Combo.add_terms``, one call per batch.  The span of
words that are empty or start with y is called H1 here, and H0 is the
subspace of words that also end with x; H0 words are exactly the images of
admissible indices under :func:`word_of_index`.

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

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial
from typing import Iterable, Iterator

import numpy as np

from .linear import Combo

X = 0
Y = 1
EMPTY_WORD = 1


def word(s: str) -> int:
    """Parse a string over {x, y} into a packed word."""
    w = 1
    for ch in s:
        if ch == "x":
            w = w << 1
        elif ch == "y":
            w = (w << 1) | 1
        else:
            raise ValueError(f"invalid letter {ch!r} in word {s!r}")
    return w


def word_str(w: int) -> str:
    """Inverse of :func:`word`; the empty word prints as ''."""
    n = weight(w)
    return "".join("y" if (w >> (n - 1 - i)) & 1 else "x" for i in range(n))


def weight(w: int) -> int:
    return w.bit_length() - 1


def concat(a: int, b: int) -> int:
    nb = weight(b)
    return (a << nb) | (b ^ (1 << nb))


def letters(w: int) -> Iterator[int]:
    n = weight(w)
    for i in range(n - 1, -1, -1):
        yield (w >> i) & 1


def first_letter(w: int) -> int:
    return (w >> (weight(w) - 1)) & 1


def in_h1(w: int) -> bool:
    return w == EMPTY_WORD or first_letter(w) == Y


def in_h0(w: int) -> bool:
    return w == EMPTY_WORD or (first_letter(w) == Y and (w & 1) == X)


def _check_h1(w: int) -> None:
    if not in_h1(w):
        raise ValueError(f"word {word_str(w)!r} starts with x, not in H1")


def word_of_index(k: tuple[int, ...]) -> int:
    """z_{k_1} ... z_{k_r}; the empty index gives the empty word."""
    w = EMPTY_WORD
    for part in k:
        w = (w << part) | (1 << (part - 1))  # append z_part; a part < 1 is a negative shift
    return w


def index_of_word(w: int) -> tuple[int, ...]:
    """The unique index whose z-word is w.  Raises for words outside H1."""
    _check_h1(w)
    parts: list[int] = []
    for bit in letters(w):
        if bit == Y:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def _exact_quotient(c, d):
    """c / d in exact arithmetic: an int when it is a whole number, else a
    Fraction."""
    q = Fraction(c, d)
    return q.numerator if q.denominator == 1 else q


class NcPoly(Combo):
    """Sparse noncommutative polynomial: a combination of packed words.

    Coefficients are ints or Fractions.  ``p * q`` is the concatenation
    product of the free algebra, ``c * p`` rescales.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({EMPTY_WORD: 1})

    @classmethod
    def from_word(cls, w: int, c=1) -> "NcPoly":
        return cls({w: c})

    @classmethod
    def from_str(cls, s: str, c=1) -> "NcPoly":
        return cls({word(s): c})

    @classmethod
    def from_index(cls, k: tuple[int, ...], c=1) -> "NcPoly":
        return cls({word_of_index(k): c})

    # -- concatenation -----------------------------------------------

    def __mul__(self, other) -> "NcPoly":
        if not isinstance(other, NcPoly):
            return self.__rmul__(other)
        return NcPoly().add_terms(
            (concat(wa, wb), ca * cb)
            for wa, ca in self.terms.items()
            for wb, cb in other.terms.items()
        )

    def __truediv__(self, scalar) -> "NcPoly":
        """Exact division; a whole-number quotient stays an int."""
        return self._like({w: _exact_quotient(c, scalar) for w, c in self.terms.items()})

    # -- inspection --------------------------------------------------

    def is_h1(self) -> bool:
        return all(in_h1(w) for w in self.terms)

    def is_h0(self) -> bool:
        return all(in_h0(w) for w in self.terms)

    def homogeneous_parts(self) -> dict[int, dict]:
        """Split into weight -> {bits-without-sentinel: coeff}."""
        parts: dict[int, dict] = {}
        for w, c in self.terms.items():
            n = weight(w)
            parts.setdefault(n, {})[w ^ (1 << n)] = c
        return parts

    def _label(self, w: int) -> str:
        return word_str(w) or "1"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            s = self._label(w)
            if c == 1:
                term = s
            elif c == -1:
                term = f"-{s}"
            else:
                term = f"{c}*{s}"
            bits.append(term)
        out = bits[0]
        for term in bits[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


_INT64_SAFE = 1 << 62


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


def _scatter(bits: list[int], n: int, positions: np.ndarray) -> np.ndarray:
    """(N, C) output bits of each weight-n word's letters under each
    interleaving: the word's letter-bit matrix times 1 << positions."""
    shifts = np.arange(n - 1, -1, -1)
    letters = (np.array(bits, dtype=np.int64)[:, None] >> shifts) & 1
    return letters @ (np.int64(1) << positions.astype(np.int64)).T


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
        tuple(map(tuple, _scatter(list(range(1 << p)), p, left).tolist())),
        tuple(map(tuple, _scatter(list(range(1 << q)), q, right).tolist())),
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


def _riffle(acc: dict, blocks: list, n: int) -> list[tuple[int, object]]:
    """acc (keyed by output letter bits) plus the shuffles of the blocks
    (ap, p, bp, q) of output weight n by one riffle scatter: the nonzero
    terms.  Left word i and right word j of a block send ca[i] * cb[j] to
    the outputs ia[i] | ib[j] of the C(p+q, p) interleavings.  All blocks'
    products fill, left words in slices, one buffer of the largest (min(p,
    q) + 1) * 2^n elements (or one left word's products), added into a
    dense weight-n vector whenever it is full.  The vector is int64 when
    sum |acc| plus the bounds sum |ca| * sum |cb| * C(n, min(p, q)) of all
    blocks is an int, as it is when every coefficient is, below 2^62; else
    it holds exact Python numbers."""
    bound = sum(map(abs, acc.values())) + sum(
        sum(map(abs, ap.values())) * sum(map(abs, bp.values())) * comb(n, min(p, q))
        for ap, p, bp, q in blocks
    )
    dtype = np.int64 if isinstance(bound, int) and bound < _INT64_SAFE else object
    vec = np.zeros(1 << n, dtype=dtype)
    if acc:
        vec[list(acc)] = np.array(list(acc.values()), dtype=dtype)
    size = max(max((min(p, q) + 1) << n, len(bp) * comb(n, p)) for _, p, bp, q in blocks)
    at, by, fill = np.empty(size, dtype=np.int64), np.empty(size, dtype=dtype), 0
    for ap, p, bp, q in blocks:
        left, right = _interleavings(p, q)
        ia, ib = _scatter(list(ap), p, left), _scatter(list(bp), q, right)
        ca, cb = (np.array(list(side.values()), dtype=dtype) for side in (ap, bp))
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
    np.add.at(vec, at[:fill], by[:fill])
    nz = np.flatnonzero(vec)
    return list(zip((nz | (1 << n)).tolist(), vec[nz].tolist()))


def _weight_sum(blocks: list[tuple[dict, int, dict, int]], n: int) -> list[tuple[int, object]]:
    """The nonzero terms of the shuffles of the blocks (ap, p, bp, q) of
    output weight n: scalar blocks, and small ones (n <= ``_SMALL_WEIGHT``,
    at most ``_SMALL_PRODUCTS`` products na * nb * C(n, p)), into one dict,
    which :func:`_riffle` takes with all the rest."""
    acc: dict = {}
    riffled = []
    for ap, p, bp, q in blocks:
        if not p or not q:  # a weight-0 side is a scalar
            (c,), part = (ap.values(), bp) if not p else (bp.values(), ap)
            for w, x in part.items():
                acc[w] = acc.get(w, 0) + x * c
        elif n <= _SMALL_WEIGHT and len(ap) * len(bp) * comb(n, p) <= _SMALL_PRODUCTS:
            _small_block(acc, ap, p, bp, q)
        else:
            riffled.append((ap, p, bp, q))
    if riffled:
        return _riffle(acc, riffled, n)
    return [(w | (1 << n), c) for w, c in acc.items() if c]


def shuffle_sum(pairs: Iterable[tuple[NcPoly, NcPoly]]) -> NcPoly:
    """The sum of the shuffles a ш b over the given pairs (a, b), bilinear
    over all weight pairs: the blocks of every pair are gathered by output
    weight, and each weight is summed once (:func:`_weight_sum`)."""
    groups: dict[int, list] = {}
    for a, b in pairs:
        pb = b.homogeneous_parts()
        for p, ap in a.homogeneous_parts().items():
            for q, bp in pb.items():
                groups.setdefault(p + q, []).append((ap, p, bp, q))
    out = NcPoly()
    for n, blocks in groups.items():
        out.add_terms(_weight_sum(blocks, n))
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
    bound = sum(map(abs, part.values()))
    dtype = np.int64 if isinstance(bound, int) and bound < _INT64_SAFE else object
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
