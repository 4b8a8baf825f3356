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

The shuffle product of a weight-p and a weight-q part is a riffle
scatter (see :func:`_shuffle_block`): every pair of nonzero words is sent
through the C(p+q, p) interleavings at once, from a table of output bit
positions cached per (p, q), and the products are added into a dense
weight-(p+q) vector that is read back in ascending word order; a weight
block with a single word on each side reads its counts from a table
memoised per word pair.  The harmonic (quasi-shuffle) product works
on the z-word factorisation of the packed words themselves: it peels the
last z-letter off by its lowest set bit, memoised per word pair, with no
index tuples in between.

``s_map``, the word form of star expansion, is y*sigma(tail) on each
word: the letter-level doubling of ``sigma`` (y -> x + y) on everything
after the leading y, which on a z-word is the sum over the comma/plus
contractions of its index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb
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
        return self.__rmul__(Fraction(1) / scalar)

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


def _shuffle_block(ap: dict, p: int, bp: dict, q: int) -> Iterable[tuple[int, object]]:
    """The nonzero terms of the shuffle of one weight-p and one weight-q
    part, words ascending.

    A weight-0 side is a scalar.  Otherwise every pair of nonzero words
    is riffled through the C(p+q, p) interleavings at once: each side's
    letters are scattered to their output bits, the two sides are ORed
    into an (Na, Nb, C) index array, and the coefficient products are
    added at those indices into a dense weight-(p+q) vector.  The sum is
    in int64 when every coefficient is an int and no output coefficient
    can reach 2^62, else in exact Python arithmetic.  Left words are
    taken in slices, so that no index array holds more than
    (min(p, q) + 1) * 2^(p+q) elements (at least one word a slice).
    """
    if p == 0:
        (c,) = ap.values()
        return [(b | (1 << q), cb * c) for b, cb in sorted(bp.items())]
    if q == 0:
        (c,) = bp.values()
        return [(a | (1 << p), ca * c) for a, ca in sorted(ap.items())]
    exact = all(isinstance(c, int) for c in ap.values()) and all(
        isinstance(c, int) for c in bp.values()
    )
    bound = (
        sum(abs(c) for c in ap.values())
        * sum(abs(c) for c in bp.values())
        * comb(p + q, min(p, q))
    )
    dtype = np.int64 if exact and bound < _INT64_SAFE else object
    left, right = _interleavings(p, q)
    ia = _scatter(list(ap), p, left)
    ib = _scatter(list(bp), q, right)
    ca = np.array(list(ap.values()), dtype=dtype)
    cb = np.array(list(bp.values()), dtype=dtype)
    vec = np.zeros(1 << (p + q), dtype=dtype)
    step = max(1, ((min(p, q) + 1) << (p + q)) // (len(bp) * len(left)))
    for s in range(0, len(ap), step):
        idx = ia[s : s + step, None, :] | ib[None, :, :]
        np.add.at(vec, idx, np.multiply.outer(ca[s : s + step], cb)[:, :, None])
    nz = np.flatnonzero(vec)
    return zip((nz | (1 << (p + q))).tolist(), vec[nz].tolist())


@lru_cache(maxsize=None)
def _word_shuffle(u: int, p: int, v: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(words, counts) of the shuffle of the single weight-p word u and the
    single weight-q word v (both without their sentinel), words ascending,
    built once by the riffle scatter of :func:`_shuffle_block`."""
    words, counts = zip(*_shuffle_block({u: 1}, p, {v: 1}, q))
    return words, counts


def shuffle(a: NcPoly, b: NcPoly) -> NcPoly:
    """Shuffle product, bilinear over all weight pairs.

    A weight block with one word on each side reads its counts from a
    table memoised per word pair; every other block runs the riffle
    scatter.  Both give the words ascending with the same coefficients.
    """
    out = NcPoly()
    pa, pb = a.homogeneous_parts(), b.homogeneous_parts()
    for p, ap in pa.items():
        for q, bp in pb.items():
            if len(ap) == 1 and len(bp) == 1:
                ((u, ca),), ((v, cb),) = ap.items(), bp.items()
                words, counts = _word_shuffle(u, p, v, q)
                c = ca * cb
                out.add_terms(zip(words, [c * m for m in counts]))
            else:
                out.add_terms(_shuffle_block(ap, p, bp, q))
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


def _sigma_word(w: int) -> dict[int, int]:
    """Expand sigma on a single word: x -> x, y -> x + y."""
    acc = [EMPTY_WORD]
    for bit in letters(w):
        if bit == X:
            acc = [(v << 1) for v in acc]
        else:
            acc = [(v << 1) for v in acc] + [((v << 1) | 1) for v in acc]
    return {v: 1 for v in acc}  # distinct y-subsets give distinct words


def sigma(p: NcPoly) -> NcPoly:
    """The ring automorphism with sigma(x) = x, sigma(y) = x + y."""
    return NcPoly().add_terms((v, c) for w, c in p.terms.items() for v in _sigma_word(w))


def s_map(p: NcPoly) -> NcPoly:
    """Linear map with 1 -> 1 and y*w -> y*sigma(w); defined on H1.

    On z-words this is the sum over all comma/plus contractions of the
    index (Hoffman's map S), the word-level expansion behind the star
    values.  Packed, the tail of a weight-n word w is w ^ (1 << n) and
    y*v is v | (1 << n).
    """
    out = NcPoly()
    for w, c in p.terms.items():
        _check_h1(w)
        if w == EMPTY_WORD:
            out.add_terms([(w, c)])
        else:
            top = 1 << weight(w)
            out.add_terms((v | top, c) for v in _sigma_word(w ^ top))
    return out


def y_power(n: int) -> int:
    """The word y^n."""
    return (1 << (n + 1)) - 1


@lru_cache(maxsize=None)
def harmonic_power_z1(n: int) -> "NcPoly":
    """z_1 harmonic-multiplied with itself n times."""
    if n == 0:
        return NcPoly.one()
    return harmonic(harmonic_power_z1(n - 1), NcPoly.from_index((1,)))


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
