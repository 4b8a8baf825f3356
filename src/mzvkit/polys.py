"""Packed words over the two-letter alphabet {x, y} and the polynomials
over them, sparse (``NcPoly``) and dense per grade (``GradedPoly``).

A word is packed into a single int: letters are read most-significant-bit
first with x = 0 and y = 1, behind a sentinel 1 bit that fixes the length.
So the empty word is ``1``, "x" is ``0b10``, "y" is ``0b11`` and "yxx" is
``0b1100``.  Two properties make this encoding convenient:

* ints are cheap dict keys, which is what a sparse polynomial needs;
* sorting keys numerically sorts words by weight and then
  lexicographically with x < y, the display order used everywhere.

``NcPoly`` is a finite rational-linear combination of words, a
``linear.Combo`` keyed by packed words; its sums, differences and scalar
multiples are the base's, and the shuffle and harmonic products of ``words``
accumulate into it with ``Combo.add_terms``, one call per batch.  The span of
words that are empty or start with y is called H1 here, and H0 is the
subspace of words that also end with x; H0 words are exactly the images of
admissible indices under :func:`word_of_index`.

``GradedPoly`` is a read-only NcPoly held as one dense vector per grade
(weight, y-count) over the ascending words of the grade, int64 while
the absolute values sum below 2^62 and exact Python numbers past that,
each with a cached bound on that sum; its terms are unpacked only when
read.  ``graded_sum`` adds c * p over many polys with one product of the
coefficients and the stacked vectors per grade.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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


def _exact_dtype(bound) -> type:
    """int64 for a bound on a sum of absolute values that is an int below
    2^62, so that no partial sum overflows; else object, which holds exact
    Python numbers."""
    return np.int64 if isinstance(bound, int) and bound < _INT64_SAFE else object


# -- grades ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _grade_order(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The letter bits of the weight-n words grade by grade (y-count 0 to
    n), ascending within a grade, and where each grade starts."""
    bits = np.arange(1 << n)
    order = np.argsort(np.bitwise_count(bits), kind="stable")
    order.flags.writeable = False
    return order, tuple(accumulate((comb(n, r) for r in range(n + 1)), initial=0))


def _grade_bits(n: int, r: int) -> np.ndarray:
    """The letter bits of the C(n, r) words of weight n with r y's,
    ascending: the order of a grade vector."""
    order, starts = _grade_order(n)
    return order[starts[r] : starts[r + 1]]


@lru_cache(maxsize=None)
def _grade_words(n: int, r: int) -> tuple[int, ...]:
    """The C(n, r) packed words of weight n with r y's, ascending."""
    return tuple((_grade_bits(n, r) | 1 << n).tolist())


def _grade_terms(n: int, r: int, vec: np.ndarray) -> dict:
    """The nonzero (packed word, coefficient) terms of a grade-(n, r)
    vector, in ascending word order."""
    return {w: c for w, c in zip(_grade_words(n, r), vec.tolist()) if c}


_TERMS = Combo.terms  # the slot that GradedPoly fills on first read


class GradedPoly(NcPoly):
    """A read-only NcPoly held as one vector per grade (weight n, y-count
    r): the coefficients of ``_grade_words(n, r)`` in order, int64 when
    their absolute values sum below 2^62, else exact Python numbers
    (object).  Every vector has a nonzero entry; ``norms`` may bound the
    sum of the absolute values of a grade's coefficients, which is taken
    when first needed otherwise.  ``terms`` is built on first read, and
    so is a grade's part keyed by letter bits, which small shuffle blocks
    read (``_part``).  Sums and comparisons of graded polys stay on the
    vectors (:func:`graded_sum`); any other operation reads the terms and
    returns a plain NcPoly."""

    __slots__ = ("grades", "_norms", "_parts")

    def __init__(self, grades: dict[tuple[int, int], np.ndarray], norms: dict | None = None):
        for vec in grades.values():
            vec.flags.writeable = False
        self.grades, self._norms, self._parts = grades, {} if norms is None else norms, None

    @property
    def terms(self) -> dict:
        try:
            return _TERMS.__get__(self)
        except AttributeError:
            terms: dict = {}
            for (n, r), vec in self.grades.items():
                terms.update(_grade_terms(n, r, vec))
            _TERMS.__set__(self, terms)
            return terms

    def _like(self, terms: dict) -> NcPoly:
        return NcPoly(terms)

    def add_terms(self, pairs):
        raise TypeError("a GradedPoly is read-only")

    def __bool__(self) -> bool:
        return bool(self.grades)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return isinstance(other, NcPoly) and self.terms == other.terms
        mine, theirs = self.grades, other.grades
        return mine.keys() == theirs.keys() and all(
            a.tobytes() == b.tobytes() if a.dtype == b.dtype == np.int64 else (a == b).all()
            for a, b in ((mine[g], theirs[g]) for g in mine)
        )

    def __add__(self, other) -> NcPoly:
        if isinstance(other, GradedPoly):
            return graded_sum(((self, 1), (other, 1)))
        return super().__add__(other)

    def _part(self, grade: tuple[int, int]) -> dict:
        """The nonzero coefficients of one grade keyed by letter bits, as
        the small shuffle blocks read them, built once."""
        if self._parts is None:
            self._parts = {}
        part = self._parts.get(grade)
        if part is None:
            top = 1 << grade[0]
            terms = _grade_terms(*grade, self.grades[grade])
            part = self._parts[grade] = {w ^ top: c for w, c in terms.items()}
        return part

    def _norm(self, grade: tuple[int, int]):
        """The bound on the absolute coefficients of one grade, or their
        sum, taken once."""
        norm = self._norms.get(grade)
        if norm is None:
            vec = self.grades[grade]
            norm = int(np.abs(vec).sum()) if vec.dtype == np.int64 else sum(map(abs, vec.tolist()))
            self._norms[grade] = norm
        return norm


def as_graded(p: NcPoly) -> GradedPoly:
    """p itself if it is graded, else its terms as one vector per grade."""
    if isinstance(p, GradedPoly):
        return p
    vecs, norms = {}, {}
    for n, part in p.homogeneous_parts().items():
        _grade_vecs(part, n, vecs, norms)
    return GradedPoly(vecs, norms)


def _grade_vecs(part: dict, n: int, vecs: dict, norms: dict) -> None:
    """Add the grade vectors of a weight-n part keyed by letter bits, and
    the sums of their absolute values, to vecs and norms."""
    groups: dict[int, dict] = {}
    for u, c in part.items():
        if c:
            groups.setdefault(u.bit_count(), {})[u] = c
    top = 1 << n
    for r, group in groups.items():
        norm = norms[n, r] = sum(map(abs, group.values()))
        get = group.get
        vecs[n, r] = np.array([get(w ^ top, 0) for w in _grade_words(n, r)], _exact_dtype(norm))


def graded_sum(terms: Iterable[tuple[NcPoly, object]]) -> GradedPoly:
    """The sum of c * p over the (p, c) pairs: :func:`grade_sum` of the
    vectors of the polys (:func:`as_graded`) and their norms."""
    groups: dict[tuple[int, int], list] = {}
    for p, c in terms:
        if c:
            g = as_graded(p)
            for grade, vec in g.grades.items():
                groups.setdefault(grade, []).append((c, vec, g._norm(grade)))
    return grade_sum(groups)


def grade_sum(groups: dict[tuple[int, int], list]) -> GradedPoly:
    """The graded poly whose grade g is the sum of c * vec over the items
    (c, vec, norm) of groups[g], norm bounding the absolute coefficients
    of vec, in int64 when every c is an int and the bound sum |c| * norm
    is below 2^62, else in exact Python numbers: a few items added one by
    one, more as one product of the coefficients with the stacked
    vectors.  A grade that cancels is dropped; the bound is the norm of
    each grade kept."""
    out, norms = {}, {}
    for grade, items in groups.items():
        bound = sum(abs(c) * norm for c, _, norm in items)
        dtype = _exact_dtype(bound)
        if len(items) <= 3:
            vec = None
            for c, v, _ in items:
                v = v.astype(dtype, copy=False)
                v = v if c == 1 else -v if c == -1 else c * v
                vec = v if vec is None else vec + v
            if len(items) == 1:  # a nonzero multiple of one nonzero vector
                out[grade], norms[grade] = vec, bound
                continue
        else:
            cs = np.array([c for c, _, _ in items], dtype)
            vec = cs @ np.array([v for _, v, _ in items]).astype(dtype, copy=False)
        if vec.any():
            out[grade], norms[grade] = vec, bound
    return GradedPoly(out, norms)
