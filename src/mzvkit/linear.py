"""Finite linear combinations: the one module every container is built on.

Everything mzvkit computes with is a finite linear combination of
something: of words, of indices, of the t-adic symbols (index, t-power)
of the cyclic-sum formulas, and of the powers of t or T in a truncated
series or a polynomial.  ``Combo`` is that free module, written once: a
dict key -> nonzero coefficient with zero-dropping addition, subtraction
and scaling.  The shuffle and harmonic products of ``words`` are two
products on it.

Coefficients are ints, Fractions, ``numeval.NumericValue`` or
combinations themselves (a series of word polynomials); a falsy
coefficient is dropped, so a key whose coefficient cancels is removed.
A NumericValue coefficient is built, never added: it has no ``+``, and
every float sum is one exactly rounded ``numeval._sum`` over the terms
of that coefficient, so the order of the terms is no part of a result.
Each exact sum keeps the existing coefficient as its left operand.
Instances are treated as immutable once built; ``add_terms`` fills a
fresh one.

``Poly`` is a combination over the powers of one variable and ``Series``
a poly truncated at ``order``.  A series whose coefficients are
combinations (``tseries.WordSeries``) adds and compares them with their
own ``+`` and ``==``, so word series of graded polys sum and compare
grade vectors.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Combo:
    """Sparse linear combination: dict key -> nonzero coefficient."""

    __slots__ = ("terms",)
    _meta: tuple[str, ...] = ()  # further attributes: kept by arithmetic, compared by ==
    zero_coeff = 0  # the coefficient of an absent key

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, *params) -> "Combo":
        return cls(*params)

    def _like(self, terms: dict) -> "Combo":
        """A combination of this type and these attributes over ``terms``,
        which are taken as they are."""
        new = object.__new__(type(self))
        for name in self._meta:
            setattr(new, name, getattr(self, name))
        new.terms = terms
        return new

    def add_terms(self, pairs: Iterable[tuple]) -> "Combo":
        """Add each (key, coefficient) pair in place, dropping the keys
        whose coefficient cancels; returns self."""
        terms = self.terms
        get = terms.get
        for key, c in pairs:
            q = get(key)
            if q is not None:
                c = q + c
            if c:
                terms[key] = c
            elif q is not None:
                del terms[key]
        return self

    def _aligned(self, other: "Combo") -> "Combo":
        """A copy of self that the terms of other can be added into."""
        return self._like(dict(self.terms))

    def __add__(self, other: "Combo") -> "Combo":
        return self._aligned(other).add_terms(other.terms.items())

    def __sub__(self, other: "Combo") -> "Combo":
        return self._aligned(other).add_terms((k, -c) for k, c in other.terms.items())

    def __neg__(self) -> "Combo":
        return self._like({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar) -> "Combo":
        if not scalar:
            return self._like({})
        return self._like({k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and all(getattr(self, name) == getattr(other, name) for name in self._meta)
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, key):
        return self.terms.get(key, self.zero_coeff)

    def _label(self, key) -> str:
        return str(key)

    def labelled_terms(self, prefix: str = "") -> Iterator[tuple[str, object]]:
        """(label, coefficient) pairs in insertion order; a coefficient that
        is itself a combination is expanded, its labels prefixed "key:"."""
        for key, c in self.terms.items():
            label = prefix + self._label(key)
            if isinstance(c, Combo):
                yield from c.labelled_terms(label + ":")
            else:
                yield label, c

    def __str__(self) -> str:
        return " + ".join(f"{c}*{label}" for label, c in self.labelled_terms()) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly(Combo):
    """Polynomial in one variable: a combination of its powers."""

    __slots__ = ()
    var = "T"

    @property
    def coeffs(self) -> dict:
        return self.terms

    def degree(self) -> int:
        return max(self.terms, default=0)

    def _label(self, e: int) -> str:
        return f"{self.var}^{e}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[e]})*{self.var}^{e}" for e in sorted(self.terms))


class Series(Poly):
    """Power series in t truncated at ``order``: powers above it are
    dropped on the way in, and a sum is exact to the lower order."""

    __slots__ = ("order",)
    _meta = ("order",)
    var = "t"

    def __init__(self, order: int, coeffs: dict | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.terms = {e: c for e, c in (coeffs or {}).items() if e <= order and c}

    def add_terms(self, pairs: Iterable[tuple]) -> "Series":
        order = self.order
        return super().add_terms((e, c) for e, c in pairs if e <= order)

    def _aligned(self, other: "Series") -> "Series":
        return self.truncate(min(self.order, other.order))

    def truncate(self, order: int) -> "Series":
        out = self._like({e: c for e, c in self.terms.items() if e <= order})
        out.order = order
        return out

    def shift(self, j: int) -> "Series":
        """Multiply by t^j; a series exact mod t^(m+1) stays exact mod
        t^(m+j+1), so the order grows with the shift."""
        out = self._like({e + j: c for e, c in self.terms.items()})
        out.order += j
        return out
