"""Truncated t-series of word polynomials and the cyclic-sum identities.

``WordSeries`` is a power series in t, truncated at a fixed order, whose
coefficients are NcPolys.  On top of it this module builds the binomially
shifted reversed series F, the two-sided star series w_star_hat, the word
values of the cyclic-sum combinations defined in ``indexes`` (per index and
per cyclic class), the A/B/C splitting of the double splice sum, and exact
verifiers for the expansion of the hatted cyclic-sum combination over plain
ones, per index and per cyclic class.

All w_star values and series are cached by index; the caches are
write-once and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .indexes import (
    CyclicClass,
    Index,
    add_symbols,
    binomial_shift,
    binomial_shifts,
    check_index,
    csf_star_hat_symbols,
    csf_star_symbols,
    last_pivots,
    splice_symbols,
    splices,
    tail_symbols,
)
from .posets import w_map, x_star
from .words import NcPoly, shuffle


class WordSeries:
    """Power series in t truncated at ``order``, NcPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, NcPoly] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.coeffs = {e: p for e, p in (coeffs or {}).items() if e <= order and p}

    @classmethod
    def zero(cls, order: int) -> "WordSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "WordSeries":
        return cls(order, {0: NcPoly.one()})

    @classmethod
    def from_poly(cls, p: NcPoly, order: int) -> "WordSeries":
        return cls(order, {0: p})

    def coefficient(self, e: int) -> NcPoly:
        return self.coeffs.get(e, NcPoly.zero())

    def __add__(self, other: "WordSeries") -> "WordSeries":
        order = min(self.order, other.order)
        out = {e: p for e, p in self.coeffs.items() if e <= order}
        for e, p in other.coeffs.items():
            if e <= order:
                q = out.get(e)
                out[e] = p if q is None else q + p
        return WordSeries(order, out)

    def __sub__(self, other: "WordSeries") -> "WordSeries":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "WordSeries":
        return WordSeries(self.order, {e: scalar * p for e, p in self.coeffs.items()})

    def __neg__(self) -> "WordSeries":
        return (-1) * self

    def shift(self, j: int) -> "WordSeries":
        """Multiply by t^j; a series exact mod t^(m+1) stays exact mod
        t^(m+j+1), so the order grows with the shift."""
        return WordSeries(self.order + j, {e + j: p for e, p in self.coeffs.items()})

    def truncate(self, order: int) -> "WordSeries":
        return WordSeries(order, {e: p for e, p in self.coeffs.items() if e <= order})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[e]})*t^{e}" for e in sorted(self.coeffs))


def series_shuffle(a: WordSeries, b: WordSeries) -> WordSeries:
    """Coefficientwise shuffle convolution, truncated."""
    order = min(a.order, b.order)
    out: dict[int, NcPoly] = {}
    for ea, pa in a.coeffs.items():
        for eb, pb in b.coeffs.items():
            e = ea + eb
            if e > order:
                continue
            prod = shuffle(pa, pb)
            q = out.get(e)
            out[e] = prod if q is None else q + prod
    return WordSeries(order, out)


def poly_shuffle_series(p: NcPoly, s: WordSeries) -> WordSeries:
    """Shuffle a constant polynomial into every coefficient of a series."""
    return WordSeries(s.order, {e: shuffle(p, q) for e, q in s.coeffs.items()})


# -- cached building blocks -------------------------------------------

_W_STAR_CACHE: dict[Index, NcPoly] = {}
_F_CACHE: dict[tuple[Index, int], WordSeries] = {}
_W_STAR_HAT_CACHE: dict[tuple[Index, int], WordSeries] = {}


def w_star(k: Index) -> NcPoly:
    """Linear-extension word polynomial of the zig-zag poset of k."""
    k = tuple(k)
    got = _W_STAR_CACHE.get(k)
    if got is None:
        got = _W_STAR_CACHE.setdefault(k, w_map(x_star(k)))
    return got


def f_series(k: Index, order: int) -> WordSeries:
    """Signed, binomially weighted sum of reversed shifted star words:
    (-1)^wt(k) * sum over l >= 0 of prod C(k_j + l_j - 1, l_j)
    * w_star(k_r + l_r, ..., k_1 + l_1) * t^(l_1 + ... + l_r)."""
    k = tuple(k)
    key = (k, order)
    got = _F_CACHE.get(key)
    if got is not None:
        return got
    sign = -1 if sum(k) & 1 else 1
    symbols = {(shifted, e): sign * c for e, c, shifted in binomial_shifts(k, order)}
    return _F_CACHE.setdefault(key, _star_words(symbols, order))


def w_star_hat(k: Index, order: int) -> WordSeries:
    """Two-sided star series: sum over the split position of the prefix
    star word shuffled with the F-series of the suffix."""
    k = tuple(k)
    key = (k, order)
    got = _W_STAR_HAT_CACHE.get(key)
    if got is not None:
        return got
    acc = WordSeries.zero(order)
    for i in range(len(k) + 1):
        acc = acc + poly_shuffle_series(w_star(k[:i]), f_series(k[i:], order))
    return _W_STAR_HAT_CACHE.setdefault(key, acc)


# -- cyclic-sum combinations ------------------------------------------
#
# The combinations are the symbol dicts {(index, t-power): coeff} built in
# ``indexes``; these two evaluators read them as word series.


def _star_words(symbols: dict, order: int) -> WordSeries:
    """Each symbol (k, e) as w_star(k) t^e."""
    out: dict[int, NcPoly] = {}
    for (idx, e), c in symbols.items():
        term = c * w_star(idx)
        q = out.get(e)
        out[e] = term if q is None else q + term
    return WordSeries(order, out)


def _star_hat_words(symbols: dict, order: int) -> WordSeries:
    """Each symbol (k, e) as w_star_hat(k, order - e) t^e."""
    acc = WordSeries.zero(order)
    for (idx, e), c in symbols.items():
        acc = acc + c * w_star_hat(idx, order - e).shift(e)
    return acc


def _member_splices(m: Index) -> dict:
    """Splice sum of m pivoting on its last entry, as class members do."""
    return splice_symbols(last_pivots([m]))


def _shifted_sum(build, terms) -> dict:
    """c * build(s) t^e summed over the shift terms (e, c, s)."""
    out: dict = {}
    for e, c, s in terms:
        add_symbols(out, build(s), c, e)
    return out


def _signed_shifts(members, order: int):
    """The binomial_shifts terms of every member, signed by (-1)^(wt+1)."""
    for m in members:
        sign = 1 if sum(m) & 1 else -1
        for e, c, s in binomial_shifts(m, order):
            yield e, sign * c, s


def w_csf(k: Index) -> NcPoly:
    """Cyclic splice sum minus the weight multiple of the single chain;
    lands in H0."""
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    return _star_words(csf_star_symbols(k), 0).coefficient(0)


def w_csf_hat(k: Index, order: int) -> WordSeries:
    """Hatted analogue of :func:`w_csf`: splice sums of the hatted star
    series minus the t-shifted rotation tails and the weight term."""
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    return _star_hat_words(csf_star_hat_symbols(k, order), order)


@dataclass
class SeriesReport:
    """Outcome of one exact word-series identity check."""

    name: str
    index: object
    order: int
    equal: bool
    lhs: WordSeries
    rhs: WordSeries

    def diff(self) -> WordSeries:
        return self.lhs - self.rhs


def verify_csf_hat(k: Index, order: int) -> SeriesReport:
    """Exact check that the hatted cyclic-sum combination expands over the
    plain one with binomially shifted reversed arguments."""
    k = check_index(k)
    lhs = w_csf_hat(k, order)
    u_sum = _shifted_sum(csf_star_symbols, _signed_shifts([k], order))
    rhs = _star_words(add_symbols(u_sum, csf_star_symbols(k)), order)
    return SeriesReport("csf-hat-expansion", k, order, lhs == rhs, lhs, rhs)


# -- cyclic-class combinations -----------------------------------------


def class_csf(alpha: CyclicClass) -> NcPoly:
    """Splice sum over the distinct members of a cyclic class, pivoting on
    the last entry of each member."""
    return _star_words(splice_symbols(last_pivots(alpha.members)), 0).coefficient(0)


def class_csf_hat(alpha: CyclicClass, order: int) -> WordSeries:
    """Hatted class splice sum minus the t-shifted member tail sums."""
    pivots = last_pivots(alpha.members)
    symbols = add_symbols(splice_symbols(pivots), tail_symbols(pivots, order))
    return _star_hat_words(symbols, order)


def class_u_csf(alpha: CyclicClass, ls: tuple[int, ...]) -> NcPoly:
    """Binomially weighted splice sum of the members shifted by ls and
    reversed: one term of the class u-sum, without its sign and t-power."""
    terms = ((0,) + binomial_shift(m, ls) for m in alpha.members)
    return _star_words(_shifted_sum(_member_splices, terms), 0).coefficient(0)


def _class_u_sum(alpha: CyclicClass, order: int) -> dict:
    """The signed class u-sums t^|l| over every shift l with |l| <= order."""
    return _shifted_sum(_member_splices, _signed_shifts(alpha.members, order))


def verify_class_csf_hat(alpha: CyclicClass, order: int) -> SeriesReport:
    """Exact check of the cyclic-class expansion: the hatted class splice
    sum equals the plain one plus the signed, binomially shifted ones."""
    lhs = class_csf_hat(alpha, order)
    u_sum = _class_u_sum(alpha, order)
    rhs = _star_words(add_symbols(u_sum, splice_symbols(last_pivots(alpha.members))), order)
    return SeriesReport("class-csf-expansion", alpha, order, lhs == rhs, lhs, rhs)


@dataclass
class SpliceParts:
    """The A/B/C split of the double splice sum over a cyclic class, with
    the closed forms of A (telescoping) and C (Chu-Vandermonde) and the
    identification of B as the plain class splice sum."""

    A: WordSeries
    B: WordSeries
    C: WordSeries
    total_matches_direct: bool
    a_closed_form_matches: bool
    b_is_class_csf: bool
    c_closed_form_matches: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.total_matches_direct
            and self.a_closed_form_matches
            and self.b_is_class_csf
            and self.c_closed_form_matches
        )


def abc_split(alpha: CyclicClass, order: int) -> SpliceParts:
    """Compute A, B, C by their defining sums and check the three lemmas."""
    A = WordSeries.zero(order)
    B = WordSeries.zero(order)
    C = WordSeries.zero(order)
    direct = WordSeries.zero(order)
    for p, body in last_pivots(alpha.members):
        for idx in splices(p, body):
            for i in range(1, len(idx)):  # non-empty prefix and suffix
                A = A + poly_shuffle_series(w_star(idx[:i]), f_series(idx[i:], order))
            B = B + WordSeries.from_poly(w_star(idx), order)
            C = C + f_series(idx, order)
            direct = direct + w_star_hat(idx, order)

    total_ok = (A + B + C) == direct

    # telescoped closed form of A
    a_closed = WordSeries.zero(order)
    for mem in alpha.members:
        for l in range(order + 1):
            inner = w_star_hat((1 + l,) + mem, order - l) - f_series((1 + l,) + mem, order - l)
            a_closed = a_closed + inner.shift(l)
        a_closed = a_closed + f_series(mem + (1,), order)
    a_ok = A == a_closed

    b_ok = B == WordSeries.from_poly(class_csf(alpha), order)

    # Chu-Vandermonde closed form of C
    c_closed = _star_words(_class_u_sum(alpha, order), order)
    for mem in alpha.members:
        for l in range(order + 1):
            c_closed = c_closed + f_series((1 + l,) + mem, order - l).shift(l)
        c_closed = c_closed - f_series(mem + (1,), order)
    c_ok = C == c_closed

    return SpliceParts(A, B, C, total_ok, a_ok, b_ok, c_ok)
