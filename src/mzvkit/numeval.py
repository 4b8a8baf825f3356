"""High-precision numerical evaluation of the zeta machinery.

Admissible values come from Hölder convolution at p = 2 (Borwein,
Bradley, Broadhurst and Lisoněk, "Special values of multiple
polylogarithms", Trans. AMS 353 (2001)).  The value is a sum over the
splits of the index's integral word a_1...a_w of products of two
iterated integrals evaluated at 1/2, each a power series truncated after
M = 96 coefficients.  One value costs 2w vector steps over M
coefficients, and since every coefficient is at most 1 the truncation
error is at most 2(w+1) 2^-M: a proven bound, not an estimate.  Star
values are the linear extension over the contraction-sum word.  A value
depends only on its word, so plain and star values are cached by packed
word (``_word_num``), and no value function takes a config: ``EvalConfig``
reaches only the verifiers, which read its tolerance, and ``mzv_num`` and
``raw_partial_sum``, which the benchmark calls with one.

Every value carries an error: the tail bound plus a rounding allowance
for the operations in the working dtype.  Errors propagate additively
through sums, each adding 1e-16 of its size for rounding, and
first-order through products.  A sum of c * v (``_sum``) is the exactly
rounded sum of the rounded products (``math.fsum``), so its value and
error depend only on which terms it holds, not on their order.  It is
the only code that adds NumericValues, which have no ``+``: every word
polynomial, index combination, cyclic-sum coefficient and ρ-image
coefficient is one ``_sum``.  A cyclic-sum check passes when every
residual is within its tolerance; the error does not widen it.

The t-adic values are ``NumericSeries``, a ``linear.Series`` of
NumericValues, in which a value is zero only when both its value and its
error are 0.0.  Like the word series, a t-adic value is cached by
coefficient: ``_hat_coeff`` holds the t^e coefficient per (index,
variant, e) for all six variants, and ``zeta_hat_num`` reads a series of
order n off those for e <= n.  Every variant but KY_inv is one sum over
the splits of k of V(head) times the sum of V over the suffix's shift
symbols of t-power e, with V one cached value per index.  For star_KY,
V is the shuffle-regularised star word value: reg_sh at T = 0 is a
shuffle homomorphism (Ihara, Kaneko and Zagier 2006), so these products
are the regularised two-sided star word series without building it.  A
KY_inv coefficient reads its star_KY terms from the same cache, over a
``star_invert`` built once per index.

The nested-sum kernel (``_outer_terms``) serves only
``raw_partial_sum``, the uncorrected partial sum up to the config's
cutoff.  It costs about weight + depth passes over N elements: for each
index entry k_i, k_i - 1 multiplications build n^k_i (products, exact up
to n^3, not pow calls), one division applies it and, for all but the
last entry, a cumulative sum forms the next partial sums.  It runs in
place in one module-level workspace of three N-element arrays (n = 1..N,
the partial sums and a power buffer), kept for the last (N, dtype) used
and replaced when either changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .indexes import (
    Index,
    check_index,
    csf_star_hat_symbols,
    csf_star_symbols,
    csf_symbols,
    shift_terms,
    star_invert,
)
from .linear import Series
from .polys import EMPTY_WORD, NcPoly, weight, word_of_index
from .reports import Report
from .tseries import w_star
from .words import reg_shuffle_constant, s_map

TOL_PLAIN = 1e-6  # identities between convergent sums
TOL_REG = 1e-5  # identities mixing regularized values


@dataclass(frozen=True)
class NumericValue:
    """A float with a non-negative error estimate."""

    value: float
    err: float = 0.0

    def __mul__(self, other: "NumericValue") -> "NumericValue":
        err = abs(self.value) * other.err + abs(other.value) * self.err + self.err * other.err
        return NumericValue(self.value * other.value, err)

    def __bool__(self) -> bool:
        return self.value != 0.0 or self.err != 0.0


ZERO = NumericValue(0.0, 0.0)
ONE = NumericValue(1.0, 0.0)


@dataclass(frozen=True)
class EvalConfig:
    """Summation cutoff of ``raw_partial_sum`` and comparison tolerance.

    Values work in the platform extended precision (~18-19 digits),
    ``dtype``.
    """

    cutoff: int = 10**6
    tol: float | None = None

    dtype = np.longdouble  # not a field: the working dtype of every config

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")

    def tolerance(self, default: float) -> float:
        return self.tol if self.tol is not None else default


DEFAULT_CONFIG = EvalConfig()


# -- nested-sum kernel of raw_partial_sum -------------------------------


# (N, dtype) -> (n, P, pw); holds at most one entry, the last one used
_WORKSPACE: dict = {}


def _workspace(N: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (N, dtype)
    got = _WORKSPACE.get(key)
    if got is None:
        _WORKSPACE.clear()  # drop the old arrays before allocating the new ones
        n = np.arange(1, N + 1, dtype=dtype)
        got = _WORKSPACE[key] = (n, np.empty_like(n), np.empty_like(n))
    return got


def _outer_terms(k: Index, star: bool, N: int, dtype) -> np.ndarray:
    """Array of P(n)/n^{k_r} for n = 1..N, P the inner nested partial sum
    (strict inner inequalities; weak for the star variant).

    Works in place in the module's workspace: n = 1..N, P and one buffer
    for n^s, built by repeated multiplication rather than pow: n^2 and n^3
    are exact integers below 2^64, n^4 is correctly rounded, and each
    further factor adds one rounding.  The returned array is the
    workspace's P, valid only until the next kernel call (any call, at
    any N); the workspace is not thread-safe.
    """
    n, P, pw = _workspace(N, dtype)
    for i, s in enumerate(k):
        d = n
        if s > 1:
            np.multiply(n, n, out=pw)
            for _ in range(s - 2):
                pw *= n
            d = pw
        if i == 0:
            np.divide(1, d, out=P)
        else:
            P /= d
        if i == len(k) - 1:
            break
        np.cumsum(P, out=P)
        if not star:
            P[1:] = P[:-1]
            P[0] = 0.0
    return P


def raw_partial_sum(k: Index, star: bool = False, N: int | None = None, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Uncorrected partial sum with all variables cut off at N (default:
    the config's cutoff)."""
    k = check_index(k)
    if N is None:
        N = cfg.cutoff
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not k:
        return 1.0
    return float(_outer_terms(k, star, N, cfg.dtype).sum())


_MZV_CACHE: dict = {}  # (packed H0 word, star) -> NumericValue


def mzv_num(k: Index, star: bool = False, cfg: EvalConfig = DEFAULT_CONFIG) -> NumericValue:
    """Nested (star) zeta sum of an admissible index, by Hölder convolution.

    Raises for non-admissible indices (the series diverges).  ``cfg`` is
    unused: it stays only because the benchmark passes one (ROADMAP item
    3a).
    """
    k = check_index(k)
    if k and k[-1] < 2:
        raise ValueError(f"index {k} is not admissible: series diverges")
    return _word_num(word_of_index(k), star)


def _word_num(w: int, star: bool = False) -> NumericValue:
    """Value of an H0 word, or with star of its contraction-sum word; the
    one value cache, keyed by (word, star).  The empty word is ONE."""
    if w == EMPTY_WORD:
        return ONE
    key = (w, star)
    got = _MZV_CACHE.get(key)
    if got is not None:
        return got
    if star:
        out = z_num(s_map(NcPoly.from_word(w)))
    else:
        out = _holder_num(w, HOLDER_TERMS, EvalConfig.dtype)
    return _MZV_CACHE.setdefault(key, out)


# -- Hölder convolution --------------------------------------------------


HOLDER_TERMS = 96  # M: power-series coefficients kept; tail <= 2(w+1) 2^-M


def _integrate(c: np.ndarray, letter: int, n: np.ndarray) -> None:
    """In place: the coefficients of the integral from 0 of the series c
    against dt/t (letter x, 0) or dt/(1-t) (letter y, 1); n = 0..M."""
    if letter:
        c[1:] = np.cumsum(c[:-1])
    c[1:] /= n[1:]
    c[0] = 0.0


def _holder_num(zw: int, M: int, dtype) -> NumericValue:
    """Plain value of the packed H0 word zw by Hölder convolution at p = 2,
    with power series truncated after M coefficients, in the given dtype.

    With the letters a_1...a_w of zw read backwards (a_1 outermost) and
    L(b)(z) the iterated integral of the word b from 0 to z,
    zeta = sum_j L(tau(a_1...a_j))(1/2) L(a_{j+1}...a_w)(1/2), where tau
    reverses a word and swaps x and y.  One pass over a_w, a_{w-1}, ...
    gives every suffix value, one over tau(a_1), tau(a_2), ... every
    tau-prefix value.
    """
    w = weight(zw)
    word = [(zw >> i) & 1 for i in range(w)]  # a_1..a_w: bit i is a_{i+1}
    n = np.arange(M + 1, dtype=dtype)
    half = np.ldexp(np.ones(M + 1, dtype=dtype), -np.arange(M + 1))  # 2^-n, exact

    def values(letters) -> list:
        c = np.zeros(M + 1, dtype=dtype)
        c[0] = 1.0
        out = [dtype(1.0)]
        for a in letters:
            _integrate(c, a, n)
            out.append(c @ half)
        return out

    suffix = values(reversed(word))[::-1]  # suffix[j] = L(a_{j+1}...a_w)(1/2)
    prefix = values(1 - a for a in word)  # prefix[j] = L(tau(a_1...a_j))(1/2)
    value = float(sum(p * s for p, s in zip(prefix, suffix)))
    # every term is positive, so the relative rounding error is at most
    # (w M + 2M + w + 1) eps <= 2(w+1) M eps: up to M operations per letter
    # and coefficient, two dot products of M terms, a product and the w
    # additions of the split sum; then one rounding to float
    ops = 2 * (w + 1) * M
    rounding = (ops * float(np.finfo(dtype).eps) + float(np.finfo(float).eps)) * max(1.0, value)
    return NumericValue(value, 2 * (w + 1) * 2.0**-M + rounding)


def _sum(terms) -> NumericValue:
    """sum c * v over the (c, v), exactly rounded (``math.fsum``), so it
    depends only on the multiset of terms: errors add as |c| * err, plus a
    rounding allowance of 1e-16 * |sum|."""
    values, errs = [], []
    for c, v in terms:
        values.append(c * v.value)
        errs.append(abs(c) * v.err)
    acc_v = fsum(values)
    return NumericValue(acc_v, fsum(errs) + 1e-16 * abs(acc_v))


def z_num(p: NcPoly) -> NumericValue:
    """Linear extension of the word values over an H0 word polynomial."""
    if not p.is_h0():
        raise ValueError("z_num needs an H0 polynomial (admissible words)")
    return _sum((float(c), _word_num(w)) for w, c in p.terms.items())


def z_reg_num(p: NcPoly, product: str) -> NumericValue:
    """Regularised value of an H1 polynomial at T = 0: for shuffle the
    closed form ``reg_shuffle_constant``, else the harmonic peel's a_0."""
    if product == "sh":
        return z_num(reg_shuffle_constant(p))
    from .regularize import decompose  # the one real cycle: regularize reads values from here

    return z_num(decompose(p, product)[0])


def zeta_reg(k: Index, product: str, *, star: bool = False) -> NumericValue:
    """Regularised zeta value of an arbitrary index (constant term at T=0);
    with star, of its contraction-sum word."""
    return _zeta_reg(check_index(k), product, star)


@lru_cache(maxsize=None)
def _zeta_reg(k: Index, product: str, star: bool) -> NumericValue:
    p = NcPoly.from_index(k)
    return z_reg_num(s_map(p) if star else p, product)


# -- t-adic series ------------------------------------------------------


class NumericSeries(Series):
    """Truncated numeric power series in t."""

    __slots__ = ()
    zero_coeff = ZERO


VARIANTS = ("ast", "sh", "star_ast", "star_sh", "star_KY", "KY_inv")


def zeta_hat_num(k: Index, variant: str, order: int) -> NumericSeries:
    """t-adic symmetric (star) zeta series, coefficients up to t^order.

    ast / sh: two-sided sums of regularised plain values.
    star_ast / star_sh: the same with contraction-sum star values.
    star_KY: the same sums of products of regularised star word values,
    the regularised two-sided star word series in product form.
    KY_inv: the star_KY series pushed through the signed contraction
    inversion (the derived plain-value analogue of star_KY).
    """
    k = check_index(k)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return NumericSeries(order, {e: _hat_coeff(k, variant, e) for e in range(order + 1)})


@lru_cache(maxsize=None)
def _hat_coeff(k: Index, variant: str, e: int) -> NumericValue:
    """The t^e coefficient of zeta_hat_num(k, variant, order) for every
    order >= e: sum_i V(k[:i]) * _tail(k[i:], variant, e), or for KY_inv
    the signed contraction inversion of star_KY.  Each product carries
    the first-order error of ``NumericValue.__mul__``."""
    if variant == "KY_inv":
        if not k:
            return ONE if e == 0 else ZERO
        return _sum((c, _hat_coeff(idx, "star_KY", e)) for idx, c in _star_inverse(k))
    return _sum(
        (1.0, _index_value(k[:i], variant) * _tail(k[i:], variant, e)) for i in range(len(k) + 1)
    )


@lru_cache(maxsize=None)
def _tail(s: Index, variant: str, e: int) -> NumericValue:
    """sum c * V(idx) over the t^e terms (idx, c) of ``shift_symbols(s, e)``."""
    return _sum((c, _index_value(idx, variant)) for idx, c in shift_terms(s, e))


def _index_value(k: Index, variant: str) -> NumericValue:
    """V(k): the regularised plain or contraction-sum star value under the
    variant's product, or for star_KY the regularised star word value."""
    if variant == "star_KY":
        return _star_word_reg(k)
    return zeta_reg(k, "ast" if variant.endswith("ast") else "sh", star=variant.startswith("star"))


@lru_cache(maxsize=None)
def _star_word_reg(k: Index) -> NumericValue:
    """The shuffle-regularised value of the star word ``w_star(k)``; ONE
    for the empty index."""
    return z_reg_num(w_star(k), "sh") if k else ONE


@lru_cache(maxsize=None)
def _star_inverse(k: Index) -> tuple[tuple[Index, float], ...]:
    """The terms of ``star_invert(k)``, coefficients as floats: built once
    per index and read by every t-power of its KY_inv series."""
    return tuple((idx, float(c)) for idx, c in star_invert(k).terms.items())


# -- cyclic sum formula verifiers ---------------------------------------


def _csf_terms(which: str, k: Index, order: int) -> list[list[tuple]]:
    """The (c, value) terms of each t-power 0..order of the cyclic-sum
    combination that ``verify_csf(which, k, order)`` checks, without its
    all-ones trace: c * zeta_hat_num(idx, variant, order - e) t^e per
    symbol ((idx, e), c), or for mzsv c * star value, at order 0."""
    if which == "mzsv":
        # a depth-1 star sum is the plain sum; its plain key shares the cache
        symbols = csf_star_symbols(k).terms.items()
        return [[(c, mzv_num(idx, star=len(idx) > 1)) for (idx, _), c in symbols]]
    if which == "tsmzsv":
        symbols, variant = csf_star_hat_symbols(k, order), "star_KY"
    elif which == "tsmzv_exact":
        symbols, variant = csf_symbols(k, order), "KY_inv"
    else:
        raise ValueError(f"unknown cyclic sum check {which!r}")
    terms: list[list] = [[] for _ in range(order + 1)]
    for (idx, e), c in symbols.terms.items():
        if e <= order:
            for f, v in zeta_hat_num(idx, variant, order - e).terms.items():
                terms[e + f].append((c, v))
    return terms


def verify_csf(
    which: str, k: Index, order: int = 2, cfg: EvalConfig = DEFAULT_CONFIG
) -> Report:
    """Numeric check of one of the cyclic sum formulas.

    mzsv: splice sum of star values against the weight multiple of the
    single zeta value (with the all-ones correction).
    tsmzsv: the t-adic star version, both sides as series up to t^order.
    tsmzv_exact: the t-adic plain version evaluated with the KY_inv
    variant, which turns the congruence statement into an exact real
    identity whose only surviving term is the all-ones trace.

    The residual at t^e is |sum of the terms of t^e|, one ``_sum`` with
    the trace among the t^0 terms.
    """
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = _csf_terms(which, k, order)
    if all(p == 1 for p in k):
        # all-ones trace; for mzsv it cancels the weight term of an empty splice sum
        wt = sum(k)
        c = wt if which == "mzsv" else (1.0 + (-1.0) ** (wt + 1)) * wt
        terms[0].append((c, mzv_num((wt + 1,))))
    tol = cfg.tolerance(TOL_PLAIN if which == "mzsv" else TOL_REG)
    residuals = [abs(_sum(t).value) for t in terms]
    return Report.numeric(f"csf-{which}", k, residuals, tol, None if which == "mzsv" else order)
