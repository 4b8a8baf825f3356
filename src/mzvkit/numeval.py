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
through sums and first-order through products.  A cyclic-sum check
passes when every residual is within its tolerance; the error does not
widen it.

The t-adic values are ``NumericSeries``, a ``linear.Series`` of
NumericValues: ``c * v`` is ``v.scaled(c)`` and a value is zero only
when both its value and its error are 0.0.

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

import numpy as np

from .indexes import (
    Index,
    check_index,
    csf_star_hat_symbols,
    csf_star_symbols,
    csf_symbols,
    hat_symbols,
    star_invert,
)
from .linear import Series
from .reports import Report
from .words import EMPTY_WORD, NcPoly, s_map, weight, word_of_index

TOL_PLAIN = 1e-6  # identities between convergent sums
TOL_REG = 1e-5  # identities mixing regularized values


@dataclass(frozen=True)
class NumericValue:
    """A float with a non-negative error estimate."""

    value: float
    err: float = 0.0

    def __add__(self, other: "NumericValue") -> "NumericValue":
        return NumericValue(self.value + other.value, self.err + other.err)

    def __sub__(self, other: "NumericValue") -> "NumericValue":
        return NumericValue(self.value - other.value, self.err + other.err)

    def __neg__(self) -> "NumericValue":
        return NumericValue(-self.value, self.err)

    def __mul__(self, other: "NumericValue") -> "NumericValue":
        err = abs(self.value) * other.err + abs(other.value) * self.err + self.err * other.err
        return NumericValue(self.value * other.value, err)

    def scaled(self, c: float) -> "NumericValue":
        return NumericValue(c * self.value, abs(c) * self.err)

    __rmul__ = scaled

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
_REG_CACHE: dict = {}


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


def z_num(p: NcPoly) -> NumericValue:
    """Linear extension of the word values over an H0 word polynomial."""
    if not p.is_h0():
        raise ValueError("z_num needs an H0 polynomial (admissible words)")
    acc_v = 0.0
    acc_e = 0.0
    for w, c in p.terms.items():
        nv = _word_num(w)
        fc = float(c)
        acc_v += fc * nv.value
        acc_e += abs(fc) * nv.err
    return NumericValue(acc_v, acc_e + 1e-16 * abs(acc_v))


def z_reg_num(p: NcPoly, product: str) -> NumericValue:
    """Regularised value of an H1 polynomial: its regularisation
    polynomial at T = 0, the constant part of its decomposition."""
    from .regularize import decompose

    return z_num(decompose(p, product)[0])


def zeta_reg(k: Index, product: str, *, star: bool = False) -> NumericValue:
    """Regularised zeta value of an arbitrary index (constant term at T=0);
    with star, of its contraction-sum word."""
    k = check_index(k)
    key = (k, product, star)
    got = _REG_CACHE.get(key)
    if got is None:
        p = NcPoly.from_index(k)
        got = _REG_CACHE.setdefault(key, z_reg_num(s_map(p) if star else p, product))
    return got


# -- t-adic series ------------------------------------------------------


class NumericSeries(Series):
    """Truncated numeric power series in t."""

    __slots__ = ()
    zero_coeff = ZERO
    scaled = Series.__rmul__

    def residuals(self) -> list[float]:
        """|coefficient| per t-power 0..order (for a difference series)."""
        return [abs(self.coefficient(e).value) for e in range(self.order + 1)]


VARIANTS = ("ast", "sh", "star_ast", "star_sh", "star_KY", "KY_inv")

_HAT_CACHE: dict = {}
_KY_COEFF_CACHE: dict = {}  # (k, e) -> regularised t^e value of star_KY


def zeta_hat_num(k: Index, variant: str, order: int) -> NumericSeries:
    """t-adic symmetric (star) zeta series, coefficients up to t^order.

    ast / sh: two-sided sums of regularised plain values.
    star_ast / star_sh: the same with contraction-sum star values.
    star_KY: the regularised image of the two-sided star word series.
    KY_inv: the star_KY series pushed through the signed contraction
    inversion (the derived plain-value analogue of star_KY).
    """
    k = check_index(k)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    key = (k, variant, order)
    got = _HAT_CACHE.get(key)
    if got is not None:
        return got
    out = _zeta_hat_uncached(k, variant, order)
    return _HAT_CACHE.setdefault(key, out)


def _zeta_hat_uncached(k: Index, variant: str, order: int) -> NumericSeries:
    if variant == "star_KY":
        from .tseries import w_star_hat

        # the t^e coefficient of w_star_hat does not depend on the order
        vals = {}
        for e, p in w_star_hat(k, order).terms.items():
            got = _KY_COEFF_CACHE.get((k, e))
            if got is None:
                got = _KY_COEFF_CACHE.setdefault((k, e), z_reg_num(p, "sh"))
            vals[e] = got
        return NumericSeries(order, vals)

    if variant == "KY_inv":
        if not k:
            return NumericSeries(order, {0: ONE})
        return NumericSeries(order).add_scaled(
            (e, float(c), v)
            for idx, c in star_invert(k).terms.items()
            for e, v in zeta_hat_num(idx, "star_KY", order).terms.items()
        )

    product = "ast" if variant.endswith("ast") else "sh"
    star = variant.startswith("star")
    return NumericSeries(order).add_terms(
        (e, c * (zeta_reg(head, product, star=star) * zeta_reg(tail, product, star=star)))
        for ((head, tail), e), c in hat_symbols(k, order).terms.items()
    )


# -- cyclic sum formula verifiers ---------------------------------------


def csf_series(which: str, k: Index, order: int = 2) -> NumericSeries:
    """The cyclic-sum combination that ``verify_csf(which, k, order)``
    checks, evaluated without its all-ones trace term: a series up to
    t^order, or a constant (order 0) for mzsv."""
    if which == "mzsv":
        symbols, variant, order = csf_star_symbols(k), None, 0
    elif which == "tsmzsv":
        symbols, variant = csf_star_hat_symbols(k, order), "star_KY"
    elif which == "tsmzv_exact":
        symbols, variant = csf_symbols(k, order), "KY_inv"
    else:
        raise ValueError(f"unknown cyclic sum check {which!r}")

    def value(idx: Index, n: int) -> NumericSeries:
        if variant is None:
            # a depth-1 star sum is the plain sum; its plain key shares the cache
            return NumericSeries(n, {0: mzv_num(idx, star=len(idx) > 1)})
        return zeta_hat_num(idx, variant, n)

    return NumericSeries(order).add_symbols(symbols, value)


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
    """
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    combo = csf_series(which, k, order)
    if all(p == 1 for p in k):
        # all-ones trace; for mzsv it cancels the weight term of an empty splice sum
        wt = sum(k)
        c = wt if which == "mzsv" else (1.0 + (-1.0) ** (wt + 1)) * wt
        trace = NumericValue(c * mzv_num((wt + 1,)).value, 0.0)
        combo = combo + NumericSeries(combo.order, {0: trace})
    tol = cfg.tolerance(TOL_PLAIN if which == "mzsv" else TOL_REG)
    return Report.numeric(
        f"csf-{which}", k, combo.residuals(), tol, None if which == "mzsv" else order
    )
