"""Regularisation: the polynomial decomposition of H1 over H0 for both
products, symbolic T-polynomials, and the comparison maps between the
harmonic, shuffle and integral-representation regularisations.

The two products are one table, ``PRODUCTS`` ("sh" shuffle, "ast"
harmonic), with one recursion y^(*n) = y^(*(n-1)) * y (y is also z_1).
``decompose`` gives the unique a_i in H0 with p = sum_i a_i * y^(*i): for
shuffle ``words.reg_shuffle`` in closed form, for the harmonic product a
peel.  Each round records a_n = top / n! for the part with the highest
trailing power n of y and subtracts top * (y^(*n) / n!), which lowers that
power; a Fraction appears only where a division is inexact.

The gamma-series map rho and its star companion act coefficientwise on
numeric T-polynomials through the exponential series
exp(sum_{n>=2} (-1)^n zeta(n) x^n / n); Euler's constant never appears
because it cancels in that form.  Their mismatch rho* o rho^{-1} is
supported on even powers of pi, which :func:`sin_correction` predicts and
:func:`compare_star_regs` checks numerically.  Numeric T-polynomials are
``NumericPolyT``, a ``linear.Poly`` of NumericValues; a comparison is a
``Report.numeric`` row of the residuals |lhs - rhs|.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import factorial

from .indexes import check_index
from .linear import Poly
from .numeval import DEFAULT_CONFIG, ZERO, EvalConfig, NumericValue, _sum, mzv_num, z_num
from .polys import NcPoly
from .reports import Report
from .tseries import w_star
from .words import harmonic, reg_shuffle, s_map, shuffle, split_trailing

PRODUCTS = {"sh": shuffle, "ast": harmonic}


def _product(a: NcPoly, b: NcPoly, product: str) -> NcPoly:
    if product not in PRODUCTS:
        raise ValueError(f"unknown product {product!r}")
    return PRODUCTS[product](a, b)


@lru_cache(maxsize=None)
def y_product_power(n: int, product: str) -> NcPoly:
    """The n-fold product power of y: y^(*n) = y^(*(n-1)) * y."""
    if n == 0:
        return NcPoly.one()
    return _product(y_product_power(n - 1, product), NcPoly.from_str("y"), product)


def decompose(p: NcPoly, product: str = "sh") -> list[NcPoly]:
    """Unique a_0..a_n in H0 with p = sum a_i * y^(product-power i); for
    shuffle ``words.reg_shuffle``, the T-coefficients of reg_sh."""
    if product not in PRODUCTS:
        raise ValueError(f"unknown product {product!r}")
    if not p.is_h1():
        raise ValueError("decompose needs an H1 polynomial")
    if product == "sh":
        return reg_shuffle(p)
    out: dict[int, NcPoly] = {}
    rem = p
    while rem:
        split = [(split_trailing(w), c) for w, c in rem.terms.items()]
        n = max(t for (_, t), _ in split)
        if out and n >= min(out):
            raise AssertionError("peeling failed to reduce trailing degree")
        top = NcPoly({sw: c for (sw, t), c in split if t == n})
        out[n] = top / factorial(n)
        # top * (y^(*n) / n!) is a_n * y^(*n), and divides only where it must
        rem = rem - harmonic(top, y_product_power(n, "ast") / factorial(n))
    deg = max(out, default=0)
    return [out.get(i, NcPoly.zero()) for i in range(deg + 1)]


def recompose(parts: list[NcPoly], product: str) -> NcPoly:
    """Inverse of :func:`decompose` (for round-trip checks)."""
    acc = NcPoly.zero()
    for i, a in enumerate(parts):
        if a:
            acc = acc + _product(a, y_product_power(i, product), product)
    return acc


class RegPolynomial(Poly):
    """Symbolic regularisation polynomial: T-degree -> H0 polynomial."""

    __slots__ = ("product",)
    _meta = ("product",)
    zero_coeff = NcPoly()

    def __init__(self, product: str, coeffs: dict[int, NcPoly] | None = None):
        super().__init__(coeffs)
        self.product = product


def reg_T(p: NcPoly, product: str = "sh") -> RegPolynomial:
    """Symbolic regularisation of an H1 polynomial as a polynomial in T."""
    return RegPolynomial(product, dict(enumerate(decompose(p, product))))


# -- the gamma-series maps on numeric T-polynomials ---------------------


class NumericPolyT(Poly):
    """Polynomial in T with NumericValue coefficients."""

    __slots__ = ()
    zero_coeff = ZERO

    @classmethod
    def monomial(cls, n: int, c: float = 1.0) -> "NumericPolyT":
        return cls({n: NumericValue(c, 0.0)})

    def max_residual(self, other: "NumericPolyT") -> float:
        return max(residuals(self, other))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[i].value:.12g}*T^{i}" for i in sorted(self.terms))


def residuals(lhs: NumericPolyT, rhs: NumericPolyT) -> list[float]:
    """|lhs - rhs| at each degree present in either side, lowest first;
    [0.0] when both are zero."""
    degs = sorted(set(lhs.terms) | set(rhs.terms))
    return [abs(lhs.coefficient(i).value - rhs.coefficient(i).value) for i in degs] or [0.0]


def numeric_reg_poly(p: NcPoly, product: str) -> NumericPolyT:
    """Numeric T-polynomial of the regularisation of p."""
    return NumericPolyT({i: z_num(a) for i, a in enumerate(decompose(p, product)) if a})


def a_coeffs(max_deg: int) -> list[float]:
    """Taylor coefficients of exp(sum_{n>=2} (-1)^n zeta(n) x^n / n), with
    the single zeta values from ``mzv_num``."""
    c = [0.0, 0.0] + [((-1) ** n) * mzv_num((n,)).value / n for n in range(2, max_deg + 1)]
    a = [1.0] + [0.0] * max_deg
    for m in range(1, max_deg + 1):
        a[m] = sum(j * c[j] * a[m - j] for j in range(1, m + 1)) / m
    return a


def _reciprocal(series: list[float]) -> list[float]:
    if series[0] == 0:
        raise ValueError("series has no constant term")
    inv = [1.0 / series[0]] + [0.0] * (len(series) - 1)
    for m in range(1, len(series)):
        inv[m] = -sum(series[j] * inv[m - j] for j in range(1, m + 1)) / series[0]
    return inv


def _alternate(series: list[float]) -> list[float]:
    return [(-1) ** i * v for i, v in enumerate(series)]


RHO_KINDS = ("rho", "rho_inv", "rho_star", "rho_star_inv")


def rho_coeffs(which: str, max_deg: int) -> list[float]:
    """Series coefficients characterising each map: rho multiplies the
    exponential generating kernel by A(x), rho_inv by 1/A(x), rho_star by
    1/A(-x), rho_star_inv by A(-x)."""
    a = a_coeffs(max_deg)
    if which == "rho":
        return a
    if which == "rho_inv":
        return _reciprocal(a)
    if which == "rho_star":
        return _reciprocal(_alternate(a))
    if which == "rho_star_inv":
        return _alternate(a)
    raise ValueError(f"unknown map {which!r}")


def rho_apply(p: NumericPolyT, which: str) -> NumericPolyT:
    """Apply rho / rho_inv / rho_star / rho_star_inv coefficientwise:
    T^n maps to sum_j coeff_j * n!/(n-j)! * T^(n-j), each output degree
    one exactly rounded ``_sum`` of its terms."""
    coef = rho_coeffs(which, p.degree())
    terms: dict[int, list] = {}
    for n, v in p.terms.items():
        for j in range(n + 1):
            if coef[j] != 0.0:
                terms.setdefault(n - j, []).append((coef[j] * math.perm(n, j), v))
    return NumericPolyT({d: _sum(t) for d, t in terms.items()})


def sin_correction(n: int) -> NumericPolyT:
    """Predicted rho_star(rho_inv(T^n)): the even pi-power series
    sum_m (-1)^m pi^(2m)/(2m+1)! applied as a coefficient kernel."""
    out: dict[int, NumericValue] = {}
    for m in range(0, n // 2 + 1):
        c = (-1) ** m * math.pi ** (2 * m) / factorial(2 * m + 1) * math.perm(n, 2 * m)
        out[n - 2 * m] = NumericValue(c, 0.0)
    return NumericPolyT(out)


TOL_RHO = 1e-6  # tolerance of the rho comparisons unless the config sets one


def verify_reg_relation(which: str, k, cfg: EvalConfig = DEFAULT_CONFIG) -> Report:
    """Numeric check that the shuffle T-polynomial is rho of the harmonic
    one, for the plain z-word of k ("plain") or its contraction-sum star
    word ("star")."""
    k = check_index(k)
    p = NcPoly.from_index(k)
    if which == "star":
        p = s_map(p)
    elif which != "plain":
        raise ValueError(f"unknown relation {which!r}")
    lhs = numeric_reg_poly(p, "sh")
    rhs = rho_apply(numeric_reg_poly(p, "ast"), "rho")
    return Report.numeric(f"rho-comparison-{which}", k, residuals(lhs, rhs), cfg.tolerance(TOL_RHO))


def compare_star_regs(k, cfg: EvalConfig = DEFAULT_CONFIG) -> Report:
    """Check that the integral-representation star regularisation equals
    rho_star o rho_inv of the contraction-sum shuffle regularisation, and
    that the correction kernel matches the sine series.
    """
    k = tuple(k)
    lhs = numeric_reg_poly(w_star(k), "sh")
    base = numeric_reg_poly(s_map(NcPoly.from_index(k)), "sh")
    rhs = rho_apply(rho_apply(base, "rho_inv"), "rho_star")
    resid = residuals(lhs, rhs)
    # correction kernel against the sine series, up to the degree in play
    for n in range(base.degree() + 1):
        got = rho_apply(rho_apply(NumericPolyT.monomial(n), "rho_inv"), "rho_star")
        resid.append(got.max_residual(sin_correction(n)))
    return Report.numeric("reg-star-compare", k, resid, cfg.tolerance(TOL_RHO))
