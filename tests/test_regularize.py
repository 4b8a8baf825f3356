"""Regularisation: decomposition round trips, T-polynomials, gamma maps."""

import math
import random
from fractions import Fraction

import pytest

from mzvkit.indexes import indices_up_to
from mzvkit import numeval, regularize
from mzvkit.cli import build_cases, make_parser
from mzvkit.numeval import EvalConfig
from mzvkit.regularize import (
    NumericPolyT,
    a_coeffs,
    compare_star_regs,
    decompose,
    recompose,
    reg_T,
    rho_apply,
    rho_coeffs,
    sin_correction,
    verify_reg_relation,
    y_product_power,
)
from mzvkit.words import (
    NcPoly,
    harmonic,
    index_of_word,
    random_ncpoly,
    s_map,
    shuffle,
    word_of_index,
)

z = NcPoly.from_index

FAST = EvalConfig(cutoff=20000)


def test_decompose_shuffle_examples():
    parts = decompose(NcPoly.from_str("y"), "sh")
    assert parts[0] == NcPoly.zero() and parts[1] == NcPoly.one()
    parts = decompose(NcPoly.from_str("yx"), "sh")
    assert parts == [NcPoly.from_str("yx")]


def test_decompose_harmonic_example():
    parts = decompose(z((2, 1)), "ast")
    assert parts[1] == z((2,))
    assert parts[0] == -1 * (z((1, 2)) + z((3,)))


def test_decompose_validates():
    with pytest.raises(ValueError):
        decompose(NcPoly.from_str("xy"), "sh")
    with pytest.raises(ValueError):
        decompose(NcPoly.from_str("y"), "nope")


def test_product_powers_of_y():
    assert y_product_power(2, "sh") == 2 * NcPoly.from_str("yy")
    assert y_product_power(2, "ast") == 2 * z((1, 1)) + z((2,))
    assert y_product_power(0, "ast") == NcPoly.one()


@pytest.mark.parametrize("product", ["sh", "ast"])
def test_round_trip_random(product):
    rng = random.Random(31)
    for _ in range(100):
        p = random_ncpoly(rng, max_weight=7, max_terms=3, h1=True)
        parts = decompose(p, product)
        assert all(a.is_h0() for a in parts), (str(p), product)
        assert recompose(parts, product) == p, (str(p), product)


def index_split_trailing(w: int) -> tuple[int, int]:
    """The previous harmonic split, kept verbatim as the reference: strip
    the trailing 1 entries of the word's index."""
    k = index_of_word(w)
    t = 0
    while t < len(k) and k[len(k) - 1 - t] == 1:
        t += 1
    return word_of_index(k[: len(k) - t]), t


def test_decompose_ast_matches_index_split(monkeypatch):
    rng = random.Random(44)
    polys = [random_ncpoly(rng, max_weight=7, max_terms=4, h1=True) for _ in range(40)]
    polys += [Fraction(3, 4) * p for p in polys[:10]]
    polys += [s_map(z(k)) for k in [(1,), (2, 1), (1, 1, 1), (2, 1, 1, 1), (1, 3, 1, 1)]]
    got = [decompose(p, "ast") for p in polys]
    monkeypatch.setattr(regularize, "_split_trailing", index_split_trailing)
    want = [decompose(p, "ast") for p in polys]
    for p, g, w in zip(polys, got, want):
        assert [list(a.terms.items()) for a in g] == [list(a.terms.items()) for a in w], str(p)


def test_decompose_is_unique():
    # two different-looking H0[y] combinations of the same element agree
    a = shuffle(z((2,)), NcPoly.from_str("y"))  # z2 sh y
    parts = decompose(a, "sh")
    assert recompose(parts, "sh") == a
    assert parts[1] == z((2,))  # the top coefficient is forced


def test_reg_T_examples():
    rp = reg_T(NcPoly.from_str("y"), "sh")
    assert rp.coefficient(1) == NcPoly.one()
    assert rp.coefficient(0) == NcPoly.zero()
    admissible = z((3, 2))
    assert reg_T(admissible, "ast").coeffs == {0: admissible}
    rp = reg_T(z((2, 1)), "ast")
    assert rp.coefficient(1) == z((2,))
    assert rp.coefficient(0) == -1 * (z((1, 2)) + z((3,)))
    assert str(reg_T(NcPoly.from_str("yy"), "sh")) == "(1/2*1)*T^2"


def test_a_coeffs_first_values():
    a = a_coeffs(4, zeta_source=lambda n: {2: math.pi**2 / 6, 3: 1.2020569031595943, 4: math.pi**4 / 90}[n])
    assert a[0] == 1.0
    assert a[1] == 0.0
    assert abs(a[2] - 0.8224670334241132) < 1e-12
    # degree 3: c3 = -zeta(3)/3
    assert abs(a[3] + 1.2020569031595943 / 3) < 1e-12


def test_rho_examples():
    r = rho_apply(NumericPolyT.monomial(1), "rho")
    assert abs(r.coefficient(1).value - 1) < 1e-14
    assert abs(r.coefficient(0).value) < 1e-14
    r = rho_apply(NumericPolyT.monomial(2), "rho")
    assert abs(r.coefficient(0).value - math.pi**2 / 6) < 1e-10
    r = rho_apply(NumericPolyT.monomial(0), "rho_star")
    assert abs(r.coefficient(0).value - 1) < 1e-14


def test_rho_inverse_pairs():
    for n in range(7):
        p = NumericPolyT.monomial(n)
        for a, b in (("rho_inv", "rho"), ("rho_star_inv", "rho_star")):
            got = rho_apply(rho_apply(p, a), b)
            for i in range(n + 1):
                want = 1.0 if i == n else 0.0
                assert abs(got.coefficient(i).value - want) < 1e-9, (n, a, i)


def test_rho_star_correction_structure():
    for n in range(7):
        got = rho_apply(rho_apply(NumericPolyT.monomial(n), "rho_inv"), "rho_star")
        assert abs(got.coefficient(n).value - 1.0) < 1e-9
        if n >= 1:
            assert abs(got.coefficient(n - 1).value) < 1e-9
        assert got.max_residual(sin_correction(n)) < 1e-9


def test_rho_coeffs_reject_unknown():
    with pytest.raises(ValueError):
        rho_coeffs("sigma", 3)


def test_rho_comparisons_small():
    for k in indices_up_to(4):
        assert verify_reg_relation("plain", k, FAST).passed, k
        assert verify_reg_relation("star", k, FAST).passed, k


def test_star_comparison_small():
    for k in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]:
        rep = compare_star_regs(k, FAST)
        assert rep.passed, (k, rep.residuals)


def test_star_comparison_depth_one_is_exactly_t():
    # weight-one index: both regularisations are the plain variable
    rep = compare_star_regs((1,), FAST)
    assert max(rep.residuals) < 1e-12


def test_reg_pass_means_residual_within_printed_tol():
    # these rows have rounding-level residuals; at a tolerance of 1e-18 an
    # error estimate of that size must not turn them into passes
    cfg = EvalConfig(tol=1e-18)
    for rep in (compare_star_regs((1, 1, 1), cfg), verify_reg_relation("plain", (1, 1, 1), cfg)):
        assert rep.tolerance == 1e-18
        assert max(rep.residuals) > rep.tolerance, rep.identity
        assert not rep.passed, rep.identity


def test_rho_maps_draw_single_zetas_through_mzv_num(monkeypatch):
    # the rho maps of the regularization suite take zeta(2)..zeta(6) from
    # mzv_num's word-keyed cache, not from a source of their own
    cache = {}
    monkeypatch.setattr(numeval, "_MZV_CACHE", cache)
    args = make_parser().parse_args(["--suite", "regularization", "--cases", "1"])
    for name, case in build_cases(args, EvalConfig()):
        if name in ("rho-inverse-pairs", "rho-star-correction"):
            assert case().passed, name
    assert set(cache) == {(word_of_index((n,)), False) for n in range(2, 7)}
    assert a_coeffs(6) == a_coeffs(6, lambda n: numeval.mzv_num((n,)).value)
