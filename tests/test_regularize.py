"""Regularisation: decomposition round trips, T-polynomials, gamma maps."""

import math
import random
from fractions import Fraction

import pytest

from mzvkit.indexes import hat_symbols, indices_up_to
from mzvkit import numeval, regularize, words
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
from mzvkit.tseries import w_star, w_star_hat
from mzvkit.words import (
    NcPoly,
    harmonic,
    in_h1,
    index_of_word,
    random_ncpoly,
    random_word,
    reg_shuffle_constant,
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


def test_shuffle_power_of_y_is_n_factorial_y_to_the_n():
    # the closed form n! y^n is the oracle of the one recursion, which
    # recompose reads; y^(sh n) / n! is y^n with an int coefficient
    for n in range(9):
        y_n = (1 << (n + 1)) - 1
        assert y_product_power(n, "sh") == NcPoly({y_n: math.factorial(n)}), n
        unit = y_product_power(n, "sh") / math.factorial(n)
        assert list(unit.terms.items()) == [(y_n, 1)] and type(unit.terms[y_n]) is int, n
    with pytest.raises(ValueError, match="unknown product"):
        y_product_power(2, "nope")


def test_harmonic_power_of_y_is_the_z1_recursion():
    def z1_power(n: int) -> NcPoly:  # z_1 harmonic-multiplied with itself n times
        return NcPoly.one() if n == 0 else harmonic(z1_power(n - 1), z((1,)))

    for n in range(7):
        got = y_product_power(n, "ast")
        assert list(got.terms.items()) == list(z1_power(n).terms.items()), n
    # one definition: the word layer keeps no power of y of its own
    assert not hasattr(words, "harmonic_power_z1") and not hasattr(words, "y_power")


def peel_dividing_first(p: NcPoly, product: str) -> list[NcPoly]:
    """The earlier peel, kept as the reference: a_n = top / n! in
    Fractions, then subtract a_n * y^(*n)."""
    mul = shuffle if product == "sh" else harmonic
    out, rem = {}, p
    while rem:
        split = [(regularize.split_trailing(w), c) for w, c in rem.terms.items()]
        n = max(t for (_, t), _ in split)
        top = NcPoly({sw: Fraction(c) for (sw, t), c in split if t == n})
        out[n] = Fraction(1, math.factorial(n)) * top
        rem = rem - mul(out[n], y_product_power(n, product))
    return [out.get(i, NcPoly.zero()) for i in range(max(out, default=0) + 1)]


@pytest.mark.parametrize("product", ["sh", "ast"])
def test_unit_basis_peel_matches_dividing_first(product):
    rng = random.Random(57)
    polys = [random_ncpoly(rng, max_weight=7, max_terms=4, h1=True) for _ in range(40)]
    polys += [Fraction(2, 3) * p for p in polys[:10]]
    polys += [s_map(z(k)) for k in [(1, 1, 1), (2, 1, 1, 1), (1, 3, 1, 1)]]
    for p in polys:
        got, want = decompose(p, product), peel_dividing_first(p, product)
        assert got == want, str(p)


def test_shuffle_decompose_of_integral_poly_stays_integral():
    # the shuffle decomposition divides only by n! at T^n: a_0 and a_1 of
    # an integral polynomial are ints, and n! a_n is integral
    rng = random.Random(58)
    for _ in range(60):
        p = random_ncpoly(rng, max_weight=7, max_terms=4, h1=True)
        parts = decompose(p, "sh")
        for n, a in enumerate(parts):
            if n <= 1:
                assert all(type(c) is int for c in a.terms.values()), (str(p), n)
            assert all(Fraction(c * math.factorial(n)).denominator == 1 for c in a.terms.values())


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
    monkeypatch.setattr(regularize, "split_trailing", index_split_trailing)
    want = [decompose(p, "ast") for p in polys]
    for p, g, w in zip(polys, got, want):
        assert [list(a.terms.items()) for a in g] == [list(a.terms.items()) for a in w], str(p)


def test_decompose_is_unique():
    # two different-looking H0[y] combinations of the same element agree
    a = shuffle(z((2,)), NcPoly.from_str("y"))  # z2 sh y
    parts = decompose(a, "sh")
    assert recompose(parts, "sh") == a
    assert parts[1] == z((2,))  # the top coefficient is forced


def _peel(p: NcPoly) -> NcPoly:
    """The T^0 term of the reference peel, independent of the closed form."""
    return peel_dividing_first(p, "sh")[0]


def _check_closed_form(p: NcPoly) -> None:
    # every T-power of the closed form, through decompose and directly,
    # against the reference peel; and its T^0 term alone
    want = peel_dividing_first(p, "sh")
    assert decompose(p, "sh") == words.reg_shuffle(p) == want, str(p)
    assert reg_shuffle_constant(p) == want[0], str(p)


def test_shuffle_reg_closed_form_matches_peel():
    # the closed form against the peel, on every H1 word of weight <= 10
    for n in range(11):
        for bits in range(1 << n):
            w = (1 << n) | bits
            if in_h1(w):
                _check_closed_form(NcPoly.from_word(w))
    # and on Fraction combinations mixing H0 words, pure powers of y and
    # words with trailing y's, so that words of one trailing count collect
    rng = random.Random(61)
    for _ in range(200):
        p = NcPoly()
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            if kind == 0:
                w = random_word(rng, 8, h0=True)
            elif kind == 1:
                w = words.word("y" * rng.randint(1, 5))
            else:
                w = words.concat(random_word(rng, 6, h0=True), words.word("y" * rng.randint(1, 4)))
            p.add_terms([(w, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))])
        _check_closed_form(p)
    with pytest.raises(ValueError):
        reg_shuffle_constant(NcPoly.from_str("xy"))


def test_star_hat_regularises_as_products_of_star_words():
    # reg_sh at T = 0 is a shuffle homomorphism, so the regularised t^e
    # coefficient of w_star_hat(k) is the sum of the shuffles of the
    # regularised star words of its two-sided symbols: the link between
    # the word series and the star_KY values, which multiply those values
    for k in indices_up_to(7):
        for e in range(3):
            rhs = NcPoly()
            for ((head, tail), f), c in hat_symbols(k, e).terms.items():
                if f == e:
                    rhs.add_terms((c * shuffle(_peel(w_star(head)), _peel(w_star(tail)))).terms.items())
            assert _peel(w_star_hat(k, e).coefficient(e)) == rhs, (k, e)


def _trailing_y_derivative(p: NcPoly) -> NcPoly:
    """Delete one trailing y of each word; words ending in x go to 0."""
    out = NcPoly()
    for w, c in p.terms.items():
        s = words.word_str(w)
        if s.endswith("y"):
            out.add_terms([(words.word(s[:-1]), c)])
    return out


@pytest.mark.parametrize("product", ["sh", "ast"])
def test_trailing_y_deletion_is_a_derivation_and_d_by_dT(product):
    # deleting a trailing y is a derivation of either product that kills
    # H0 and sends y to 1, so under either regularisation it is d/dT: the
    # identity that the closed form's higher T-powers rest on, and a check
    # of the harmonic peel's higher powers
    mul = regularize.PRODUCTS[product]
    d = _trailing_y_derivative
    rng = random.Random(66)
    for _ in range(300):
        a = random_ncpoly(rng, max_weight=5, max_terms=3, h1=True)
        b = random_ncpoly(rng, max_weight=5, max_terms=3, h1=True)
        assert d(mul(a, b)) == mul(d(a), b) + mul(a, d(b)), (str(a), str(b))
        p = random_ncpoly(rng, max_weight=8, max_terms=4, h1=True)
        # a_j of d(p) is (j + 1) a_(j+1) of p
        want = [j * a for j, a in enumerate(decompose(p, product))][1:] or [NcPoly()]
        assert decompose(d(p), product) == want, str(p)


def test_shuffle_regularisation_runs_no_peel(monkeypatch):
    # decompose, reg_T and numeric_reg_poly read the closed form under
    # shuffle: none of them reaches the power of y or the product table
    p = w_star((1, 2, 1)) + s_map(z((1, 1, 1))) - Fraction(1, 3) * NcPoly.from_str("yyy")
    want = (decompose(p, "sh"), reg_T(p, "sh"), regularize.numeric_reg_poly(p, "sh"))
    power, product = regularize.y_product_power, regularize._product

    def refuse_power(n, prod):
        if prod == "sh":
            raise AssertionError("shuffle power of y called")
        return power(n, prod)

    def refuse_product(a, b, prod):
        if prod == "sh":
            raise AssertionError("shuffle product called")
        return product(a, b, prod)

    monkeypatch.setattr(regularize, "y_product_power", refuse_power)
    monkeypatch.setattr(regularize, "_product", refuse_product)
    assert (decompose(p, "sh"), reg_T(p, "sh"), regularize.numeric_reg_poly(p, "sh")) == want
    assert recompose(decompose(p, "ast"), "ast") == p  # the harmonic peel still runs
    with pytest.raises(AssertionError):
        recompose(want[0], "sh")


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
    a = a_coeffs(4)
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


@pytest.mark.parametrize("which", ["plain", "star"])
@pytest.mark.parametrize("k", [(0,), (1.5,)])
def test_rho_comparison_rejects_a_non_index(which, k):
    with pytest.raises(ValueError, match="not an index"):
        verify_reg_relation(which, k, FAST)


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
    # a_2 = zeta(2) / 2, exactly in floats, so it is mzv_num's value
    assert a_coeffs(6)[2] == numeval.mzv_num((2,)).value / 2
