"""Numerics: Hölder values against a fixed-point enclosure and closed-form
oracles, the raw partial-sum kernel, and the t-adic and cyclic-sum layers."""

import itertools
import math
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from mzvkit import numeval
from mzvkit.indexes import indices_up_to, star_expand, star_invert
from mzvkit.linear import Combo
from mzvkit.numeval import (
    _WORKSPACE,
    EvalConfig,
    NumericValue,
    HOLDER_TERMS,
    _csf_terms,
    _hat_coeff,
    _holder_num,
    _outer_terms,
    _sum,
    _zeta_reg,
    mzv_num,
    raw_partial_sum,
    verify_csf,
    z_num,
    z_reg_num,
    zeta_hat_num,
    zeta_reg,
)
from mzvkit.polys import NcPoly, word_of_index
from mzvkit.regularize import RHO_KINDS, NumericPolyT, numeric_reg_poly, rho_apply
from mzvkit.tseries import w_csf_hat, w_star, w_star_hat
from mzvkit.words import harmonic, random_word, shuffle

FAST = EvalConfig(cutoff=20000)
Z3 = 1.2020569031595943  # literature value, used only as a sanity anchor


def test_numeric_value_arithmetic():
    a = NumericValue(2.0, 0.1)
    b = NumericValue(3.0, 0.2)
    m = a * b
    assert m.value == 6.0
    assert m.err == pytest.approx(2.0 * 0.2 + 3.0 * 0.1 + 0.02)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(cutoff=1)
    with pytest.raises(ValueError):
        EvalConfig(tol=-1.0)
    with pytest.raises(ValueError):
        EvalConfig(tol=float("nan"))
    with pytest.raises(ValueError):
        EvalConfig(tol=float("inf"))


def test_single_zeta_oracles():
    v = mzv_num((2,))
    assert abs(v.value - math.pi**2 / 6) < 1e-8
    assert v.err < 1e-9
    assert abs(mzv_num((4,)).value - math.pi**4 / 90) < 1e-10
    assert abs(mzv_num((3,)).value - Z3) < 1e-10


def test_depth_two_oracles():
    assert abs(mzv_num((1, 2)).value - mzv_num((3,)).value) < 1e-8
    assert abs(mzv_num((1, 2), star=True).value - 2 * mzv_num((3,)).value) < 1e-8
    # zeta(2,2) = pi^4/120, zeta(1,1,2) = zeta(4)
    assert abs(mzv_num((2, 2)).value - math.pi**4 / 120) < 1e-10
    assert abs(mzv_num((1, 1, 2)).value - math.pi**4 / 90) < 1e-10


def test_empty_and_divergent():
    assert mzv_num(()).value == 1.0
    with pytest.raises(ValueError):
        mzv_num((2, 1))
    with pytest.raises(ValueError):
        mzv_num((1,))


def test_star_is_contraction_sum():
    # the star value against the contraction sum of plain enclosures, a
    # route that shares no code with the contraction-sum word s_map
    for k in [(2,), (1, 2), (2, 2), (1, 1, 2), (2, 1, 2)]:
        _assert_enclosed(mzv_num(k, star=True), k, True)


def test_zig_zag_integral_equals_star_sum():
    # third route: the linear-extension word of the zig-zag poset evaluates
    # to the star value, within its reported error of the enclosure
    for k in indices_up_to(5):
        if k[-1] >= 2:
            _assert_enclosed(z_num(w_star(k)), k, True)


def test_monotone_cutoff_consistency():
    # |S(N) - S(2N)| must shrink at least like 2^(k_r - 1) up to slack 10
    for k in [(2,), (3,), (1, 2), (2, 2)]:
        d1 = abs(raw_partial_sum(k, N=4000) - raw_partial_sum(k, N=8000))
        d2 = abs(raw_partial_sum(k, N=8000) - raw_partial_sum(k, N=16000))
        assert d1 / d2 > 2 ** (k[-1] - 1) / 10, k


def test_raw_partial_sum_rejects_bad_cutoff():
    for N in (0, -5):
        with pytest.raises(ValueError):
            raw_partial_sum((2,), N=N)
    assert raw_partial_sum((2,), cfg=FAST) == raw_partial_sum((2,), N=FAST.cutoff)


def test_corrected_beats_raw():
    exact = math.pi**2 / 6
    raw = raw_partial_sum((2,), N=FAST.cutoff)
    assert abs(raw - exact) > 1e-6  # the plain cutoff alone is far off


def test_z_num_examples():
    assert z_num(NcPoly.from_str("yx")).value == mzv_num((2,)).value
    p = 2 * NcPoly.from_str("yxyx") + 4 * NcPoly.from_str("yyxx")
    assert abs(z_num(p).value - mzv_num((2,)).value ** 2) < 1e-6
    assert z_num(NcPoly.one()).value == 1.0
    with pytest.raises(ValueError):
        z_num(NcPoly.from_str("yy"))


def _bits(v: NumericValue) -> tuple[str, str]:
    return v.value.hex(), v.err.hex()


@pytest.mark.parametrize("scale", [1, Fraction(2, 7), 10**6], ids=["int", "fraction", "1e6"])
def test_z_num_depends_only_on_the_terms(scale):
    # a sum is exactly rounded, so every order of the same terms gives the
    # same value and error, bit for bit
    rng = random.Random(24)
    for _ in range(50):
        terms = list(
            {random_word(rng, 9, h0=True): scale * rng.choice([1, -1, 2, -3, 5]) for _ in range(12)}.items()
        )
        want = _bits(z_num(NcPoly(dict(terms))))
        for _ in range(10):
            rng.shuffle(terms)
            assert _bits(z_num(NcPoly(dict(terms)))) == want, terms


def test_ky_inv_sum_depends_only_on_the_terms():
    rng = random.Random(25)
    for k in indices_up_to(7):
        for e in range(3):
            terms = [(float(c), _hat_coeff(idx, "star_KY", e)) for idx, c in star_invert(k).terms.items()]
            want = _bits(_hat_coeff(k, "KY_inv", e))
            for _ in range(3):
                rng.shuffle(terms)
                assert _bits(_sum(terms)) == want, (k, e)


def test_csf_and_rho_sums_depend_only_on_the_terms(monkeypatch):
    # a cyclic-sum residual and a rho image read which terms a combination
    # holds, not the order its builder lists them in
    rng = random.Random(26)
    builders = {"mzsv": "csf_star_symbols", "tsmzsv": "csf_star_hat_symbols", "tsmzv_exact": "csf_symbols"}
    for which, name in builders.items():
        build = getattr(numeval, name)

        def shuffled(*args, build=build):
            terms = list(build(*args).terms.items())
            rng.shuffle(terms)
            return Combo(dict(terms))

        for k in indices_up_to(6):
            want = [r.hex() for r in verify_csf(which, k).residuals]
            monkeypatch.setattr(numeval, name, shuffled)
            for _ in range(3):
                assert [r.hex() for r in verify_csf(which, k).residuals] == want, (which, k)
            monkeypatch.setattr(numeval, name, build)
    for k in indices_up_to(6):
        terms = list(numeric_reg_poly(NcPoly.from_index(k), "ast").terms.items())
        for which in RHO_KINDS:
            want = {d: _bits(v) for d, v in rho_apply(NumericPolyT(dict(terms)), which).terms.items()}
            for _ in range(3):
                rng.shuffle(terms)
                got = rho_apply(NumericPolyT(dict(terms)), which)
                assert {d: _bits(v) for d, v in got.terms.items()} == want, (which, k)


def test_product_compatibility_random():
    rng = random.Random(41)
    for _ in range(15):
        a = NcPoly.from_word(random_word(rng, 5, h0=True))
        b = NcPoly.from_word(random_word(rng, 5, h0=True))
        va = z_num(a).value
        vb = z_num(b).value
        assert abs(z_num(harmonic(a, b)).value - va * vb) < 1e-6
        assert abs(z_num(shuffle(a, b)).value - va * vb) < 1e-6


def test_z_reg_num_examples():
    assert abs(z_reg_num(NcPoly.from_str("y"), "sh").value) < 1e-15
    v = z_reg_num(NcPoly.from_index((2, 1)), "ast")
    assert abs(v.value + 2 * mzv_num((3,)).value) < 1e-8
    adm = NcPoly.from_index((3,))
    assert z_reg_num(adm, "sh").value == z_num(adm).value


def test_z_reg_num_shuffle_runs_no_peel(monkeypatch):
    # the shuffle regularisation is read off its closed form; only the
    # harmonic product reaches regularize.decompose
    from mzvkit import regularize

    p = w_star((1, 2, 1))
    want = z_reg_num(p, "sh")

    def refuse(*args):
        raise AssertionError("decompose called")

    monkeypatch.setattr(regularize, "decompose", refuse)
    assert z_reg_num(p, "sh") == want
    with pytest.raises(AssertionError):
        z_reg_num(p, "ast")


def test_star_ky_products_match_regularised_words():
    # the star_KY coefficient, a sum of products of regularised star word
    # values, against the regularised value of the whole t^e coefficient of
    # the two-sided star word series, within the sum of their errors
    for k in indices_up_to(6):
        for e in range(3):
            got = zeta_hat_num(k, "star_KY", e).coefficient(e)
            want = z_reg_num(w_star_hat(k, e).coefficient(e), "sh")
            assert abs(got.value - want.value) <= got.err + want.err, (k, e, got, want)


def test_reg_known_value():
    # harmonic-regularised zeta(1,1) at T=0 is -zeta(2)/2... T^2/2 - zeta(2)/2
    v = zeta_reg((1, 1), "ast")
    assert abs(v.value + math.pi**2 / 12) < 1e-8


def test_zeta_reg_calls_share_one_cache_key():
    # the index is checked before the cache, so a list and a tuple of it
    # hit the same entry
    zeta_reg((1, 2), "sh", star=True)
    before = _zeta_reg.cache_info()
    assert zeta_reg([1, 2], "sh", star=True) == zeta_reg((1, 2), "sh", star=True)
    after = _zeta_reg.cache_info()
    assert (after.hits - before.hits, after.misses) == (2, before.misses)


def test_zeta_hat_examples():
    s = zeta_hat_num((2,), "star_KY", 1)
    assert abs(s.coefficient(0).value - 2 * mzv_num((2,)).value) < 1e-8
    for variant in ("ast", "sh", "star_ast", "star_sh", "star_KY", "KY_inv"):
        s = zeta_hat_num((), variant, 2)
        assert s.coefficient(0).value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        zeta_hat_num((2,), "nope", 1)


def test_depth_one_star_equals_plain():
    a = zeta_hat_num((1,), "sh", 2)
    b = zeta_hat_num((1,), "star_sh", 2)
    for e in range(3):
        assert abs(a.coefficient(e).value - b.coefficient(e).value) < 1e-10


def test_contraction_identity_for_hat_series():
    # star series = contraction sum of plain series, coefficientwise
    for k in indices_up_to(4):
        star = zeta_hat_num(k, "star_sh", 2)
        terms = star_expand(k).terms.items()
        for e in range(3):
            acc = sum(float(c) * zeta_hat_num(idx, "sh", 2).coefficient(e).value for idx, c in terms)
            assert abs(star.coefficient(e).value - acc) < 1e-6, (k, e)


def test_star_ky_inversion_pair():
    # KY_inv is defined so that its contraction sum gives back star_KY
    for k in [(2,), (1, 2), (1, 1)]:
        star = zeta_hat_num(k, "star_KY", 1)
        terms = star_expand(k).terms.items()
        for e in range(2):
            acc = sum(float(c) * zeta_hat_num(idx, "KY_inv", 1).coefficient(e).value for idx, c in terms)
            assert abs(star.coefficient(e).value - acc) < 1e-9


def test_verify_csf_mzsv_examples():
    rep = verify_csf("mzsv", (2,), cfg=FAST)
    assert rep.passed and rep.residuals[0] < 1e-6
    rep = verify_csf("mzsv", (1,), cfg=FAST)  # all-ones correction case
    assert rep.passed
    rep = verify_csf("mzsv", (1, 2), cfg=FAST)
    assert rep.passed


def test_verify_csf_tsmzsv_small():
    for k in [(1,), (2,), (1, 1)]:
        rep = verify_csf("tsmzsv", k, order=2, cfg=FAST)
        assert rep.passed, (k, rep.residuals)
        assert len(rep.residuals) == 3


def test_verify_csf_tsmzv_exact_small():
    for k in [(1,), (2,), (1, 1), (1, 2)]:
        rep = verify_csf("tsmzv_exact", k, order=2, cfg=FAST)
        assert rep.passed, (k, rep.residuals)


def test_verify_csf_rejects():
    with pytest.raises(ValueError):
        verify_csf("nope", (2,))
    with pytest.raises(ValueError):
        verify_csf("mzsv", ())
    for which in ("mzsv", "tsmzsv", "tsmzv_exact"):
        with pytest.raises(ValueError, match="order must be >= 0"):
            verify_csf(which, (1, 2), order=-1, cfg=FAST)


def test_pass_means_residual_within_tolerance():
    # the residual, ~4e-15, is within its error estimate but far above a
    # tolerance of 1e-18; the estimate must not turn that into a pass
    rep = verify_csf("tsmzsv", (1, 1, 1, 1), 2, EvalConfig(tol=1e-18))
    assert rep.tolerance == 1e-18
    assert max(rep.residuals) > rep.tolerance
    assert not rep.passed


def _exact_outer_terms(k, star, N):
    """The kernel's P(n)/n^{k_r}, n = 1..N, in Fraction arithmetic."""
    P = [Fraction(1)] * N
    for i, s in enumerate(k):
        P = [p / n**s for n, p in enumerate(P, start=1)]
        if i == len(k) - 1:
            return P
        partial = list(itertools.accumulate(P))
        P = partial if star else [Fraction(0)] + partial[:-1]


def _pow_outer_terms(k, star, N, dtype):
    """Reference kernel built on numpy powers ``n**s`` (pow per element)."""
    n = np.arange(1, N + 1, dtype=dtype)
    P = np.ones(N, dtype=dtype)
    for s in k[:-1]:
        c = np.cumsum(P / n**s)
        P = c if star else np.concatenate(([0.0], c[:-1])).astype(dtype)
    return P / n ** k[-1]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_kernel_against_exact_nested_sum(dtype):
    N, eps = 60, Fraction(float(np.finfo(dtype).eps))
    for depth in (1, 2, 3):
        for k in itertools.product(range(1, 7), repeat=depth):
            for star in (False, True):
                got = _outer_terms(k, star, N, dtype)
                for n, (g, e) in enumerate(zip(got, _exact_outer_terms(k, star, N)), 1):
                    exact_g = Fraction(*g.as_integer_ratio())
                    assert abs(exact_g - e) <= 8 * eps * e, (k, star, n)


def _alloc_outer_terms(k, star, N, dtype):
    """Reference kernel allocating its arrays per call: powers by repeated
    multiplication of a copy of n, P started from ones."""
    n = np.arange(1, N + 1, dtype=dtype)
    P = np.ones(N, dtype=dtype)
    pw = np.empty_like(n)
    for i, s in enumerate(k):
        np.copyto(pw, n)
        for _ in range(s - 1):
            pw *= n
        P /= pw
        if i == len(k) - 1:
            break
        np.cumsum(P, out=P)
        if not star:
            P[1:] = P[:-1]
            P[0] = 0.0
    return P


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_kernel_matches_allocating_kernel_bitwise(dtype):
    N = 10**5
    for depth in (1, 2, 3):
        for k in itertools.product(range(1, 9), repeat=depth):
            for star in (False, True):
                expected = _alloc_outer_terms(k, star, N, dtype)
                assert np.array_equal(_outer_terms(k, star, N, dtype), expected), (k, star)


def test_workspace_reuse_is_safe():
    calls = [((1, 3), N, dtype) for N in (1000, 3000) for dtype in (np.float64, np.longdouble)]
    fresh = {}
    for call in calls:
        _WORKSPACE.clear()
        fresh[call] = _outer_terms(call[0], False, *call[1:]).copy()
    for call in calls + calls[::-1] + calls[::2]:
        assert np.array_equal(_outer_terms(call[0], False, *call[1:]), fresh[call]), call
    assert len(_WORKSPACE) == 1
    assert sum(a.size for a in next(iter(_WORKSPACE.values()))) == 3 * calls[::2][-1][1]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_kernel_matches_pow_formula_bitwise_up_to_cubes(dtype):
    # n^2 and n^3 are exact integers at N = 10^5, so products and pow agree
    N = 10**5
    for depth in (1, 2, 3):
        for k in itertools.product(range(1, 4), repeat=depth):
            for star in (False, True):
                expected = _pow_outer_terms(k, star, N, dtype)
                assert np.array_equal(_outer_terms(k, star, N, dtype), expected), (k, star)


def _zeta_even(n):
    """zeta(2n) for n <= 6, as a rational multiple of pi^(2n)."""
    q = {1: Fraction(1, 6), 2: Fraction(1, 90), 3: Fraction(1, 945), 4: Fraction(1, 9450),
         5: Fraction(1, 93555), 6: Fraction(691, 638512875)}[n]
    return float(q) * math.pi ** (2 * n)


# zeta(3), zeta(5), zeta(7) to 20 digits; even values come from _zeta_even
_ZETA_ODD = {3: 1.2020569031595942854, 5: 1.0369277551433699263, 7: 1.0083492773819228268}


def _zeta(s):
    return _zeta_even(s // 2) if s % 2 == 0 else _ZETA_ODD[s]


# Closed forms in this library's ordering (the last entry is the outermost
# sum): (index, star, value).  None of them is computed by the kernel.
_ORACLES = (
    [((2,) * n, False, math.pi ** (2 * n) / math.factorial(2 * n + 1)) for n in range(1, 7)]
    + [((2,) * n, True, 2 * (1 - 2.0 ** (1 - 2 * n)) * _zeta_even(n)) for n in range(1, 7)]
    + [((1,) * (n - 1) + (2,), True, n * _zeta(n + 1)) for n in range(1, 7)]
    + [((1,) * (n - 1) + (2,), False, _zeta(n + 1)) for n in range(2, 7)]
    + [((1, 3) * n, False, 2 * math.pi ** (4 * n) / math.factorial(4 * n + 2)) for n in range(1, 4)]
)


@pytest.mark.parametrize(
    "k, star, value", _ORACLES, ids=[f"{'star' if s else 'plain'}{k}" for k, s, _ in _ORACLES]
)
def test_closed_form_oracles(k, star, value):
    v = mzv_num(k, star)
    assert abs(v.value - value) <= v.err <= 1e-13, (v, value)
    # the float closed form is a few roundings off its real value
    lo, hi = _enclosure(k, star)
    slack = 4 * Fraction(math.ulp(value))
    assert lo - slack <= Fraction(value) <= hi + slack, (float(lo), value)


ENCLOSURE_BITS = 128  # P: fraction bits of the fixed-point oracle


@cache
def _enclosure(k, star=False):
    """A proven enclosure [lo, hi] of zeta(k) or zeta*(k), as Fractions:
    Hölder convolution in integer fixed point with P fraction bits, in pure
    Python ints, sharing no code with numeval.

    The recurrences of numeval._integrate with every coefficient floored,
    so every computed quantity is at most its true value.  A letter step
    lowers each coefficient by less than 1 ulp (2^-P) more, so after j
    letters the value read at 1/2, with its M floors, is less than j + M
    ulps low, and a split's floored product less than w + 2M + 1; at the
    two end splits one factor is exactly 1, so the w + 1 products are less
    than (w+1)(w+2M) ulps low in all, as M > w.  Every coefficient and
    every value is at most 1, so cutting each series after M coefficients
    costs at most 2^-M per factor, 2(w+1) 2^-M in all.  Hence zeta(k) lies
    in [v, v + (w+1)(w+2M) 2^-P + 2(w+1) 2^-M].  A star value is the sum
    of the plain enclosures over the contractions of k.
    """
    if star:  # every contraction has a positive coefficient
        terms = star_expand(k).terms.items()
        return tuple(sum(c * _enclosure(idx)[end] for idx, c in terms) for end in (0, 1))
    P = ENCLOSURE_BITS
    word = "".join("x" * (s - 1) + "y" for s in reversed(k))
    w = len(word)
    M = P + 2 + (2 * (w + 1)).bit_length()

    def values(letters):
        c, out = [1 << P] + [0] * M, [1 << P]
        for a in letters:
            if a == "y":
                c = [0] + list(itertools.accumulate(c[:-1]))
            c = [0] + [cn // n for n, cn in enumerate(c[1:], 1)]
            out.append(sum(cn >> n for n, cn in enumerate(c)))
        return out

    suffix = values(reversed(word))[::-1]  # suffix[j]: the letters after a_j
    prefix = values("y" if a == "x" else "x" for a in word)  # tau(a_1...a_j)
    lo = Fraction(sum((p * q) >> P for p, q in zip(prefix, suffix)), 1 << P)
    return lo, lo + Fraction((w + 1) * (w + 2 * M), 1 << P) + Fraction(2 * (w + 1), 1 << M)


def _assert_enclosed(v, k, star):
    """v lies within its reported error of the enclosure of zeta(k)."""
    lo, hi = _enclosure(k, star)
    assert lo - Fraction(v.err) <= Fraction(v.value) <= hi + Fraction(v.err), (k, star, v)


_ADMISSIBLE_UP_TO_6 = [k for k in indices_up_to(6) if k and k[-1] >= 2]


def test_holder_lies_in_fixed_point_enclosure():
    # every admissible index of weight <= 8, plain and star
    for k in indices_up_to(8):
        if k and k[-1] >= 2:
            for star in (False, True):
                _assert_enclosed(mzv_num(k, star), k, star)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_holder_truncation_bound(dtype):
    # every coefficient is at most 1, so M terms leave a tail of at most
    # 2(w+1) 2^-M; at M = 20 that is large enough to be seen
    for k in _ADMISSIBLE_UP_TO_6:
        bound = 2 * (sum(k) + 1) * 2.0**-20
        short = _holder_num(word_of_index(k), 20, dtype)
        full = _holder_num(word_of_index(k), HOLDER_TERMS, dtype)
        assert abs(short.value - full.value) <= bound, k
        assert short.err >= bound


def test_reported_errors_are_honest():
    # the error estimate should bound the actual deviation on known values
    v = mzv_num((2,))
    assert abs(v.value - math.pi**2 / 6) <= v.err + 1e-12
    v = mzv_num((2, 2))
    assert abs(v.value - math.pi**4 / 120) <= v.err + 1e-12


# tsmzsv combinations written out by hand, {(index, t-power): coeff} at
# t-order 2: the splice sum over the rotations, minus the t-shifted tails
# (j + 1, rest, pivot) t^j, minus wt times (wt + 1).
_HAND_CSF_HAT = {
    (1,): {((2,), 0): -1, ((1, 1), 0): -1, ((2, 1), 1): -1, ((3, 1), 2): -1},
    (2,): {((3,), 0): -2, ((2, 2), 1): -1, ((3, 2), 2): -1},
    (3,): {((4,), 0): -3, ((2, 2), 0): 1, ((2, 3), 1): -1, ((3, 3), 2): -1},
    (1, 2): {
        ((4,), 0): -3,
        ((1, 2, 1), 0): -1,
        ((2, 2, 1), 1): -1,
        ((3, 2, 1), 2): -1,
        ((2, 1, 2), 1): -1,
        ((3, 1, 2), 2): -1,
    },
}


def test_word_and_numeric_csf_hat_agree():
    # The word series of the hatted star combination, regularised
    # coefficientwise, against the tsmzsv difference series without the
    # all-ones trace.  Both read csf_star_hat_symbols, so the weight <= 4
    # sweep checks that w_star_hat and star_KY agree and that both sides
    # shift and truncate alike; the hand-written combinations above check
    # the shared definition itself.
    for k, symbols in _HAND_CSF_HAT.items():
        words = w_csf_hat(k, 2)
        for e in range(3):
            numeric = sum(
                c * zeta_hat_num(idx, "star_KY", 2 - f).coefficient(e - f).value
                for (idx, f), c in symbols.items()
                if f <= e
            )
            exact = z_reg_num(words.coefficient(e), "sh").value
            assert abs(exact - numeric) <= 1e-9, (k, e)
    for k in indices_up_to(4):
        words = w_csf_hat(k, 2)
        numeric = _csf_terms("tsmzsv", k, 2)
        for e in range(3):
            exact = z_reg_num(words.coefficient(e), "sh").value
            assert abs(exact - _sum(numeric[e]).value) <= 1e-9, (k, e)
