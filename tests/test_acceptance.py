"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints one PASS line on success; tolerances are pinned here and
match the numbers in the package README.  The module-level caches make
the criteria share work, so running this file alone is the fastest way to
re-check the full gate.
"""

import math
import random

from mzvkit.indexes import (
    IndexCombo,
    all_cyclic_classes,
    cyclic_symmetrized_s_m,
    indices_up_to,
    star_invert,
    star_map,
    verify_index_identity,
)
from mzvkit.numeval import EvalConfig, mzv_num, verify_csf
from mzvkit.polys import NcPoly, word
from mzvkit.posets import disjoint_union, random_2poset, w_map, x_star
from mzvkit.regularize import (
    NumericPolyT,
    compare_star_regs,
    decompose,
    recompose,
    rho_apply,
    verify_reg_relation,
)
from mzvkit.tseries import abc_split, verify_class_csf_hat, verify_csf_hat
from mzvkit.words import harmonic, random_ncpoly, shuffle

FULL = EvalConfig(cutoff=10**6)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_csf_hat_exact_weight6_order3():
    for k in indices_up_to(6):
        rep = verify_csf_hat(k, 3)
        assert rep.equal, (k, str(rep.diff()))
    _report(1, "hatted cyclic-sum expansion exact for all weights <= 6 at order 3")


def test_criterion_02_class_expansion_and_abc():
    for al in all_cyclic_classes(6):
        assert verify_class_csf_hat(al, 3).equal, str(al)
    for al in all_cyclic_classes(5):
        parts = abc_split(al, 3)
        assert parts.all_ok, str(al)
    _report(2, "class expansion weight <= 6 and A/B/C lemmas weight <= 5, order 3")


def test_criterion_03_index_identities():
    for k in indices_up_to(8):
        assert star_map(star_invert(k)) == IndexCombo.of(k), k
    for k in indices_up_to(7):
        assert verify_index_identity("lemma112", k).equal, k
        for j in range(5):
            assert verify_index_identity("prop1", k, j=j).equal, (k, j)
        assert verify_index_identity("prop2", k).equal, k
        assert verify_index_identity("prop3", k).equal, k
        assert verify_index_identity("csf_reduction", k, t_order=2).equal, k
        for m in range(len(k)):
            assert cyclic_symmetrized_s_m(k, m, "first") == cyclic_symmetrized_s_m(
                k, m, "last"
            ), (k, m)
    _report(3, "star inversion w<=8; lemma112/prop1..3/csf_reduction w<=7; policy washout")


def test_criterion_04_poset_laws():
    rng = random.Random(0xACCE)
    for _ in range(200):
        a = random_2poset(rng, 1, 4, admissible=True)
        b = random_2poset(rng, 1, 4, admissible=True)
        assert w_map(disjoint_union(a, b)) == shuffle(w_map(a), w_map(b))
    done = 0
    while done < 200:
        p = random_2poset(rng, 2, 8)
        pairs = [
            (x, y) for x in range(p.n) for y in range(x + 1, p.n) if not p.comparable(x, y)
        ]
        if not pairs:
            continue
        x, y = rng.choice(pairs)
        assert w_map(p) == w_map(p.with_relation(x, y)) + w_map(p.with_relation(y, x))
        done += 1
    from math import comb

    from mzvkit.posets import check_shifting, double_chain

    for c in range(0, 7):
        for d in range(0, 7 - c):
            assert w_map(double_chain(c, d)) == comb(c + d, c) * w_map(
                double_chain(c + d, 0)
            )
    for kk in range(1, 5):
        assert check_shifting(kk, 3), kk
    for kk in range(1, 9):
        assert w_map(x_star((kk,))) == NcPoly.from_index((kk,))
    assert w_map(x_star((2, 2))) == NcPoly({word("yxyx"): 1, word("yyxx"): 4})
    _report(4, "W-homomorphism/W2 x200, chain collapse, shifting, chains, (2,2)")


def test_criterion_05_product_laws_and_decompose():
    rng = random.Random(0xA15E)
    for _ in range(500):
        a = random_ncpoly(rng, 8, h1=True)
        b = random_ncpoly(rng, 8, h1=True)
        assert shuffle(a, b) == shuffle(b, a)
        assert harmonic(a, b) == harmonic(b, a)
        c = random_ncpoly(rng, 4, h1=True)
        d = random_ncpoly(rng, 4, h1=True)
        e = random_ncpoly(rng, 4, h1=True)
        assert shuffle(shuffle(c, d), e) == shuffle(c, shuffle(d, e))
        assert harmonic(harmonic(c, d), e) == harmonic(c, harmonic(d, e))
    for _ in range(200):
        p = random_ncpoly(rng, 7, max_terms=3, h1=True)
        for product in ("sh", "ast"):
            assert recompose(decompose(p, product), product) == p, (str(p), product)
    _report(5, "500 commutativity/associativity pairs+triples, 200 decompose round trips")


def test_criterion_06_numeric_oracles():
    v2 = mzv_num((2,), cfg=FULL)
    assert abs(v2.value - math.pi**2 / 6) < 1e-8
    v12 = mzv_num((1, 2), cfg=FULL)
    v3 = mzv_num((3,), cfg=FULL)
    assert abs(v12.value - v3.value) < 1e-8
    vs = mzv_num((1, 2), star=True, cfg=FULL)
    assert abs(vs.value - 2 * v3.value) < 1e-8
    _report(6, "pi^2/6, depth-2 reduction and star double at N = 10^6")


def test_criterion_07_csf_mzsv_weight5():
    for k in indices_up_to(5):
        rep = verify_csf("mzsv", k, cfg=FULL)
        assert rep.passed and max(rep.residuals) < 1e-6, (k, rep.residuals)
    _report(7, "star cyclic sum formula, residual < 1e-6 for all weights <= 5")


def test_criterion_08_csf_tsmzsv_weight4():
    for k in indices_up_to(4):
        rep = verify_csf("tsmzsv", k, order=2, cfg=FULL)
        assert rep.passed and max(rep.residuals) < 1e-5, (k, rep.residuals)
    _report(8, "t-adic star cyclic sum formula, t^0..t^2 residual < 1e-5, weights <= 4")


def test_criterion_09_regularization_comparisons():
    for k in indices_up_to(5):
        rep = verify_reg_relation("plain", k, FULL)
        assert rep.passed and max(rep.residuals) < 1e-6, (k, rep.residuals)
        rep = verify_reg_relation("star", k, FULL)
        assert rep.passed and max(rep.residuals) < 1e-6, (k, rep.residuals)
        rep = compare_star_regs(k, FULL)
        assert rep.passed and max(rep.residuals) < 1e-6, (k, rep.residuals)
    for n in range(7):
        got = rho_apply(rho_apply(NumericPolyT.monomial(n), "rho_inv"), "rho_star")
        assert abs(got.coefficient(n).value - 1.0) < 1e-9
        if n >= 1:
            assert abs(got.coefficient(n - 1).value) < 1e-9
    _report(9, "shuffle = rho(harmonic), star comparison w<=5 at 1e-6; kernel zeros at 1e-9")


def test_criterion_10_csf_tsmzv_exact_weight4():
    for k in indices_up_to(4):
        rep = verify_csf("tsmzv_exact", k, order=2, cfg=FULL)
        assert rep.passed and max(rep.residuals) < 1e-5, (k, rep.residuals)
    # the all-ones trace term is tested against its closed form explicitly
    for r in range(1, 5):
        k = (1,) * r
        rep = verify_csf("tsmzv_exact", k, order=2, cfg=FULL)
        assert rep.passed, (k, rep.residuals)
    _report(10, "derived exact t-adic cyclic sum surrogate, weights <= 4 at 1e-5")
