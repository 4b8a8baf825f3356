"""Truncated word series and the exact cyclic-sum expansions."""

from functools import partial

import numpy as np
import pytest

from mzvkit import posets, tseries
from mzvkit.indexes import CyclicClass, all_cyclic_classes, indices_up_to, shift_symbols
from mzvkit.linear import Combo
from mzvkit.numeval import VARIANTS, zeta_hat_num
from mzvkit.polys import GradedPoly, _grade_words
from mzvkit.tseries import (
    WordSeries,
    abc_split,
    class_csf,
    class_csf_hat,
    f_series,
    verify_class_csf_hat,
    verify_csf_hat,
    w_csf,
    w_csf_hat,
    w_star,
    w_star_hat,
    x_star_hat,
)
from mzvkit.words import NcPoly, shuffle, weight, word_str


z = NcPoly.from_index


def test_series_arithmetic():
    a = WordSeries(2, {0: z((2,)), 1: z((3,))})
    b = WordSeries(2, {1: z((3,))})
    assert (a - b).coeffs == {0: z((2,))}
    assert a.shift(1).order == 3
    assert a.shift(1).coefficient(1) == z((2,))
    assert (2 * a).coefficient(1) == 2 * z((3,))
    assert a.truncate(0).coeffs == {0: z((2,))}
    with pytest.raises(ValueError):
        WordSeries(-1)


def test_f_series_examples():
    assert f_series((), 3) == WordSeries(3, {0: NcPoly.one()})
    assert f_series((1,), 2).coefficient(0) == -1 * z((1,))
    assert f_series((2,), 2).coefficient(1) == 2 * z((3,))


def test_f_series_reverses_arguments():
    # t^0 term of F((1,2)) is (-1)^3 w_star((2,1))
    got = f_series((1, 2), 0).coefficient(0)
    assert got == -1 * w_star((2, 1))


def test_w_star_hat_examples():
    s = w_star_hat((2,), 2)
    assert s.coefficient(0) == 2 * z((2,))
    s = w_star_hat((1,), 2)
    assert s.coefficient(0) == NcPoly.zero()
    assert s.coefficient(1) == -1 * z((2,))
    assert w_star_hat((), 3) == WordSeries.one(3)


def test_w_star_hat_matches_poset_route():
    for k in indices_up_to(5):
        for n in (0, 1, 2):
            assert w_star_hat(k, n) == x_star_hat(k, n).w_image(), (k, n)


def test_w_star_hat_weight_homogeneous():
    for k in indices_up_to(5):
        s = w_star_hat(k, 3)
        for e, p in s.coeffs.items():
            assert {weight(w) for w in p.terms} == {sum(k) + e}, (k, e)


def test_w_csf_examples():
    assert w_csf((1,)) == -1 * z((2,))
    assert w_csf((2,)) == 2 * NcPoly.from_str("yyx") - 2 * NcPoly.from_str("yxx")
    for r in range(1, 6):
        assert w_csf((1,) * r) == -r * z((r + 1,))
    with pytest.raises(ValueError):
        w_csf(())


@pytest.mark.parametrize(
    "build, k", [(f_series, (0,)), (w_star_hat, (0, 2)), (x_star_hat, (1.5,))]
)
def test_star_series_reject_a_non_index(build, k):
    with pytest.raises(ValueError, match="not an index"):
        build(k, 1)


def test_w_csf_lands_in_h0():
    for k in indices_up_to(6):
        assert w_csf(k).is_h0(), k


def test_w_csf_hat_t0_consistency():
    # depth-one, weight-one case: the t^0 coefficient doubles the plain one
    got = w_csf_hat((1,), 2).coefficient(0)
    assert got == 2 * w_csf((1,))
    with pytest.raises(ValueError):
        w_csf_hat((), 1)


def test_csf_hat_expansion_weight_5():
    for k in indices_up_to(5):
        rep = verify_csf_hat(k, 2)
        assert rep.equal, (k, str(rep.diff()))


def test_class_expansion_weight_5():
    for al in all_cyclic_classes(5):
        assert verify_class_csf_hat(al, 2).equal, str(al)


def test_class_csf_matches_rotation_multiplicity():
    # on a rotation-free class, summing members over the last entry equals
    # the full per-index rotation sum (up to the weight term)
    al = CyclicClass.of((1, 2))
    assert class_csf(al) == w_csf((1, 2)) + 3 * w_star((4,))


def test_abc_split_examples():
    for al in (CyclicClass.of((1,)), CyclicClass.of((2,)), CyclicClass.of((1, 2))):
        parts = abc_split(al, 2)
        assert parts.all_ok, str(al)
    # degenerate class [(1)]: the splice range is empty
    parts = abc_split(CyclicClass.of((1,)), 2)
    assert not parts.B.coeffs


def test_abc_b_equals_class_csf():
    for al in all_cyclic_classes(4):
        parts = abc_split(al, 2)
        assert parts.checks["B-vs-class-csf"].equal, str(al)


def test_symbol_sums_change_no_value_they_read():
    p, q = z((2,)), z((3,))
    values = {1: WordSeries.from_poly(p, 2), 2: WordSeries(2, {0: q, 1: q}), 3: WordSeries.from_poly(p, 2)}

    def value(k, f):
        return values[k].coefficient(f)

    s = tseries._symbol_sum([(Combo({(1, 0): 1, (2, 0): 2, (2, 3): 1}), value)], 2)
    assert s == WordSeries(2, {0: z((2,)) + 2 * z((3,)), 1: 2 * z((3,))})
    assert p == z((2,)) and q == z((3,))
    assert values[1] == WordSeries.from_poly(z((2,)), 2) and values[2] == WordSeries(2, {0: q, 1: q})
    # a power whose sum cancels is dropped
    s = tseries._symbol_sum([(Combo({(1, 0): 1, (2, 1): 1}), value), (Combo({(3, 0): -1}), value)], 2)
    assert s == WordSeries(2, {1: z((3,)), 2: z((3,))}) and list(s.coeffs) == [1, 2]


def test_symbol_sum_evaluates_each_symbol_shifted_and_truncated():
    calls = []

    def value(key, f):
        # the t^f coefficient of one series per key, given at every f, so
        # the powers past order - e must not be read
        calls.append((key, f))
        return key * z((f + 2,))

    symbols = Combo({(1, 0): 3, (2, 1): -1, (5, 3): 7})
    s = tseries._symbol_sum([(symbols, value), (Combo({(1, 2): 1}), value)], 2)
    # f <= order - e per symbol; t^3 > order is skipped
    assert calls == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (1, 0)]
    want = {
        0: 3 * z((2,)),
        1: 3 * z((3,)) - 2 * z((2,)),
        2: 3 * z((4,)) - 2 * z((3,)) + z((2,)),
    }
    assert s == WordSeries(2, want)


def _copy_and_add_f_series(k, order):
    return WordSeries(order).add_terms(
        (e, c * w_star(idx)) for (idx, e), c in shift_symbols(k, order).terms.items()
    )


def _copy_and_add_w_star_hat(k, order):
    acc = WordSeries(order)
    for i in range(len(k) + 1):
        acc.add_terms((e, shuffle(w_star(k[:i]), q)) for e, q in f_series(k[i:], order).terms.items())
    return acc


def test_word_series_sums_leave_cached_values_unchanged():
    classes = [al for al in all_cyclic_classes(5) if al.weight == 5]
    for al in classes:
        assert verify_csf_hat(al.representative, 2).equal
        assert verify_class_csf_hat(al, 2).equal
        assert abc_split(al, 2).all_ok
    # the coefficients the sums left cached, read at every key they can touch:
    # the spliced indices have weight 6 and are read up to t^2, and the
    # t-shifted tails (j + 1, rest, p) have weight 6 + j and are read up to
    # t^(2 - j), so every (k, e) with wt(k) + e <= 8 and e <= 2, suffixes
    # included
    top = {k: min(2, 8 - sum(k)) for k in indices_up_to(8)}
    keys = [(k, e) for k, order in top.items() for e in range(order + 1)]
    builders = (tseries._f_coeff, tseries._star_hat_coeff)
    hits = [f.cache_info().hits for f in builders]
    held = {f: {key: f(*key) for key in keys} for f in builders}
    assert all(f.cache_info().hits > h for f, h in zip(builders, hits))
    held_w_star = dict(tseries._W_STAR_CACHE)
    for f in builders:
        f.cache_clear()
    tseries._W_STAR_CACHE.clear()
    for key, p in held_w_star.items():
        assert p == w_star(key), key
    for f in builders:
        for key, p in held[f].items():
            assert p == f(*key), (f.__name__, key)
    # an F-series and a two-sided star coefficient have the value that a
    # copy per term gives
    for k, order in top.items():
        f, hat = _copy_and_add_f_series(k, order), _copy_and_add_w_star_hat(k, order)
        for e in range(order + 1):
            assert held[tseries._f_coeff][k, e] == f.coefficient(e), (k, e)
            assert held[tseries._star_hat_coeff][k, e] == hat.coefficient(e), (k, e)


def test_star_word_sums_leave_cached_vectors_unchanged():
    # every index the sums below read: spliced weight-6 indices shifted up to t^2
    ks = [(), *indices_up_to(8)]
    vecs = {k: posets._zigzag_vec(k) for k in ks}
    held = {k: v.copy() for k, v in vecs.items()}
    stars = {k: dict(w_star(k).terms) for k in ks}
    tseries._f_coeff.cache_clear()
    tseries._star_hat_coeff.cache_clear()
    for al in (al for al in all_cyclic_classes(5) if al.weight == 5):
        k = al.representative
        for e in range(3):
            tseries._f_coeff(k, e)
        assert tseries._star_words(shift_symbols(k, 2) + shift_symbols(k[::-1], 1), 2)
        assert verify_csf_hat(k, 2).equal
        assert abc_split(al, 2).all_ok
    for k in ks:
        assert posets._zigzag_vec(k) is vecs[k], k
        assert np.array_equal(vecs[k], held[k]) and not vecs[k].flags.writeable, k
        assert w_star(k).terms == stars[k], k
        with pytest.raises(ValueError):
            vecs[k][:] = 0


def test_star_words_match_the_cross_relation_recursion():
    # inclusion-exclusion over the cross relations y_(i-1) < t_i of the
    # zig-zag of k = (k_1..k_r): breaking one puts chain i entirely below
    # chain i - 1, so S(k) = sum_i (-1)^(r-1-i) S(k_1..k_i) sh z_(k_r)..z_(k_(i+1)),
    # S(()) = 1, built from shuffles of plain index words alone
    S = {(): NcPoly.one()}

    def star(k):
        if k not in S:
            r = len(k)
            S[k] = sum(
                ((-1) ** (r - 1 - i) * shuffle(star(k[:i]), z(k[i:][::-1])) for i in range(r)),
                NcPoly(),
            )
        return S[k]

    ks = indices_up_to(8)
    assert len(ks) == 255
    for k in ks:
        assert star(k) == w_star(k), k


def test_star_hat_coefficients_are_the_sums_of_their_split_shuffles():
    keys = [(k, e) for k in indices_up_to(7) if k for e in range(3)]
    assert len(keys) == 381
    for k, e in keys:
        want = NcPoly()
        for i in range(len(k) + 1):
            want = want + shuffle(w_star(k[:i]), tseries._f_coeff(k[i:], e))
        assert tseries._star_hat_coeff(k, e) == want, (k, e)


def test_series_coefficients_are_shared_across_orders():
    # a t^e coefficient is built once per (index, e), whatever the order
    series = [f_series, w_star_hat] + [partial(zeta_hat_num, variant=v) for v in VARIANTS]
    for build in series:
        for k in ((2,), (1, 2), (2, 1), (1, 1, 2), (2, 1, 3)):
            low, high = build(k, order=1), build(k, order=2)
            for e in (0, 1):
                assert low.coefficient(e) is high.coefficient(e), (build, k, e)


def _plain(p: NcPoly) -> NcPoly:
    """p as a plain NcPoly, so that products of it take the dict path."""
    return NcPoly(p.terms)


def test_star_hat_vectors_match_the_dict_route_up_to_weight_6():
    # every index of weight <= 6 at t-order 2: each graded coefficient is
    # the sum of its split shuffles taken on plain polys, the series is
    # the poset route's, and every check of the index and its class holds
    for k in indices_up_to(6):
        hat = w_star_hat(k, 2)
        for e in range(3):
            want = NcPoly()
            for i in range(len(k) + 1):
                want = want + shuffle(_plain(w_star(k[:i])), _plain(tseries._f_coeff(k[i:], e)))
            got = hat.coefficient(e)
            assert got == want and got.terms == want.terms, (k, e)
        assert hat == x_star_hat(k, 2).w_image(), k
        assert verify_csf_hat(k, 2).equal, k
    for al in all_cyclic_classes(6):
        assert verify_class_csf_hat(al, 2).equal, str(al)
        assert abc_split(al, 2).all_ok, str(al)


def test_cached_star_vectors_are_read_only():
    k = (2, 1, 3)
    cached = [w_star(k), tseries._f_coeff(k, 2), tseries._star_hat_coeff(k, 1)]
    for p in cached:
        assert p.grades
        for vec in p.grades.values():
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] += 1
        with pytest.raises(TypeError):
            p.add_terms([(1, 1)])
    assert tseries._star_hat_coeff(k, 1) is cached[2]


def test_a_changed_hat_coefficient_fails_the_check_and_names_its_word(monkeypatch):
    # one more of one word in one cached hat coefficient that the hatted
    # sum of (1, 2, 2) reads, with the symbol coefficient c: the check
    # fails and its difference is c times that word at that t-power
    k, order = (1, 2, 2), 2
    symbols = tseries.csf_star_hat_symbols(k, order).terms
    (key, e0), c = next(((key, e0), c) for (key, e0), c in symbols.items() if e0 == 0)
    cached = tseries._star_hat_coeff
    ((grade, vec),) = cached(key, 1).grades.items()
    changed = vec.copy()
    changed[3] += 1
    assert verify_csf_hat(k, order).equal

    def hat(k2, f):
        return GradedPoly({grade: changed}) if (k2, f) == (key, 1) else cached(k2, f)

    monkeypatch.setattr(tseries, "_star_hat_coeff", hat)
    rep = verify_csf_hat(k, order)
    assert not rep.equal
    assert list(rep.diff_terms()) == [(f"t^1:{word_str(_grade_words(*grade)[3])}", c)]
