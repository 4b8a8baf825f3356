"""Truncated word series and the exact cyclic-sum expansions."""

import pytest

from mzvkit import tseries
from mzvkit.indexes import CyclicClass, all_cyclic_classes, indices_up_to, shift_symbols
from mzvkit.tseries import (
    WordSeries,
    abc_split,
    class_csf,
    class_csf_hat,
    f_series,
    poly_shuffle_series,
    verify_class_csf_hat,
    verify_csf_hat,
    w_csf,
    w_csf_hat,
    w_star,
    w_star_hat,
    x_star_hat,
)
from mzvkit.words import NcPoly, weight


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


def test_add_scaled_changes_no_poly_it_reads():
    p, q = z((2,)), z((3,))
    s = WordSeries.from_poly(p, 2)
    s.add_scaled([(0, 2, q), (1, 1, q), (3, 1, q)])
    assert s == WordSeries(2, {0: z((2,)) + 2 * z((3,)), 1: z((3,))})
    assert p == z((2,)) and q == z((3,))
    # a power whose sum cancels is dropped and comes back last
    s.add_scaled([(0, -1, p), (0, -2, q), (0, 1, p)])
    assert list(s.coeffs) == [1, 0] and s.coefficient(0) == z((2,))


def _items(series):
    """Every t-power with its words in order."""
    return [(e, list(p.terms.items())) for e, p in series.terms.items()]


def _copy_and_add_f_series(k, order):
    return WordSeries(order).add_terms(
        (e, c * w_star(idx)) for (idx, e), c in shift_symbols(k, order).terms.items()
    )


def _copy_and_add_w_star_hat(k, order):
    acc = WordSeries(order)
    for i in range(len(k) + 1):
        acc.add_terms(poly_shuffle_series(w_star(k[:i]), f_series(k[i:], order)).terms.items())
    return acc


def test_word_series_sums_leave_cached_values_unchanged():
    classes = [al for al in all_cyclic_classes(5) if al.weight == 5]
    for al in classes:
        assert verify_csf_hat(al.representative, 2).equal
        assert verify_class_csf_hat(al, 2).equal
        assert abc_split(al, 2).all_ok
    caches = {
        w_star: tseries._W_STAR_CACHE,
        f_series: tseries._F_CACHE,
        w_star_hat: tseries._W_STAR_HAT_CACHE,
    }
    held = {f: dict(cache) for f, cache in caches.items()}
    for cache in caches.values():
        cache.clear()
    assert held[w_star_hat]
    for key, p in held[w_star].items():
        assert list(p.terms.items()) == list(w_star(key).terms.items()), key
    for f in (f_series, w_star_hat):
        for key, s in held[f].items():
            assert _items(s) == _items(f(*key)), (f.__name__, key)
    # the words of each sum come in the order that a copy per term gives
    for (k, order), s in held[f_series].items():
        assert _items(s) == _items(_copy_and_add_f_series(k, order)), k
    for (k, order), s in held[w_star_hat].items():
        assert _items(s) == _items(_copy_and_add_w_star_hat(k, order)), k
