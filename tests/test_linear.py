"""The sparse-combination base: the same laws for every container."""

from fractions import Fraction

import pytest

from mzvkit.indexes import IndexCombo
from mzvkit.linear import Combo
from mzvkit.numeval import NumericValue
from mzvkit.regularize import NumericPolyT
from mzvkit.tseries import WordSeries
from mzvkit.polys import NcPoly, word

z = NcPoly.from_index
V = NumericValue

# (p, q, zero) per container; q shares one key with p and adds others
CASES = {
    "NcPoly": (
        NcPoly({word("yx"): 2, word("y"): -1}),
        NcPoly({word("yxx"): 1, word("yx"): 3, word("yy"): Fraction(1, 2)}),
        NcPoly.zero(),
    ),
    "IndexCombo": (
        IndexCombo({(2,): 1, (1, 2): Fraction(1, 2)}),
        IndexCombo({(3,): 1, (2,): 2, (1, 1): -1}),
        IndexCombo.zero(),
    ),
    "symbols": (
        Combo({((2,), 0): 1, ((1, 2), 1): -2}),
        Combo({((3,), 0): 1, ((2,), 0): 2}),
        Combo(),
    ),
    "WordSeries": (
        WordSeries(2, {0: z((2,)), 2: z((3,))}),
        WordSeries(2, {1: z((2,)), 0: z((3,))}),
        WordSeries.zero(2),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_combination_laws(name):
    p, q, zero = CASES[name]
    for z0 in (p - p, 0 * p):
        assert not z0 and len(z0) == 0
        assert z0 == zero
    s = p + q
    assert list(s.terms) == list(p.terms) + [k for k in q.terms if k not in p.terms]
    for key in s.terms:
        assert s.coefficient(key) == p.coefficient(key) + q.coefficient(key)
    assert p - q == p + (-q) == p + (-1) * q
    assert p + q - q == p
    assert type(s) is type(p) and s != p


def test_equality_needs_the_same_type():
    terms = {(1, 2): 1, (3,): -1}
    assert Combo(terms) == Combo(terms)
    assert NcPoly(terms) != IndexCombo(terms)
    assert IndexCombo(terms) != Combo(terms)
    assert WordSeries(1, {0: z((2,))}) != WordSeries(2, {0: z((2,))})


def test_numeric_poly_drops_only_exact_zeros():
    p = NumericPolyT({0: V(0.0, 1e-9), 1: V(0.0, 0.0), 2: V(1.0, 0.0)})
    assert list(p.terms) == [0, 2]


def test_labelled_terms_expand_nested_combinations():
    s = WordSeries(1, {1: NcPoly({word("yx"): 2, 1: -1})})
    assert list(s.labelled_terms()) == [("t^1:yx", 2), ("t^1:1", -1)]
    m = Combo({0: IndexCombo({(1, 2): 1})})
    assert list(m.labelled_terms()) == [("0:(1, 2)", 1)]


def test_series_truncates_on_the_way_in():
    s = WordSeries(1).add_terms([(0, z((2,))), (2, z((3,)))])
    assert list(s.terms) == [0]
    # a sum is exact to the lower of the two orders
    t = WordSeries(2, {1: z((2,))}) + WordSeries(3, {2: z((3,)), 3: z((4,))})
    assert t.order == 2 and list(t.terms) == [1, 2]
