"""Index space: star expansion/inversion, cyclic classes, s_m, identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvkit.indexes import (
    IndexCombo,
    all_cyclic_classes,
    binomial_shifts,
    compositions,
    csf_star_hat_symbols,
    cyclic_classes,
    cyclic_symmetrized_s_m,
    indices_up_to,
    rotation_pivots,
    rotations,
    s_m,
    shift_symbols,
    shift_terms,
    splices,
    star_expand,
    star_invert,
    star_map,
    verify_index_identity,
)
from mzvkit.linear import Combo


def brute_star_expand(k):
    """Independent contraction enumeration via explicit splits."""
    out = {}
    r = len(k)
    for mask in itertools.product((0, 1), repeat=max(0, r - 1)):
        parts = [k[0]]
        for i, merge in enumerate(mask, start=1):
            if merge:
                parts[-1] += k[i]
            else:
                parts.append(k[i])
        key = tuple(parts)
        out[key] = out.get(key, 0) + 1
    return out


indices = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)


def test_star_expand_examples():
    assert star_expand((1, 2)) == IndexCombo({(1, 2): 1, (3,): 1})
    assert star_expand((2,)) == IndexCombo({(2,): 1})
    assert star_expand((1, 1, 1)) == IndexCombo(
        {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1, (3,): 1}
    )
    assert star_expand(()) == IndexCombo.of(())


@settings(max_examples=60, deadline=None)
@given(indices)
def test_star_expand_matches_brute_force(k):
    assert star_expand(k) == IndexCombo(brute_star_expand(k))


def _contract(k, plus_mask):
    """Merge adjacent parts of k at the slots set in plus_mask (r-1 slots)."""
    out = [k[0]]
    for i in range(1, len(k)):
        if (plus_mask >> (i - 1)) & 1:
            out[-1] += k[i]
        else:
            out.append(k[i])
    return tuple(out)


def _plus_masks(r, m):
    """All r-bit masks with exactly m bits set."""
    for ones in itertools.combinations(range(r), m):
        yield sum(1 << i for i in ones)


def mask_contractions(k, plus_sign):
    """One _contract per plus mask, signed by its plus count."""
    masks = range(1 << (len(k) - 1))
    return IndexCombo().add_terms(
        (_contract(k, mask), plus_sign ** mask.bit_count()) for mask in masks
    )


def test_star_expand_and_invert_are_the_mask_contractions():
    for k in indices_up_to(8):
        for f, plus_sign in ((star_expand, 1), (star_invert, -1)):
            assert f(k) == mask_contractions(k, plus_sign), (k, plus_sign)
    # whole combinations: weights 1-9 mixed with the empty index, plain
    # or as (index, t-power) symbols, with int, Fraction and huge
    # coefficients; the empty index is fixed by both maps
    rng = random.Random(26)
    pool = indices_up_to(9)
    for symbols, kind in itertools.product((False, True), ("int", "fraction", "huge")):
        keys = rng.sample(pool, 150) + [()]
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in keys]
        if kind == "fraction":
            coeffs = [Fraction(c, rng.randint(1, 6)) for c in coeffs]
        if kind == "huge":  # the all-ones index contains every other weight-9 one
            keys += [(1,) * 9, next(k for k in keys if sum(k) == 9 and k != (1,) * 9)]
            coeffs += [(1 << 62) + 1, 1 << 62]
        if symbols:
            keys = [(k, rng.randint(0, 2)) for k in keys]
        combo = (Combo if symbols else IndexCombo)(dict(zip(keys, coeffs)))
        for plus_sign in (1, -1):
            want = type(combo)()
            for key, c in combo.terms.items():
                k, e = key if symbols else (key, None)
                image = mask_contractions(k, plus_sign) if k else IndexCombo.of(())
                want.add_terms(((kk, e) if symbols else kk, c * d) for kk, d in image.terms.items())
            assert star_map(combo, plus_sign) == want, (symbols, kind, plus_sign)
        assert star_map(star_map(combo, -1)) == combo, (symbols, kind)


def test_star_invert_examples():
    assert star_invert((1, 2)) == IndexCombo({(1, 2): 1, (3,): -1})
    assert star_invert((2,)) == IndexCombo({(2,): 1})
    assert star_invert((1, 1)) == IndexCombo({(1, 1): 1, (2,): -1})
    with pytest.raises(ValueError):
        star_invert(())


def test_star_round_trip_weight_8():
    for k in indices_up_to(8):
        assert star_map(star_invert(k)) == IndexCombo.of(k), k
        assert star_map(star_expand(k), -1) == IndexCombo.of(k), k


def test_index_combo_text_form():
    c = IndexCombo({(1, 2): 1, (3,): Fraction(-1, 2)})
    assert str(c) == "-1/2*(3)+1*(1,2)"
    assert str(IndexCombo.zero()) == "0"


def test_combo_linear_convention():
    # sum over M of f: with M = (2,3) + 2*(5,7), star-expanding each term
    m = IndexCombo({(2, 3): 1, (5, 7): 2})
    assert star_map(m) == IndexCombo({(2, 3): 1, (5,): 1, (5, 7): 2, (12,): 2})


def test_cyclic_classes_examples():
    cl = cyclic_classes(3, 2)
    assert len(cl) == 1
    assert cl[0].representative == (1, 2)
    assert set(cl[0].members) == {(1, 2), (2, 1)}
    assert cyclic_classes(2, 2)[0].members == ((1, 1),)
    assert {c.representative for c in cyclic_classes(4, 2)} == {(1, 3), (2, 2)}
    with pytest.raises(ValueError):
        cyclic_classes(2, 3)


def test_cyclic_classes_partition():
    for w in range(1, 8):
        for r in range(1, w + 1):
            cls = cyclic_classes(w, r)
            seen = [m for c in cls for m in c.members]
            assert sorted(seen) == sorted(compositions(w, r))
            for c in cls:
                assert c.representative == min(c.members)


def test_s_m_examples():
    assert s_m((1, 2), 1) == IndexCombo({(3,): 2})
    assert s_m((1, 1), 1) == IndexCombo({(2,): 2})
    assert s_m((2,), 0) == IndexCombo({(2,): 1})
    with pytest.raises(ValueError):
        s_m((1, 2), 2)
    with pytest.raises(ValueError):
        s_m((1, 2), 1, "bogus")


def test_s_m_depth_and_weight():
    for k in indices_up_to(7):
        r = len(k)
        for m in range(r):
            combo = s_m(k, m)
            total = sum(combo.terms.values())
            assert total == _binom(r, m)
            for idx in combo.terms:
                assert len(idx) == r - m
                assert sum(idx) == sum(k)


def _binom(n, m):
    from math import comb

    return comb(n, m)


def bit_rotation_s_m(k, m, policy):
    """s_m by plus masks over the r boxes: cut at the first or last comma
    box j and contract the cut sequence at the mask rotated right by j + 1."""
    r = len(k)
    full = (1 << r) - 1
    out = IndexCombo()
    for boxes in _plus_masks(r, m):
        commas = full & ~boxes
        j = (commas & -commas if policy == "first" else commas).bit_length() - 1
        rotated = (boxes >> (j + 1)) | (boxes << (r - j - 1))
        out.add_terms([(_contract(k[j + 1 :] + k[: j + 1], rotated), 1)])
    return out


def test_s_m_and_lemma112_match_per_mask_oracles():
    for k in indices_up_to(8):
        r = len(k)
        for m in range(r):
            for policy in ("first", "last"):
                assert s_m(k, m, policy) == bit_rotation_s_m(k, m, policy), (k, m, policy)
            want = IndexCombo().add_terms(
                (_contract(rot, mask), 1) for rot in rotations(k) for mask in _plus_masks(r - 1, m)
            )
            assert verify_index_identity("lemma112", k, m=m).rhs.coefficient(m) == want, (k, m)


def test_s_m_policy_washout_weight_8():
    for k in indices_up_to(8):
        for m in range(len(k)):
            assert cyclic_symmetrized_s_m(k, m, "first") == cyclic_symmetrized_s_m(
                k, m, "last"
            ), (k, m)


def test_lemma112_example():
    rep = verify_index_identity("lemma112", (1, 2), m=1)
    assert rep.equal
    assert rep.lhs.coefficient(1) == IndexCombo({(3,): 2})


def test_prop1_single_part_example():
    rep = verify_index_identity("prop1", (1,), j=0)
    assert rep.equal
    assert rep.lhs == IndexCombo({(2,): 1, (1, 1): 1})
    assert rep.rhs == IndexCombo({(1, 1): 1, (2,): 1})


def test_prop2_single_part_example():
    rep = verify_index_identity("prop2", (2,))
    assert rep.equal
    assert rep.lhs == IndexCombo({(1, 2): 1, (2, 1): 1, (3,): 2})


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_index_identity("prop99", (2,))
    with pytest.raises(ValueError):
        verify_index_identity("prop1", ())


@pytest.mark.parametrize("name", ["prop1", "csf_reduction", "lemma112"])
def test_negative_j_or_t_order_rejected(name):
    for kw, arg in (({"t_order": -1}, "t_order"), ({"t_order": -2}, "t_order"), ({"j": -1}, "j")):
        with pytest.raises(ValueError, match=rf"\b{arg}=-"):
            verify_index_identity(name, (1, 2), **kw)


@pytest.mark.parametrize("name", ["lemma112", "prop2", "prop3"])
def test_identities_weight_6(name):
    for k in indices_up_to(6):
        assert verify_index_identity(name, k).equal, (name, k)


def test_prop1_weight_5_all_j():
    for k in indices_up_to(5):
        for j in range(5):
            assert verify_index_identity("prop1", k, j=j).equal, (k, j)


def test_csf_reduction_weight_6():
    for k in indices_up_to(6):
        assert verify_index_identity("csf_reduction", k, t_order=2).equal, k


def termwise_star_over_sm(k, f):
    """The alternating s_m sum of the star expansions of f(l), expanding
    every term as it comes."""
    out = IndexCombo()
    for m in range(len(k)):
        sign = -1 if m & 1 else 1
        for l, mult in s_m(k, m).terms.items():
            for idx in f(l):
                out.add_terms((kk, sign * mult * n) for kk, n in star_expand(idx).terms.items())
    return out


def termwise_csf_reduction_rhs(k, t_order):
    out = Combo()
    for m in range(len(k)):
        sign = -1 if m & 1 else 1
        for l, mult in s_m(k, m).terms.items():
            for (idx, e), c in csf_star_hat_symbols(l, t_order).terms.items():
                star = star_expand(idx).terms.items()
                out.add_terms(((kk, e), sign * mult * c * n) for kk, n in star)
    return out


def full_splices(k):
    for p, rest in rotation_pivots(k):
        yield from splices(p, rest)
        yield (p,) + rest + (1,)


def test_collected_star_sums_match_termwise_expansion():
    for k in indices_up_to(6):
        for j in range(3):
            want = termwise_star_over_sm(k, lambda l: ((j + 1,) + rot for rot in rotations(l)))
            assert verify_index_identity("prop1", k, j=j).rhs == want, (k, j)
        want = termwise_star_over_sm(k, full_splices)
        assert verify_index_identity("prop2", k).lhs == want, k
        want = termwise_star_over_sm(k, lambda l: (rot + (1,) for rot in rotations(l)))
        assert verify_index_identity("prop3", k).lhs == want, k
        for t_order in range(3):
            got = verify_index_identity("csf_reduction", k, t_order=t_order).rhs
            assert got == termwise_csf_reduction_rhs(k, t_order), (k, t_order)


def test_csf_reduction_depends_on_order_consistently():
    # truncation at a higher order must still be exactly satisfied
    assert verify_index_identity("csf_reduction", (2, 1), t_order=4).equal


def test_indices_up_to_ordering():
    idx = indices_up_to(3)
    assert idx == [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]


def test_all_cyclic_classes_count():
    # weight 4: depth 1: (4); depth 2: (1,3),(2,2); depth 3: (1,1,2); depth 4: (1,1,1,1)
    reps = [c.representative for c in all_cyclic_classes(4) if c.weight == 4]
    assert reps == [(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]


def test_binomial_shifts_against_generating_function():
    # C(order + r, r) shifts l with |l| <= order; at each |l| = e the weights
    # sum to C(wt + e - 1, e), the coefficient of x^e in (1 - x)^-wt
    for k in indices_up_to(6):
        r, wt = len(k), sum(k)
        for order in range(4):
            terms = list(binomial_shifts(k, order))
            assert len(terms) == _binom(order + r, r), (k, order)
            sums = {}
            for e, c, shifted in terms:
                assert len(shifted) == r and sum(shifted) == wt + e, (k, shifted)
                assert all(a >= b for a, b in zip(shifted, k[::-1])), (k, shifted)
                sums[e] = sums.get(e, 0) + c
            assert sums == {e: _binom(wt + e - 1, e) for e in range(order + 1)}, (k, order)


def test_shift_symbols_vandermonde():
    # at each t^e every shifted index has weight wt(k) + e and depth r, and
    # the signed coefficients sum to (-1)^wt(k) C(wt(k) + e - 1, e)
    for k in indices_up_to(6):
        r, wt = len(k), sum(k)
        sign = (-1) ** wt
        for order in range(4):
            sums = {}
            for (shifted, e), c in shift_symbols(k, order).terms.items():
                assert len(shifted) == r and sum(shifted) == wt + e, (k, shifted, e)
                sums[e] = sums.get(e, 0) + c
            want = {e: sign * _binom(wt + e - 1, e) for e in range(order + 1)}
            assert sums == want, (k, order)


def test_shift_terms_are_the_top_power_of_shift_symbols():
    # term for term and in the same order: the t^e terms of the expansion
    # to order e, for every index of weight <= 7 and e <= 3
    for k in [(), *indices_up_to(7)]:
        for e in range(4):
            want = [(s, c) for (s, f), c in shift_symbols(k, e).terms.items() if f == e]
            assert shift_terms(k, e) == want, (k, e)


def test_rotation_pivots_are_the_rotations_in_order():
    for k in indices_up_to(6):
        got = [rest + (pivot,) for pivot, rest in rotation_pivots(k)]
        assert got == [k[i:] + k[:i] for i in range(1, len(k) + 1)], k
