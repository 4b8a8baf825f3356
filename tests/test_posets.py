"""2-posets: construction, admissibility, the word map and its laws."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from mzvkit import posets, tseries
from mzvkit.indexes import indices_up_to
from mzvkit.posets import (
    TwoPoset,
    disjoint_union,
    is_admissible,
    random_2poset,
    ZigZag,
    w_map,
    x_star,
    zigzag_sum,
)
from mzvkit.tseries import PosetSeries, x_star_hat
from mzvkit.words import NcPoly, shuffle, word


def w_map_oracle(p: TwoPoset) -> NcPoly:
    """Sum over linear extensions by explicit permutation filtering."""
    out = {}
    for perm in itertools.permutations(range(p.n)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(
            pos[u] < pos[v]
            for v in range(p.n)
            for u in range(p.n)
            if (p.below[v] >> u) & 1
        ):
            s = "".join(p.labels[v] for v in perm)
            out[s] = out.get(s, 0) + 1
    return NcPoly({word(s): c for s, c in out.items()})


def _numpy_w_map(p: TwoPoset) -> NcPoly:
    """The previous w_map, kept verbatim as the reference: the same subset
    DP on one int64 numpy vector per state."""
    n = p.n
    if n == 0:
        return NcPoly.one()
    below = p.below
    ybit = [1 if l == "y" else 0 for l in p.labels]
    vbits = [1 << v for v in range(n)]
    memo: dict[int, np.ndarray] = {0: np.ones(1, dtype=np.int64)}

    def rec(S: int) -> np.ndarray:
        got = memo.get(S)
        if got is not None:
            return got
        m = S.bit_count()
        half = 1 << (m - 1)
        vec = np.zeros(2 * half, dtype=np.int64)
        rest = S
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if below[v] & S:
                continue  # not minimal in S
            sub = rec(S & ~vbits[v])
            if ybit[v]:
                vec[half:] += sub
            else:
                vec[:half] += sub
        memo[S] = vec
        return vec

    vec = rec((1 << n) - 1)
    sentinel = 1 << n
    return NcPoly({sentinel | int(b): int(vec[b]) for b in np.flatnonzero(vec)})


def test_constructor_validates():
    with pytest.raises(ValueError):
        TwoPoset(["x", "z"])
    with pytest.raises(ValueError):
        TwoPoset(["x", "y"], [(0, 1), (1, 0)])
    for bad in [(0, 2), (2, 0), (-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="outside"):
            TwoPoset(["x", "y"], [bad])


def test_transitive_closure():
    p = TwoPoset(["y", "x", "x"], [(0, 1), (1, 2)])
    assert (p.below[2] >> 0) & 1  # 0 < 2 via 1
    assert p.covers() == [(0, 1), (1, 2)]


def _reachability(n, rels):
    """Reference order: below[v] is the set of u with a path of relations
    from u up to v, found by a depth-first search from each u."""
    below = [set() for _ in range(n)]
    for u in range(n):
        seen, stack = set(), [hi for lo, hi in rels if lo == u]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(hi for lo, hi in rels if lo == v)
        for v in seen:
            below[v].add(u)
    return below


def _order(p):
    return p.labels, [{u for u in range(p.n) if m >> u & 1} for m in p.below]


def test_order_is_the_reachability_closure_random():
    rng = random.Random(31)
    cyclic = closing = 0
    for _ in range(400):
        n = rng.randint(0, 8)
        labels = [rng.choice("xy") for _ in range(n)]
        rels = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))] if n else []
        below = _reachability(n, rels)
        if any(v in below[v] for v in range(n)):
            cyclic += 1
            with pytest.raises(ValueError, match="cycle"):
                TwoPoset(labels, rels)
            continue
        p = TwoPoset(labels, rels)
        assert _order(p) == (tuple(labels), below)
        m = rng.randint(0, 4)
        q_rels = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        q_labels = [rng.choice("xy") for _ in range(m)]
        q = TwoPoset(q_labels, q_rels)
        shifted = [(lo + n, hi + n) for lo, hi in q_rels]
        assert _order(disjoint_union(p, q)) == _order(TwoPoset(labels + q_labels, rels + shifted))
        if n:
            lo, hi = rng.randrange(n), rng.randrange(n)
            if lo == hi or hi in below[lo]:
                closing += 1
                with pytest.raises(ValueError, match="cycle"):
                    p.with_relation(lo, hi)
            else:
                assert _order(p.with_relation(lo, hi)) == _order(TwoPoset(labels, rels + [(lo, hi)]))
    assert cyclic >= 100 and closing >= 50


def test_x_star_shapes():
    p = x_star((2,))
    assert p.n == 2 and p.labels == ("y", "x")
    p = x_star((2, 2))
    assert p.n == 4
    assert set(p.covers()) == {(0, 1), (2, 3), (0, 3)}
    p = x_star((1, 2))
    assert p.n == 3
    assert set(p.covers()) == {(1, 2), (0, 2)}
    assert x_star(()).n == 0


def test_admissibility():
    assert is_admissible(x_star((2,)))
    assert is_admissible(x_star((1, 2)))
    assert not is_admissible(x_star((2, 1)))
    assert not is_admissible(TwoPoset(["y"]))
    assert is_admissible(TwoPoset([]))
    for k in indices_up_to(6):
        assert is_admissible(x_star(k)) == (k[-1] >= 2), k


def test_w_map_spec_examples():
    assert w_map(x_star((2,))) == NcPoly.from_str("yx")
    anti = TwoPoset(["x", "y"])
    assert w_map(anti) == NcPoly.from_str("xy") + NcPoly.from_str("yx")
    assert w_map(x_star((2, 2))) == NcPoly(
        {word("yxyx"): 1, word("yyxx"): 4}
    )
    assert w_map(TwoPoset([])) == NcPoly.one()


def test_w_map_chains():
    for k in range(1, 9):
        assert w_map(x_star((k,))) == NcPoly.from_index((k,))


def test_w_map_matches_permutation_oracle():
    rng = random.Random(17)
    for _ in range(150):
        p = random_2poset(rng, 1, 7)
        assert w_map(p) == w_map_oracle(p), p.describe()


def _same_terms_in_order(p: TwoPoset) -> None:
    # term order matters too: z_num sums a word series in it
    assert list(w_map(p).terms.items()) == list(_numpy_w_map(p).terms.items()), p.describe()


def test_w_map_matches_numpy_reference_on_zigzags():
    for k in indices_up_to(9):
        _same_terms_in_order(x_star(k))
    for k in [(10,), (1, 2, 3, 4), (2, 1, 1, 3, 1, 2), (1,) * 10, (3, 1, 4, 1, 2), (2,) * 5 + (1,)]:
        _same_terms_in_order(x_star(k))


def test_w_map_matches_numpy_reference_on_random_posets():
    rng = random.Random(41)
    for _ in range(100):
        _same_terms_in_order(random_2poset(rng, 1, 12))


def test_w_map_vertex_guard():
    chain = [(i, i + 1) for i in range(20)]
    assert w_map(TwoPoset(["y"] + ["x"] * 19, chain[:19])) == NcPoly.from_index((20,))
    with pytest.raises(ValueError):
        w_map(TwoPoset(["y"] + ["x"] * 20, chain))


def test_w_map_antichain_counts():
    # every arrangement of a y's and b x's is read off by a! b! extensions,
    # the largest coefficients an n-vertex poset can spread over its words
    n = 12
    for a in range(n + 1):
        b = n - a
        got = w_map(TwoPoset(["y"] * a + ["x"] * b))
        assert len(got) == comb(n, a)
        assert set(got.terms.values()) == {factorial(a) * factorial(b)}
        assert all(bin(w).count("1") == a + 1 for w in got.terms)  # sentinel + a y's


@pytest.mark.parametrize("n", [8, 9, 12, 13])
def test_w_map_all_x_antichain_at_lane_width_switches(n):
    # n! is the largest lane value; the lanes widen from 16 to 32 bits
    # after 8 vertices and from 32 to 64 bits after 12
    assert w_map(TwoPoset(["x"] * n)) == NcPoly.from_str("x" * n, factorial(n))


def test_w_map_of_two_disjoint_chains_is_their_shuffle():
    # 20 vertices with 10 y's: the widest lanes, C(20, 10) of them
    a, b = "yxxyxyxxyx", "yyxxxyxyxx"
    chains = [(i, i + 1) for i in range(9)] + [(i, i + 1) for i in range(10, 19)]
    got = w_map(TwoPoset(list(a + b), chains))
    want = shuffle(NcPoly.from_str(a), NcPoly.from_str(b))
    assert list(got.terms.items()) == list(want.terms.items())


def test_w_map_h0_iff_admissible():
    for k in indices_up_to(6):
        assert w_map(x_star(k)).is_h0() == is_admissible(x_star(k)), k


def _same_as_w_map(k) -> None:
    assert list(w_map(ZigZag(k)).terms.items()) == list(w_map(x_star(k)).terms.items()), k


def test_zigzag_matches_w_map_on_every_index_up_to_weight_11():
    for k in indices_up_to(11):
        _same_as_w_map(k)


@pytest.mark.parametrize(
    "k",
    [
        (8,), (1,) * 8, (2, 1, 3, 2), (1, 2, 1, 1, 3, 1),
        (9,), (1,) * 9, (3, 1, 2, 1, 2), (1, 1, 4, 1, 2),
        (1,) * 12, (2, 3, 1, 1, 2, 3), (1, 2, 1, 2, 1, 2, 1, 2),
        (1,) * 13, (4, 1, 2, 3, 1, 2), (3, 1, 1, 1, 2, 1, 1, 3),
        (20,), (1,) * 20, (4, 4, 1, 3, 4, 2, 2), (2, 2, 3, 1, 4, 1, 1, 2, 2, 2),
    ],
)
def test_zigzag_matches_w_map_at_lane_width_switches(k):
    # 8 / 9, 12 / 13 vertices: the lanes widen from 16 to 32 and from 32
    # to 64 bits; 20 vertices: the largest poset w_map takes
    _same_as_w_map(k)


def test_zigzag_does_not_depend_on_the_shared_states(monkeypatch):
    ks = list(indices_up_to(9)) + [(3, 1, 2, 1, 3), (1, 1, 2, 1, 1, 2, 1, 1)]
    monkeypatch.setattr(posets, "_SHARED", {})
    posets._zigzag_vec.cache_clear()
    forward = {k: list(w_map(ZigZag(k)).terms.items()) for k in ks}
    monkeypatch.setattr(posets, "_SHARED", {})
    posets._zigzag_vec.cache_clear()
    for k in reversed(ks):
        assert list(w_map(ZigZag(k)).terms.items()) == forward[k], k
        assert forward[k] == list(w_map(x_star(k)).terms.items()), k


def _state_vertices(state: int) -> int:
    """Vertices of a zig-zag DP state: f >> 1 for each 6-bit field f."""
    n = 0
    while state:
        n += (state & 63) >> 1
        state >>= 6
    return n


def test_zigzag_shares_only_small_states():
    posets._zigzag_vec.cache_clear()
    for k in [(2, 1, 3, 2, 1), (1,) * 10, (4, 1, 1, 2, 3), (2, 2, 2, 2, 2, 2, 1)]:
        w_map(ZigZag(k))
    assert posets._SHARED
    for width, states in posets._SHARED.items():
        assert width in (16, 32, 64) and states[0] == 1
        assert max(map(_state_vertices, states)) <= posets._SHARED_VERTICES
    # the bound is reached, not only respected
    assert any(_state_vertices(s) == posets._SHARED_VERTICES for d in posets._SHARED.values() for s in d)


def test_zigzag_vertex_guard():
    assert w_map(ZigZag(())) == w_map(x_star(())) == NcPoly.one()
    message = re.escape("poset too large for w_map (21 vertices)")
    for poset in (ZigZag, x_star):
        with pytest.raises(ValueError, match=message):
            w_map(poset((21,)))
    for k in [(0,), (2, 0), (1, -1, 2)]:
        with pytest.raises(ValueError, match="not an index"):
            ZigZag(k)


def _subset_dp_sum(terms) -> NcPoly:
    """The sum of c * w_map(x_star(k)), through the subset DP of built posets."""
    out = NcPoly()
    for k, c in terms:
        out = out + c * w_map(x_star(k))
    return out


def test_zigzag_sum_matches_the_subset_dp():
    rng = random.Random(59)
    ks = [(), *indices_up_to(7)]
    for _ in range(60):
        terms = [(rng.choice(ks), rng.choice([-3, -2, -1, 1, 2, 5])) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.2:
            terms.append((rng.choice(ks), Fraction(rng.randint(-4, 4), 3)))
        got = zigzag_sum(terms)
        assert got == _subset_dp_sum(terms), terms
        assert all(got.terms.values())


def test_zigzag_sum_drops_what_cancels():
    grade = [(2, 1, 3), (3, 1, 2), (1, 4, 1), (2, 2, 2)]
    terms = [(k, c) for k in grade for c in (3, -3)] + [((), 2), ((6,), -1), ((), -2), ((6,), 1)]
    assert zigzag_sum(terms).terms == {}
    # one index left over: its words alone, each scaled
    got = zigzag_sum(terms + [((1, 4, 1), -7)])
    assert list(got.terms.items()) == [(w, -7 * c) for w, c in w_map(ZigZag((1, 4, 1))).terms.items()]


def test_zigzag_sum_past_int64_is_exact():
    # sum |c| * 8! >= 2^62 sends the grade to the word by word add, and
    # its largest coefficient is past what an int64 holds
    terms = [((2, 1, 3, 2), 3 << 60), ((3, 1, 2, 2), -(5 << 59)), ((1, 3, 1, 3), 7)]
    assert sum(abs(c) for _, c in terms) * factorial(8) >= 1 << 62
    got = zigzag_sum(terms)
    assert got == _subset_dp_sum(terms)
    assert max(map(abs, got.terms.values())) >= 1 << 63


def test_zigzag_vectors_are_read_only():
    vec = posets._zigzag_vec((2, 1, 3))
    assert vec.dtype == np.int64 and not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 1
    with pytest.raises(ValueError):
        vec += 1
    assert posets._zigzag_vec((2, 1, 3)) is vec


def test_w_star_builds_no_poset(monkeypatch):
    def refuse(*args):
        raise AssertionError("w_star built a TwoPoset")

    monkeypatch.setattr(TwoPoset, "_close", refuse)
    monkeypatch.setattr(tseries, "_W_STAR_CACHE", {})
    assert tseries.w_star((2, 1, 3)) == w_map(ZigZag((2, 1, 3)))


def test_w_star_reads_its_words_through_w_map(monkeypatch):
    # w_map stays the one entry point of the linear-extension words, so a
    # wrapper on it sees the star words too
    seen = []

    def recording(p):
        seen.append(p)
        return w_map(p)

    monkeypatch.setattr(tseries, "w_map", recording)
    monkeypatch.setattr(tseries, "_W_STAR_CACHE", {})
    tseries.w_star((2, 1, 3))
    assert seen == [ZigZag((2, 1, 3))]
    assert seen[0].n == x_star((2, 1, 3)).n == 6


def test_disjoint_union_examples():
    p = x_star((2,))
    empty = TwoPoset([])
    assert w_map(disjoint_union(empty, p)) == w_map(p)
    two = disjoint_union(p, p)
    assert w_map(two) == shuffle(w_map(p), w_map(p))
    anti = disjoint_union(TwoPoset(["y"]), TwoPoset(["x"]))
    assert w_map(anti) == NcPoly.from_str("xy") + NcPoly.from_str("yx")


def test_homomorphism_law_random():
    rng = random.Random(23)
    for _ in range(100):
        a = random_2poset(rng, 1, 4, admissible=True)
        b = random_2poset(rng, 1, 4, admissible=True)
        assert w_map(disjoint_union(a, b)) == shuffle(w_map(a), w_map(b))


def test_order_split_law_random():
    rng = random.Random(29)
    done = 0
    while done < 100:
        p = random_2poset(rng, 2, 7)
        pairs = [
            (a, b)
            for a in range(p.n)
            for b in range(a + 1, p.n)
            if not p.comparable(a, b)
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        assert w_map(p) == w_map(p.with_relation(a, b)) + w_map(p.with_relation(b, a))
        done += 1


def test_x_star_hat_small_cases():
    s = x_star_hat((2,), 0).w_image()
    assert s.coefficient(0) == 2 * NcPoly.from_index((2,))
    s = x_star_hat((1,), 1).w_image()
    assert s.coefficient(0) == NcPoly.zero()
    assert s.coefficient(1) == -1 * NcPoly.from_index((2,))
    s = x_star_hat((), 0).w_image()
    assert s.coefficient(0) == NcPoly.one()
    with pytest.raises(ValueError):
        x_star_hat((2,), -1)


def test_x_star_hat_keeps_posets_unmerged():
    # the t^0 coefficient of the depth-one case holds both split terms
    ps = x_star_hat((1,), 0)
    assert len(ps.coeffs[0]) == 2
    assert isinstance(ps, PosetSeries)


def test_describe_deterministic():
    p = x_star((1, 2))
    assert p.describe() == "[yyx|0<2,1<2]"
