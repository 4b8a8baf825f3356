"""Word algebra: products against independent oracles, algebraic laws."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvkit.indexes import compositions, indices_up_to, star_expand
from mzvkit import words
from mzvkit.linear import Combo
from mzvkit.polys import (
    _INT64_SAFE,
    EMPTY_WORD,
    GradedPoly,
    NcPoly,
    as_graded,
    graded_sum,
    in_h0,
    in_h1,
    index_of_word,
    weight,
    word,
    word_of_index,
    word_str,
)
from mzvkit.words import (
    _interleavings,
    _small_block,
    _spread,
    _weight_sum,
    harmonic,
    random_ncpoly,
    random_word,
    s_map,
    shuffle,
    shuffle_sum,
    sigma,
)


# -- independent oracles -------------------------------------------------


def shuffle_oracle(u: str, v: str) -> dict[str, int]:
    """All interleavings by explicit position choice."""
    p, q = len(u), len(v)
    out: dict[str, int] = {}
    for pos in itertools.combinations(range(p + q), p):
        w = [""] * (p + q)
        iu, iv = iter(u), iter(v)
        ps = set(pos)
        for i in range(p + q):
            w[i] = next(iu) if i in ps else next(iv)
        key = "".join(w)
        out[key] = out.get(key, 0) + 1
    return out


def stuffle_oracle(a: tuple, b: tuple) -> dict[tuple, int]:
    """Quasi-shuffle by walking the grid: at each step take the next part
    from a, from b, or merge both (diagonal step)."""
    out: dict[tuple, int] = {}

    def walk(i, j, acc):
        if i == len(a) and j == len(b):
            out[acc] = out.get(acc, 0) + 1
            return
        if i < len(a):
            walk(i + 1, j, acc + (a[i],))
        if j < len(b):
            walk(i, j + 1, acc + (b[j],))
        if i < len(a) and j < len(b):
            walk(i + 1, j + 1, acc + (a[i] + b[j],))

    walk(0, 0, ())
    return out


def _dense(part: dict, n: int, dtype) -> np.ndarray:
    """A weight-n part as a dense coefficient vector indexed by letter bits."""
    v = np.zeros(1 << n, dtype=dtype)
    for bits, c in part.items():
        v[bits] = c
    return v


def _moveaxis_shuffle_dense(A, p, B, q):
    """The previous _shuffle_dense, kept verbatim (np.moveaxis)."""
    if p == 0:
        return B * A[0]
    if q == 0:
        return A * B[0]
    state = {0: np.multiply.outer(A, B).reshape(1, 1 << p, 1 << q)}
    for k in range(p + q):
        new = {}
        for i, S in state.items():
            j = k - i
            if j < q:
                Xr = S.reshape(1 << k, 1 << (p - i), 2, 1 << (q - j - 1))
                Xr = np.moveaxis(Xr, 2, 1).reshape(1 << (k + 1), 1 << (p - i), 1 << (q - j - 1))
                if i in new:
                    new[i] = new[i] + Xr
                else:
                    new[i] = Xr
            if i < p:
                Xr = S.reshape(1 << (k + 1), 1 << (p - i - 1), 1 << (q - j))
                if i + 1 in new:
                    new[i + 1] = new[i + 1] + Xr
                else:
                    new[i + 1] = Xr
        state = new
    return state[p].reshape(-1)


def moveaxis_shuffle(a: NcPoly, b: NcPoly) -> NcPoly:
    """The previous shuffle, kept verbatim as an independent reference:
    it decodes one numpy scalar at a time."""
    out: dict = {}
    pa, pb = a.homogeneous_parts(), b.homogeneous_parts()
    for p, ap in pa.items():
        for q, bp in pb.items():
            exact = all(isinstance(c, int) for c in ap.values()) and all(
                isinstance(c, int) for c in bp.values()
            )
            bound = (
                sum(abs(c) for c in ap.values())
                * sum(abs(c) for c in bp.values())
                * comb(p + q, min(p, q))
            )
            dtype = np.int64 if exact and bound < _INT64_SAFE else object
            vec = _moveaxis_shuffle_dense(_dense(ap, p, dtype), p, _dense(bp, q, dtype), q)
            sentinel = 1 << (p + q)
            for bits in np.flatnonzero(vec):
                w = sentinel | int(bits)
                c = vec[bits]
                c = int(c) if dtype is np.int64 else c
                nc = out.get(w, 0) + c
                if nc:
                    out[w] = nc
                else:
                    out.pop(w, None)
    return NcPoly(out)


@lru_cache(maxsize=None)
def _index_stuffle(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Quasi-shuffle of two index tuples, as ((index, multiplicity), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = Combo()
    out.add_terms((idx + (u[-1],), m) for idx, m in _index_stuffle(u[:-1], v))
    out.add_terms((idx + (v[-1],), m) for idx, m in _index_stuffle(u, v[:-1]))
    out.add_terms((idx + (u[-1] + v[-1],), m) for idx, m in _index_stuffle(u[:-1], v[:-1]))
    return tuple(out.terms.items())


def index_harmonic(a: NcPoly, b: NcPoly) -> NcPoly:
    """The previous harmonic, kept verbatim as the term-order reference:
    it recurses on index tuples and converts each term back to a word."""
    out = NcPoly()
    for wa, ca in a.terms.items():
        ka = index_of_word(wa)
        for wb, cb in b.terms.items():
            c = ca * cb
            stuffles = _index_stuffle(ka, index_of_word(wb))
            out.add_terms((word_of_index(idx), c * m) for idx, m in stuffles)
    return out


def poly_from_strs(d: dict[str, object]) -> NcPoly:
    return NcPoly({word(s): c for s, c in d.items()})


# -- encoding ------------------------------------------------------------


def test_word_encoding_round_trip():
    for s in ("", "x", "y", "yx", "xy", "yyxxy", "xxxx"):
        assert word_str(word(s)) == s
        assert weight(word(s)) == len(s)


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        word("yz")


def test_graded_lex_order_is_int_order():
    ws = ["", "x", "y", "xx", "xy", "yx", "yy", "xxx"]
    assert sorted(word(s) for s in ws) == [word(s) for s in ws]


def test_membership_flags():
    assert in_h1(EMPTY_WORD) and in_h0(EMPTY_WORD)
    assert in_h1(word("yx")) and in_h0(word("yx"))
    assert in_h1(word("yy")) and not in_h0(word("yy"))
    assert not in_h1(word("xy"))


def test_word_of_index_examples():
    assert word_of_index((2,)) == word("yx")
    assert word_of_index((1, 2)) == word("yyx")
    assert word_of_index(()) == EMPTY_WORD


def test_index_of_word_examples():
    assert index_of_word(word("yx")) == (2,)
    assert index_of_word(word("yyx")) == (1, 2)
    with pytest.raises(ValueError):
        index_of_word(word("xy"))


def test_index_word_round_trip():
    for n in range(0, 8):
        for k in compositions(n, 2) if n >= 2 else [()]:
            assert index_of_word(word_of_index(k)) == k


# -- shuffle -------------------------------------------------------------


def test_shuffle_spec_examples():
    assert shuffle(NcPoly.from_str("x"), NcPoly.from_str("y")) == poly_from_strs(
        {"xy": 1, "yx": 1}
    )
    assert shuffle(NcPoly.from_str("yx"), NcPoly.from_str("yx")) == poly_from_strs(
        {"yxyx": 2, "yyxx": 4}
    )
    w = NcPoly.from_str("xyx")
    assert shuffle(w, NcPoly.one()) == w
    assert shuffle(NcPoly.one(), w) == w


@pytest.mark.parametrize("seed", range(6))
def test_shuffle_matches_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        u = "".join(rng.choice("xy") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("xy") for _ in range(rng.randint(0, 6)))
        got = shuffle(NcPoly.from_str(u) if u else NcPoly.one(),
                      NcPoly.from_str(v) if v else NcPoly.one())
        assert got == poly_from_strs(shuffle_oracle(u, v)), (u, v)


def test_shuffle_weight_additivity():
    rng = random.Random(3)
    for _ in range(30):
        a = random_ncpoly(rng, 5)
        b = random_ncpoly(rng, 5)
        prod = shuffle(a, b)
        weights = {weight(w) for w in prod.terms}
        allowed = {
            weight(wa) + weight(wb) for wa in a.terms for wb in b.terms
        }
        assert weights <= allowed


def test_shuffle_fraction_coefficients_exact():
    a = NcPoly({word("yx"): Fraction(1, 3)})
    b = NcPoly({word("y"): Fraction(3, 5)})
    got = shuffle(a, b)
    assert got.terms[word("yyx")] == Fraction(2, 5)  # two interleavings put y first


def test_division_keeps_whole_quotients_as_ints():
    p = NcPoly({word("y"): 6, word("yx"): 3, word("yy"): Fraction(4, 3)})
    for d, want in ((3, [2, 1, Fraction(4, 9)]), (Fraction(2, 3), [9, Fraction(9, 2), 2])):
        got = list((p / d).terms.values())
        assert got == want and [type(c) for c in got] == [type(c) for c in want], d


def test_shuffle_object_fallback_matches_oracle():
    # 2^40 on each side of a weight-4 pair puts the bound at 70 * 2^80,
    # past _INT64_SAFE, so the product runs on Python ints
    rng = random.Random(8)
    big = 1 << 40
    for _ in range(20):
        u = "".join(rng.choice("xy") for _ in range(4))
        v = "".join(rng.choice("xy") for _ in range(4))
        cu, cv = big + rng.randint(-9, 9), -big - rng.randint(0, 9)
        got = shuffle(NcPoly.from_str(u, cu), NcPoly.from_str(v, cv))
        assert got == poly_from_strs(
            {w: cu * cv * m for w, m in shuffle_oracle(u, v).items()}
        ), (u, v)
        assert all(type(c) is int and abs(c) > _INT64_SAFE for c in got.terms.values())


@pytest.mark.parametrize("path", ["int64", "object", "fraction"])
def test_shuffle_matches_moveaxis_reference(path):
    rng = random.Random(12)
    scale = {"int64": 1, "object": 1 << 40, "fraction": Fraction(2, 7)}[path]
    for _ in range(30):
        a = scale * random_ncpoly(rng, 5, 4)
        b = scale * random_ncpoly(rng, 5, 4)
        assert shuffle(a, b) == moveaxis_shuffle(a, b), (a, b)
    # one word on each side (the memoised table), weight 0 on either side
    pairs = [(random_word(rng, 6), random_word(rng, 6)) for _ in range(30)]
    pairs += [(EMPTY_WORD, word("yxy")), (word("xy"), EMPTY_WORD), (EMPTY_WORD, EMPTY_WORD)]
    for u, v in pairs:
        a = NcPoly.from_word(u, scale * rng.choice([1, -2, 3]))
        b = NcPoly.from_word(v, scale * rng.choice([1, 5, -1]))
        got, want = shuffle(a, b), moveaxis_shuffle(a, b)
        assert got == want, (a, b)
        assert [type(c) for _, c in sorted(got.terms.items())] == [type(c) for _, c in sorted(want.terms.items())]


def test_shuffle_block_past_the_slice_bound_matches_moveaxis_reference():
    # an index array may hold (min(p, q) + 1) * 2^(p + q) elements: 1280 at
    # weights 4 + 4, where 5 * 5 * C(8, 4) = 1750 goes in slices of three
    # left words, and 5120 at 4 + 6, where one left word already gives
    # 30 * C(10, 4) = 6300, so each slice holds one word
    rng = random.Random(31)
    for p, q, na, nb in [(4, 4, 5, 5), (4, 6, 3, 30)]:
        assert na * nb * comb(p + q, p) > (min(p, q) + 1) << (p + q)
        for scale in (1, 1 << 40):
            a = NcPoly({(1 << p) | u: scale * rng.choice([1, -2, 3]) for u in rng.sample(range(1 << p), na)})
            b = NcPoly({(1 << q) | v: scale * rng.choice([1, 5, -1]) for v in rng.sample(range(1 << q), nb)})
            assert shuffle(a, b) == moveaxis_shuffle(a, b), (a, b)


SMALL_PAIRS = [(p, q) for p in range(1, 8) for q in range(1, 9 - p)]


def _block_paths(monkeypatch) -> list[str]:
    """Record which path each weight block of a shuffle takes (a shuffle
    sums each block on its own, and the riffle is one call a weight)."""
    paths: list[str] = []
    for name, label in (("_small_block", "small"), ("_riffle", "riffle")):

        def spy(*args, fn=getattr(words, name), label=label):
            paths.append(label)
            return fn(*args)

        monkeypatch.setattr(words, name, spy)
    return paths


def small_terms(ap, p, bp, q) -> list:
    """One block summed by _small_block alone, read back words ascending."""
    acc: dict = {}
    _small_block(acc, ap, p, bp, q)
    top = 1 << (p + q)
    return [(w | top, c) for w, c in sorted(acc.items()) if c]


def riffle_terms(ap, p, bp, q) -> list:
    """One block summed by the riffle scatter, whatever its size, read
    back words ascending."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_SMALL_PRODUCTS", -1)
        return sorted(_weight_sum([(ap, p, bp, q)], p + q).items())


@pytest.mark.parametrize("p, q", SMALL_PAIRS)
def test_spread_tables_are_the_interleavings_in_small_ints(p, q):
    left, right = _spread(p, q)
    lpos, rpos = _interleavings(p, q)
    for table, n, pos in ((left, p, lpos), (right, q, rpos)):
        assert len(table) == 1 << n
        for u, row in enumerate(table):
            assert row == tuple(
                sum(((u >> (n - 1 - j)) & 1) << int(at[j]) for j in range(n)) for at in pos
            )
            assert all(type(b) is int and 0 <= b < 1 << 8 for b in row)


@pytest.mark.parametrize("p, q", SMALL_PAIRS)
def test_small_block_matches_the_riffle(p, q):
    # term for term, in order, with the same coefficient types
    rng = random.Random(100 * p + q)

    def part(n, scale):
        k = rng.randint(1, min(4, 1 << n))
        return {u: scale * rng.choice([1, -2, 3, 5]) for u in rng.sample(range(1 << n), k)}

    for sa, sb in [(1, 1), (1 << 62, 1 << 40), (Fraction(2, 7), Fraction(-3, 5)), (1, Fraction(1, 3))]:
        for _ in range(3):
            ap, bp = part(p, sa), part(q, sb)
            got = small_terms(ap, p, bp, q)
            want = riffle_terms(ap, p, bp, q)
            assert got == want, (ap, bp)
            assert [type(c) for _, c in got] == [type(c) for _, c in want]
    # signed coefficients on every word until some output word cancels
    # (a word that is reached but sums to zero must be dropped)
    for _ in range(200):
        ap = {u: rng.choice([1, -1, 2, -2]) for u in range(1 << p)}
        bp = {v: rng.choice([1, -1, 2, -2]) for v in range(1 << q)}
        reached = small_terms({u: 1 for u in ap}, p, {v: 1 for v in bp}, q)
        got = small_terms(ap, p, bp, q)
        if len(got) < len(reached):
            break
    else:
        raise AssertionError(f"no cancelling draw at {(p, q)}")
    assert got == riffle_terms(ap, p, bp, q)
    assert all(c for _, c in got)


def test_shuffle_dispatches_blocks_on_weight_and_product_count(monkeypatch):
    paths = _block_paths(monkeypatch)
    # 1 x 1 at 4 + 4 is 70 products; 3 x 3 at 4 + 4 is 630; 5 + 4 is past weight 8;
    # a weight-0 side is a scalar, summed neither by the spread tables nor the riffle
    a1, a3 = NcPoly.from_str("yxyx"), NcPoly({word(s): 1 for s in ("yxxx", "yyxx", "xyxy")})
    b1, b3 = NcPoly.from_str("xyyx", 2), NcPoly({word(s): 3 for s in ("xxxy", "yxxy", "yyyx")})
    for a, b, want in [
        (a1, b1, "small"),
        (a3, b3, "riffle"),
        (NcPoly.from_str("yxyxy"), b1, "riffle"),
        (NcPoly.one(), b3, None),
    ]:
        paths.clear()
        shuffle(a, b)
        assert paths == ([want] if want else []), (a, b)


def test_riffle_object_fallback_past_the_small_weight(monkeypatch):
    # 5 + 4 letters is past the small path's weight bound, so the riffle's
    # object-dtype branch runs: C(9, 4) * 2^80 is past _INT64_SAFE
    paths = _block_paths(monkeypatch)
    rng = random.Random(9)
    big = 1 << 40
    for _ in range(10):
        u = "".join(rng.choice("xy") for _ in range(5))
        v = "".join(rng.choice("xy") for _ in range(4))
        cu, cv = big + rng.randint(-9, 9), -big - rng.randint(0, 9)
        got = shuffle(NcPoly.from_str(u, cu), NcPoly.from_str(v, cv))
        assert got == poly_from_strs({w: cu * cv * m for w, m in shuffle_oracle(u, v).items()}), (u, v)
        assert all(type(c) is int and abs(c) > _INT64_SAFE for c in got.terms.values())
    assert set(paths) == {"riffle"}


def test_riffle_slices_past_the_small_weight(monkeypatch):
    # at 5 + 4 an index array may hold 5 * 2^9 = 2560 elements, and
    # 5 * 5 * C(9, 4) = 3150 goes in slices of four left words
    paths = _block_paths(monkeypatch)
    rng = random.Random(45)
    p, q, na, nb = 5, 4, 5, 5
    assert na * nb * comb(p + q, p) > (min(p, q) + 1) << (p + q)
    for scale in (1, 1 << 40):
        a = NcPoly({(1 << p) | u: scale * rng.choice([1, -2, 3]) for u in rng.sample(range(1 << p), na)})
        b = NcPoly({(1 << q) | v: scale * rng.choice([1, 5, -1]) for v in rng.sample(range(1 << q), nb)})
        assert shuffle(a, b) == moveaxis_shuffle(a, b), (a, b)
    assert paths == ["riffle", "riffle"]


class _CountingNumpy:
    """numpy, except that ``add.at`` records the number of products and
    the dtype of each riffle scatter."""

    def __init__(self, scatters: list):
        class _Add:
            @staticmethod
            def at(vec, idx, values):
                scatters.append((len(idx), vec.dtype))
                np.add.at(vec, idx, values)

        self.add = _Add

    def __getattr__(self, name):
        return getattr(np, name)


def _scatters(monkeypatch) -> list[tuple[int, np.dtype]]:
    """Record the products and the dtype of each riffle scatter."""
    scatters: list = []
    monkeypatch.setattr(words, "np", _CountingNumpy(scatters))
    return scatters


def _summed(pairs) -> NcPoly:
    out = NcPoly()
    for a, b in pairs:
        out = out + shuffle(a, b)
    return out


@pytest.mark.parametrize("path", ["int64", "object", "fraction", "mixed"])
def test_shuffle_sum_is_the_sum_of_shuffles(path):
    rng = random.Random(77)
    scale = {"int64": 1, "object": 1 << 61, "fraction": Fraction(2, 7), "mixed": 1}[path]
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            a = scale * random_ncpoly(rng, 7, 6)
            b = random_ncpoly(rng, 7, 6)
            if path == "mixed":  # Fractions and ints in one sum
                b = rng.choice([Fraction(1, 3), 1, 1 << 50]) * b
            pairs.append((a, b))
        assert shuffle_sum(pairs) == _summed(pairs), pairs


def test_shuffle_sum_of_weight_0_sides_and_empty_sums():
    one, b = NcPoly.one(), NcPoly({word("yxy"): 2, word("xy"): -1, EMPTY_WORD: 5})
    a = NcPoly({word("yxxyx"): 3, word("y"): 1, EMPTY_WORD: -2})
    pairs = [(one, b), (a, 3 * one), (one, one), (a, b), (b, Fraction(1, 2) * one)]
    assert shuffle_sum(pairs) == _summed(pairs)
    assert shuffle_sum([(one, one)]) == one
    assert shuffle_sum([]) == NcPoly() and shuffle_sum(iter(())) == NcPoly()
    assert shuffle_sum([(a, NcPoly()), (NcPoly(), b)]) == NcPoly()


def test_shuffle_sum_drops_what_cancels():
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (random_ncpoly(rng, 7, 6) for _ in range(3))
        zero = shuffle_sum([(a, b), (-1 * a, b), (b, a), (a, -1 * b)])
        assert zero == NcPoly() and not zero.terms
        # the c ш b words stay, the rest cancels, riffled or not
        got = shuffle_sum([(a, b), (c, b), (b, -1 * a)])
        assert got == shuffle(c, b) and all(got.terms.values())


def test_shuffle_sum_takes_the_exact_path_when_a_weights_total_passes_int64(monkeypatch):
    # x^5 ш x^5 = 252 x^10: each block's bound c * 252 is below _INT64_SAFE,
    # and four of them at weight 10 are past it, three at x^10 past 2^63
    scatters = _scatters(monkeypatch)
    x5 = word("xxxxx")
    c = _INT64_SAFE // comb(10, 5) - 1
    pairs = [(NcPoly.from_word(x5, c), NcPoly.from_word(x5, 1))] * 3
    pairs.append((NcPoly.from_word(x5, -c), NcPoly.from_word(word("yxyxy"), 1)))
    assert c * comb(10, 5) < _INT64_SAFE and 3 * c * comb(10, 5) > 1 << 63
    got = shuffle_sum(pairs)
    assert scatters == [(4 * comb(10, 5), object)]
    assert got == _summed(pairs)
    assert got.terms[word("x" * 10)] == 3 * c * comb(10, 5)
    # one block alone stays in int64, next to its bound
    scatters.clear()
    got = shuffle_sum(pairs[:1])
    assert scatters == [(comb(10, 5), np.int64)] and got == shuffle(*pairs[0])


def test_shuffle_sum_scatters_each_weight_once_until_the_buffer_fills(monkeypatch):
    # at 5 + 5 a left word of a 3 x 3 block has 3 * C(10, 5) = 756
    # products, and eight of them fill the (5 + 1) * 2^10 = 6144-element
    # gather buffer: the thirty left words of ten blocks take four
    # scatters, two blocks one, and two more blocks at weight 11 one more
    scatters = _scatters(monkeypatch)
    rng = random.Random(19)

    def part(n):
        return NcPoly({(1 << n) | u: rng.choice([1, -2, 3, 1 << 40]) for u in rng.sample(range(1 << n), 3)})

    pairs = [(part(5), part(5)) for _ in range(10)]
    mixed = pairs[:2] + [(part(5), part(6)) for _ in range(2)]
    for got_pairs, want in [
        (pairs, [6048, 6048, 6048, 4536]),
        (pairs[:2], [4536]),
        (mixed, [4536, 2 * 3 * 3 * comb(11, 5)]),
    ]:
        scatters.clear()
        got = shuffle_sum(got_pairs)
        assert [size for size, _ in scatters] == want
        assert got == _summed(got_pairs)


# -- harmonic ------------------------------------------------------------


def test_harmonic_spec_examples():
    z = NcPoly.from_index
    assert harmonic(z((2,)), z((3,))) == z((2, 3)) + z((3, 2)) + z((5,))
    assert harmonic(z((1,)), z((1,))) == 2 * z((1, 1)) + z((2,))
    w = z((1, 2))
    assert harmonic(NcPoly.one(), w) == w


@pytest.mark.parametrize("seed", range(4))
def test_harmonic_matches_grid_oracle(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        a = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        got = harmonic(NcPoly.from_index(a), NcPoly.from_index(b))
        want = NcPoly.zero()
        for idx, c in stuffle_oracle(a, b).items():
            want = want + c * NcPoly.from_index(idx)
        assert got == want, (a, b)


def test_harmonic_rejects_non_h1():
    with pytest.raises(ValueError):
        harmonic(NcPoly.from_str("xy"), NcPoly.from_str("y"))
    with pytest.raises(ValueError, match="'xxy' starts with x"):
        harmonic(NcPoly.from_str("y"), NcPoly.from_str("y") + NcPoly.from_str("xxy"))
    with pytest.raises(ValueError):
        harmonic(NcPoly.one(), NcPoly.from_str("x"))


@pytest.mark.parametrize("path", ["int", "big", "fraction"])
def test_harmonic_term_order_matches_index_reference(path):
    rng = random.Random(21)
    scale = {"int": 1, "big": 1 << 40, "fraction": Fraction(2, 7)}[path]
    for _ in range(40):
        a = scale * random_ncpoly(rng, 6, 4, h1=True)
        b = scale * random_ncpoly(rng, 6, 4, h1=True)
        got = list(harmonic(a, b).terms.items())
        assert got == list(index_harmonic(a, b).terms.items()), (a, b)
        if path == "big":  # every coefficient is a multiple of 2^80
            assert all(abs(c) > _INT64_SAFE for _, c in got)


# -- algebraic laws (property style) --------------------------------------


@st.composite
def ncpolys(draw, max_weight=8, h1=True):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        n = draw(st.integers(1 if h1 else 0, max_weight))
        bits = draw(st.integers(0, (1 << n) - 1)) if n else 0
        w = (1 << n) | bits
        if h1 and n:
            w |= 1 << (n - 1)
        terms[w] = draw(st.integers(-3, 3))
    return NcPoly(terms)


@settings(max_examples=40, deadline=None)
@given(ncpolys(), ncpolys())
def test_products_commutative(a, b):
    assert shuffle(a, b) == shuffle(b, a)
    assert harmonic(a, b) == harmonic(b, a)


@settings(max_examples=25, deadline=None)
@given(ncpolys(max_weight=5), ncpolys(max_weight=5), ncpolys(max_weight=5))
def test_products_associative(a, b, c):
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))
    assert harmonic(harmonic(a, b), c) == harmonic(a, harmonic(b, c))


@settings(max_examples=25, deadline=None)
@given(ncpolys(), ncpolys(), ncpolys())
def test_products_bilinear(a, b, c):
    assert shuffle(a, b + c) == shuffle(a, b) + shuffle(a, c)
    assert harmonic(a, b + c) == harmonic(a, b) + harmonic(a, c)
    assert shuffle(3 * a, b) == 3 * shuffle(a, b)


def test_closure_h0_h1():
    rng = random.Random(11)
    from mzvkit.words import random_word

    for _ in range(50):
        a = NcPoly.from_word(random_word(rng, 6, h0=True))
        b = NcPoly.from_word(random_word(rng, 6, h0=True))
        assert shuffle(a, b).is_h0()
        c = random_ncpoly(rng, 6, h1=True)
        d = random_ncpoly(rng, 6, h1=True)
        assert harmonic(c, d).is_h1()


# -- sigma and the contraction map ----------------------------------------


def test_sigma_spec_examples():
    assert sigma(NcPoly.from_str("y")) == poly_from_strs({"x": 1, "y": 1})
    assert sigma(NcPoly.from_str("xy")) == poly_from_strs({"xx": 1, "xy": 1})
    assert sigma(NcPoly.one()) == NcPoly.one()


def test_sigma_is_ring_hom():
    rng = random.Random(5)
    for _ in range(30):
        a = random_ncpoly(rng, 4)
        b = random_ncpoly(rng, 4)
        assert sigma(a * b) == sigma(a) * sigma(b)


def test_s_map_spec_examples():
    z = NcPoly.from_index
    assert s_map(NcPoly.from_str("yyx")) == z((3,)) + z((1, 2))
    assert s_map(NcPoly.from_str("yx")) == NcPoly.from_str("yx")
    assert s_map(NcPoly.one()) == NcPoly.one()
    with pytest.raises(ValueError):
        s_map(NcPoly.from_str("xy"))


def test_s_map_is_contraction_sum():
    # on a z-word, s_map is the contraction sum of star_expand
    for k in indices_up_to(8):
        want = NcPoly({word_of_index(kk): c for kk, c in star_expand(k).terms.items()})
        assert s_map(NcPoly.from_index(k)) == want, k

    def contraction_sums(p):
        return NcPoly().add_terms(
            (word_of_index(kk), c * d)
            for w, c in p.terms.items()
            for kk, d in star_expand(index_of_word(w)).terms.items()
        )

    # on a combination of z-words of several weights, the sum of theirs;
    # sigma(w) is s_map(y w) without its leading y, on x-first words too
    rng = random.Random(26)
    pool = indices_up_to(9)
    for _ in range(6):
        p = NcPoly(
            {word_of_index(k): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in rng.sample(pool, 120)}
        )
        assert s_map(p) == contraction_sums(p)
        q = NcPoly(
            {(1 << n) | rng.getrandbits(n): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for n in (rng.randint(0, 9) for _ in range(120))}
        )
        assert any(not in_h1(w) for w in q.terms)
        y_first = NcPoly({(3 << weight(w)) | (w ^ (1 << weight(w))): c for w, c in q.terms.items()})
        want = NcPoly({v ^ (1 << weight(v)): c for v, c in contraction_sums(y_first).terms.items()})
        assert sigma(q) == want


def test_words_outside_h1_are_refused_alike():
    msg = "word 'xy' starts with x, not in H1"
    for fn in (
        lambda: s_map(NcPoly.from_str("xy")),
        lambda: s_map(NcPoly.from_str("yx") + NcPoly.from_str("xy")),
        lambda: harmonic(NcPoly.from_str("xy"), NcPoly.one()),
        lambda: index_of_word(word("xy")),
    ):
        with pytest.raises(ValueError, match=msg):
            fn()


def test_s_map_weight_preserving_and_unitriangular():
    # on each weight-graded piece the matrix of s_map over z-words is
    # unitriangular when compositions are ordered by decreasing depth
    for n in range(1, 7):
        basis = sorted(
            (k for r in range(1, n + 1) for k in compositions(n, r)),
            key=lambda k: (-len(k), k),
        )
        pos = {k: i for i, k in enumerate(basis)}
        for k in basis:
            img = s_map(NcPoly.from_index(k))
            assert {weight(w) for w in img.terms} == {n}
            for w, c in img.terms.items():
                kk = index_of_word(w)
                if kk == k:
                    assert c == 1
                else:
                    assert pos[kk] > pos[k], (k, kk)


def test_concatenation_product():
    assert NcPoly.from_str("yx") * NcPoly.from_str("y") == NcPoly.from_str("yxy")
    a = NcPoly.from_str("x") + NcPoly.from_str("y")
    assert a * a == poly_from_strs({"xx": 1, "xy": 1, "yx": 1, "yy": 1})


def test_str_display_deterministic():
    p = 2 * NcPoly.from_str("yxyx") + 4 * NcPoly.from_str("yyxx")
    assert str(p) == "2*yxyx + 4*yyxx"
    assert str(NcPoly.zero()) == "0"
    assert str(NcPoly.one()) == "1"


def test_graded_sums_past_int64_are_exact():
    # graded factors whose norms put the riffle, the scalar blocks and the
    # grade sums past 2^62 take exact Python numbers, and agree term for
    # term with the reference shuffle and the plain sums
    rng = random.Random(62)
    big = 1 << 61

    def part(scale):  # words of weight 4 to 6, so that pairs riffle
        words = [(1 << n) | rng.getrandbits(n) for n in (rng.randint(4, 6) for _ in range(6))]
        return NcPoly({w: scale * rng.randint(-3, 3) for w in words})

    plain = [part(big if i % 2 else 3) for i in range(6)] + [NcPoly.one()]
    graded = [as_graded(p) for p in plain]
    assert all(type(g) is GradedPoly for g in graded)
    pairs = [(0, 1), (2, 3), (1, 4), (5, 5), (6, 3), (1, 6)]
    got = shuffle_sum((graded[i], graded[j]) for i, j in pairs)
    want = NcPoly()
    for i, j in pairs:
        want = want + moveaxis_shuffle(plain[i], plain[j])
    assert type(got) is GradedPoly
    assert got == want and got.terms == want.terms
    assert max(map(abs, got.terms.values())) >= 1 << 63
    assert all(type(c) is int for c in got.terms.values())
    cs = [1, 3, -2, 5, 1, -1, 7]
    total = graded_sum(zip(graded, cs))
    want = NcPoly()
    for c, p in zip(cs, plain):
        want = want + c * p
    assert total.terms == want.terms
    assert any(vec.dtype == object for vec in total.grades.values())
    # one exact Fraction coefficient turns every grade it reaches to object
    third = graded_sum([(graded[0], Fraction(1, 3))])
    assert third == Fraction(1, 3) * plain[0] and all(v.dtype == object for v in third.grades.values())
