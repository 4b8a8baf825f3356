"""Truncated t-series of word polynomials and the cyclic-sum identities.

``WordSeries`` is a ``linear.Series``: a power series in t, truncated at a
fixed order, whose coefficients are NcPolys.  On top of it this module
builds the binomially shifted reversed series F, the two-sided star series
w_star_hat and its oracle x_star_hat (a ``PosetSeries`` of the posets
behind it, read through ``w_map``), the word values of the cyclic-sum
combinations defined in ``indexes`` (per index and per cyclic class),
the A/B/C splitting of the double splice sum, and exact verifiers for
the expansion of the hatted cyclic-sum combination over plain ones, per
index and per cyclic class.
Every verifier, and each lemma of the A/B/C split, is a
``reports.ExactCheck`` between two word series.

A star word w_star(k) is ``w_map(ZigZag(k))``, the linear-extension
words of the zig-zag poset of k read off its chain lengths, with no
poset built.  Every value these series are made of has a single grade
(weight, y-count): a star word, an F coefficient (the star words of the
shifts of one t-power) and a w_star_hat coefficient (the shuffles of a
prefix star word with an F coefficient of the suffix).  So each is a
``polys.GradedPoly``, read-only int64 vectors over the words of its
grade, from the zig-zag DP to the check: an F coefficient is one
``posets.zigzag_sum`` of the cached per-index vectors, a w_star_hat
coefficient one ``words.shuffle_sum`` of graded pairs, and every sum of
symbols (the hatted cyclic-sum combinations, the A/B/C parts and their
closed forms) one ``polys.graded_sum`` per t-power (:func:`_symbol_sum`).
Their terms are unpacked only where read, as in the public series or in
the difference of a failing check; the checks compare vectors per
(t-power, grade).  A series is cached by its coefficients: the t^e
coefficient of f_series or w_star_hat does not depend on the truncation
order, so each is built once per (index, e) and a series of order n is
read off its coefficients for e <= n.  The caches are write-once and
safe to share, as graded polys are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .indexes import (
    CyclicClass,
    Index,
    check_index,
    csf_star_hat_symbols,
    csf_star_symbols,
    hat_symbols,
    last_pivots,
    shift_symbols,
    shift_terms,
    splice_symbols,
    splices,
    tail_symbols,
)
from .linear import Combo, Series
from .polys import NcPoly, graded_sum
from .posets import TwoPoset, ZigZag, disjoint_union, w_map, x_star, zigzag_sum
from .reports import ExactCheck
from .words import shuffle_sum


class WordSeries(Series):
    """Power series in t truncated at ``order``, NcPoly coefficients."""

    __slots__ = ()
    zero_coeff = NcPoly()

    @classmethod
    def one(cls, order: int) -> "WordSeries":
        return cls(order, {0: NcPoly.one()})

    @classmethod
    def from_poly(cls, p: NcPoly, order: int) -> "WordSeries":
        return cls(order, {0: p})


# -- cached building blocks -------------------------------------------

_W_STAR_CACHE: dict[Index, NcPoly] = {}


def w_star(k: Index) -> NcPoly:
    """Linear-extension word polynomial of the zig-zag poset of k,
    ``w_map(x_star(k))`` term for term."""
    k = tuple(k)
    got = _W_STAR_CACHE.get(k)
    if got is None:
        got = _W_STAR_CACHE.setdefault(k, w_map(ZigZag(k)))
    return got


def f_series(k: Index, order: int) -> WordSeries:
    """The signed shift expansion of k (``indexes.shift_symbols``) read as
    star words: a series in t of reversed shifted star words."""
    k = check_index(k)
    return WordSeries(order, {e: _f_coeff(k, e) for e in range(order + 1)})


def w_star_hat(k: Index, order: int) -> WordSeries:
    """Two-sided star series: sum over the split position of the prefix
    star word shuffled with the F-series of the suffix."""
    k = check_index(k)
    return WordSeries(order, {e: _star_hat_coeff(k, e) for e in range(order + 1)})


@lru_cache(maxsize=None)
def _f_coeff(k: Index, e: int) -> NcPoly:
    """The t^e coefficient of f_series(k, order) for every order >= e:
    the star words of the shifts with |l| = e."""
    return zigzag_sum(shift_terms(k, e))


@lru_cache(maxsize=None)
def _star_hat_coeff(k: Index, e: int) -> NcPoly:
    """The t^e coefficient of w_star_hat(k, order) for every order >= e:
    one shuffle sum over the splits; a split whose suffix coefficient is
    zero adds nothing."""
    return shuffle_sum((w_star(k[:i]), _f_coeff(k[i:], e)) for i in range(len(k) + 1))


@dataclass
class PosetSeries:
    """Truncated power series in t with 2-poset combinations as coefficients.

    Posets are kept exactly as constructed (no isomorphism collapsing);
    downstream consumers compare their w_map images.
    """

    order: int
    coeffs: dict[int, list[tuple[object, TwoPoset]]]

    def w_image(self) -> WordSeries:
        """Coefficientwise w_map."""
        return WordSeries(
            self.order,
            {e: graded_sum((w_map(poset), c) for c, poset in combos) for e, combos in self.coeffs.items()},
        )


def x_star_hat(k: Index, t_order: int) -> PosetSeries:
    """The two-sided poset combination behind the t-adic star values, the
    oracle for :func:`w_star_hat`: alternating-sign prefix posets joined
    with binomially shifted reversed suffix posets, truncated at total
    t-power t_order."""
    k = check_index(k)
    if t_order < 0:
        raise ValueError("t_order must be >= 0")
    coeffs: dict[int, list[tuple[object, TwoPoset]]] = {}
    for ((head, tail), e), c in hat_symbols(k, t_order).terms.items():
        coeffs.setdefault(e, []).append((c, disjoint_union(x_star(head), x_star(tail))))
    return PosetSeries(t_order, coeffs)


# -- cyclic-sum combinations ------------------------------------------
#
# The symbol combos of ``indexes`` are read as star words by _star_words
# and by _symbol_sum as the cached t-power coefficients of hatted star
# series (or F-series).


def _symbol_sum(parts, order: int) -> WordSeries:
    """The sum of c * coeff(key, f) * t^(e + f) over every (symbols, coeff)
    part, every symbol ((key, e), c) and every f <= order - e, where
    coeff(key, f) is the t^f coefficient of a series of key (``_f_coeff``
    or ``_star_hat_coeff``): per t-power, one ``graded_sum`` of the
    coefficient vectors."""
    powers: dict[int, list] = {}
    for symbols, coeff in parts:
        for (key, e), c in symbols.terms.items():
            for f in range(order - e + 1):
                p = coeff(key, f)
                if p:
                    powers.setdefault(e + f, []).append((p, c))
    return WordSeries(order, {e: graded_sum(terms) for e, terms in powers.items()})


def _star_words(symbols: Combo, order: int) -> WordSeries:
    """Each symbol (k, e) as w_star(k) t^e: one ``zigzag_sum`` per t-power."""
    powers: dict[int, list] = {}
    for (idx, e), c in symbols.terms.items():
        powers.setdefault(e, []).append((idx, c))
    return WordSeries(order, {e: zigzag_sum(terms) for e, terms in powers.items() if e <= order})


def _member_splices(m: Index) -> Combo:
    """Splice sum of m pivoting on its last entry, as class members do."""
    return splice_symbols(last_pivots([m]))


def _shifted_sum(build, symbols: Combo) -> Combo:
    """c * build(s) t^e summed over the symbols ((s, e), c)."""
    out = Combo()
    for (s, e), c in symbols.terms.items():
        out.add_terms(((idx, f + e), c * v) for (idx, f), v in build(s).terms.items())
    return out


def w_csf(k: Index) -> NcPoly:
    """Cyclic splice sum minus the weight multiple of the single chain;
    lands in H0."""
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    return _star_words(csf_star_symbols(k), 0).coefficient(0)


def w_csf_hat(k: Index, order: int) -> WordSeries:
    """Hatted analogue of :func:`w_csf`: splice sums of the hatted star
    series minus the t-shifted rotation tails and the weight term."""
    k = check_index(k)
    if not k:
        raise ValueError("needs a non-empty index")
    return _symbol_sum([(csf_star_hat_symbols(k, order), _star_hat_coeff)], order)


def verify_csf_hat(k: Index, order: int) -> ExactCheck:
    """Exact check that the hatted cyclic-sum combination expands over the
    plain one with binomially shifted reversed arguments."""
    k = check_index(k)
    lhs = w_csf_hat(k, order)
    u_sum = _shifted_sum(csf_star_symbols, -shift_symbols(k, order))
    rhs = _star_words(u_sum + csf_star_symbols(k), order)
    return ExactCheck("csf-hat-expansion", k, {"order": order}, lhs, rhs)


# -- cyclic-class combinations -----------------------------------------


def class_csf(alpha: CyclicClass) -> NcPoly:
    """Splice sum over the distinct members of a cyclic class, pivoting on
    the last entry of each member."""
    return _star_words(splice_symbols(last_pivots(alpha.members)), 0).coefficient(0)


def class_csf_hat(alpha: CyclicClass, order: int) -> WordSeries:
    """Hatted class splice sum minus the t-shifted member tail sums."""
    pivots = last_pivots(alpha.members)
    symbols = splice_symbols(pivots) + tail_symbols(pivots, order)
    return _symbol_sum([(symbols, _star_hat_coeff)], order)


@lru_cache(maxsize=None)
def _class_u_sum(alpha: CyclicClass, order: int) -> Combo:
    """The signed class u-sums t^|l| over every shift l with |l| <= order,
    built once per class and order for the class check and the A/B/C
    split; read-only."""
    shifts = sum((shift_symbols(m, order) for m in alpha.members), Combo())
    return _shifted_sum(_member_splices, -shifts)


def verify_class_csf_hat(alpha: CyclicClass, order: int) -> ExactCheck:
    """Exact check of the cyclic-class expansion: the hatted class splice
    sum equals the plain one plus the signed, binomially shifted ones."""
    lhs = class_csf_hat(alpha, order)
    u_sum = _class_u_sum(alpha, order)
    rhs = _star_words(u_sum + splice_symbols(last_pivots(alpha.members)), order)
    return ExactCheck("class-csf-expansion", alpha, {"order": order}, lhs, rhs)


@dataclass
class SpliceParts:
    """The A/B/C split of the double splice sum over a cyclic class, with
    one check per lemma: the parts add up to the direct sum, A has its
    telescoped closed form, B is the plain class splice sum and C has its
    Chu-Vandermonde closed form."""

    A: WordSeries
    B: WordSeries
    C: WordSeries
    checks: dict[str, ExactCheck]

    @property
    def all_ok(self) -> bool:
        return all(check.equal for check in self.checks.values())


def abc_split(alpha: CyclicClass, order: int) -> SpliceParts:
    """Compute A, B, C by their defining sums and check the three lemmas."""
    pivots = last_pivots(alpha.members)
    spliced = [idx for p, body in pivots for idx in splices(p, body)]
    # one shuffle sum per t-power over the splits with non-empty prefix and suffix
    splits = [(w_star(idx[:i]), idx[i:]) for idx in spliced for i in range(1, len(idx))]
    A = WordSeries(
        order, {e: shuffle_sum((p, _f_coeff(s, e)) for p, s in splits) for e in range(order + 1)}
    )
    B = WordSeries.from_poly(zigzag_sum((idx, 1) for idx in spliced), order)
    ones = Combo().add_terms(((idx, 0), 1) for idx in spliced)
    C = _symbol_sum([(ones, _f_coeff)], order)
    direct = _symbol_sum([(ones, _star_hat_coeff)], order)

    # the closed forms sum over the symbols (1 + l, m) t^l and (m, 1) per member m
    heads = -tail_symbols(pivots, order)
    ends = Combo().add_terms(((m + (1,), 0), 1) for m in alpha.members)
    # telescoped closed form of A
    a_closed = _symbol_sum([(heads, _star_hat_coeff), (ends - heads, _f_coeff)], order)
    # Chu-Vandermonde closed form of C
    c_closed = _star_words(_class_u_sum(alpha, order), order) + _symbol_sum([(heads - ends, _f_coeff)], order)

    sides = {
        "total": (A + B + C, direct),
        "telescoped-A": (A, a_closed),
        "B-vs-class-csf": (B, WordSeries.from_poly(class_csf(alpha), order)),
        "chu-vandermonde-C": (C, c_closed),
    }
    params = {"order": order}
    checks = {name: ExactCheck(name, alpha, params, l, r) for name, (l, r) in sides.items()}
    return SpliceParts(A, B, C, checks)
