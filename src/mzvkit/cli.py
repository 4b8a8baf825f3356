"""Verification command line.

Runs one of the named suites over a weight sweep (or a single index with
--index), streaming one report per case either as an aligned text table
or as JSON lines.  A case that raises is reported as a failing row whose
detail starts with ``error:``, and the sweep goes on.  Exit code 0 means
every case passed, 1 means at least one verification failed, 2 means the
invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from functools import partial
from math import comb, pi
from typing import Callable

from . import indexes, numeval, posets, regularize, tseries, words
from .numeval import EvalConfig
from .reports import ExactCheck, Report

SUITES = (
    "algebra-laws",
    "poset-laws",
    "regularization",
    "index-identities",
    "second-main",
    "key-prop",
    "csf-mzsv",
    "csf-tsmzsv",
    "csf-tsmzv-exact",
    "all",
)

_SEED = 0x5EED  # fixed: suite output must be deterministic


def parse_index(s: str) -> tuple[int, ...]:
    """Comma-separated positive ints; empty string is the empty index."""
    s = s.strip()
    if not s:
        return ()
    parts = []
    for pos, tok in enumerate(s.split(","), start=1):
        tok = tok.strip()
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"token {pos}: {tok!r} is not an integer") from None
        if v < 1:
            raise ValueError(f"token {pos}: {v} is not a positive integer")
        parts.append(v)
    return tuple(parts)


_DETAIL_TERMS = 4  # terms of lhs - rhs shown when an exact check fails


def _exact(check: ExactCheck) -> tuple[bool, str | None]:
    """Pass, or fail with the first few terms of lhs - rhs and their count
    (the sides themselves can have thousands of terms)."""
    if check.equal:
        return True, None
    terms = [f"{c}*{label}" for label, c in check.diff_terms()]
    shown = " + ".join(terms[:_DETAIL_TERMS])
    if len(terms) > _DETAIL_TERMS:
        shown += " + ..."
    return False, f"lhs - rhs has {len(terms)} terms: {shown}"


Body = Callable[[], object]  # returns a numeric Report or an exact (ok, detail)
Case = tuple[str, Callable[[], Report]]


def _run_case(identity: str, index, body: Body, order) -> Report:
    """The one runner: times the body and turns an exact outcome
    (ok, detail) into a row; a body that raises is a failing row, so one
    broken case does not stop the sweep."""
    t0 = time.perf_counter()
    try:
        got = body()
        rep = got if isinstance(got, Report) else Report.exact(identity, index, *got, order=order)
    except Exception as exc:
        rep = Report.exact(identity, index, False, f"error: {exc}", order)
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000
    return rep


def _case(label: str, identity: str, index, body: Body, order=None) -> Case:
    return label, lambda: _run_case(identity, index, body, order)


def _exact_case(label: str, identity: str, index, check: Callable[[], ExactCheck], order=None):
    return _case(label, identity, index, lambda: _exact(check()), order)


def _named(cases: list[tuple[str, Body]]) -> list[Case]:
    """Index-free cases whose label is their identity."""
    return [_case(name, name, None, body) for name, body in cases]


def _indices(args) -> list[tuple[int, ...]]:
    if args.index is not None:
        return [args.index]
    return indexes.indices_up_to(args.max_weight)


def _classes(args, max_weight=None) -> list[indexes.CyclicClass]:
    if args.index is not None:
        return [indexes.CyclicClass.of(args.index)]
    return indexes.all_cyclic_classes(max_weight or args.max_weight)


def _algebra_cases(args, cfg) -> list[Case]:
    w, n = args.max_weight, args.cases
    products = (("shuffle", words.shuffle), ("harmonic", words.harmonic))

    def h1(rng, weight=w):
        return words.random_ncpoly(rng, weight, h1=True)

    # each check draws its polynomials and returns what failed, or None
    def comm(rng):
        a, b = h1(rng), h1(rng)
        for name, prod in products:
            if prod(a, b) != prod(b, a):
                return f"{name} comm: {a} | {b}"

    def assoc(rng):
        a, b, c = (h1(rng, w // 2 + 1) for _ in range(3))
        for name, prod in products:
            if prod(prod(a, b), c) != prod(a, prod(b, c)):
                return f"{name} assoc"

    def distrib(rng):
        a, b, c = h1(rng), h1(rng), h1(rng)
        for name, prod in products:
            if prod(a, b + c) != prod(a, b) + prod(a, c):
                return f"{name} distributivity"

    def closure(rng):
        a, b = (words.NcPoly.from_word(words.random_word(rng, w, h0=True)) for _ in range(2))
        c, d = h1(rng), h1(rng)
        if not words.shuffle(a, b).is_h0():
            return "shuffle H0 closure"
        if not words.harmonic(c, d).is_h1():
            return "harmonic H1 closure"

    def law(name, check, count) -> tuple[str, Body]:
        def body():
            rng = random.Random(f"{_SEED}:{name}")  # per case: independent of the cases run before
            for i in range(count):
                bad = check(rng)
                if bad:
                    return False, f"case {i}: {bad}"
            return True, f"{count} random cases, weight<={w}"

        return name, body

    return _named(
        [
            law("shuffle/harmonic-commutative", comm, n),
            law("shuffle/harmonic-associative", assoc, n),
            law("product-distributivity", distrib, max(1, n // 5)),
            law("subspace-closure", closure, max(1, n // 5)),
        ]
    )


def _poset_cases(args, cfg) -> list[Case]:
    n = args.cases

    def hom():
        rng = random.Random(f"{_SEED}:hom")
        for _ in range(n):
            a = posets.random_2poset(rng, 1, 4, admissible=True)
            b = posets.random_2poset(rng, 1, 4, admissible=True)
            lhs = posets.w_map(posets.disjoint_union(a, b))
            if lhs != words.shuffle(posets.w_map(a), posets.w_map(b)):
                return False, f"{a.describe()} | {b.describe()}"
        return True, f"{n} random admissible pairs"

    def w2():
        rng = random.Random(f"{_SEED}:w2")
        done = 0
        while done < n:
            p = posets.random_2poset(rng, 2, 8)
            pairs = [(a, b) for a in range(p.n) for b in range(a + 1, p.n) if not p.comparable(a, b)]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            if posets.w_map(p) != posets.w_map(p.with_relation(a, b)) + posets.w_map(
                p.with_relation(b, a)
            ):
                return False, p.describe()
            done += 1
        return True, f"{n} random non-comparable splits"

    def collapse():
        for c in range(0, 7):
            for d in range(0, 7 - c):
                lhs = posets.w_map(posets.double_chain(c, d))
                if lhs != comb(c + d, c) * posets.w_map(posets.double_chain(c + d, 0)):
                    return False, f"c={c} d={d}"
        return True, "all c+d<=6"

    def shifting():
        for kk in range(1, 5):
            if not posets.check_shifting(kk, args.t_order):
                return False, f"k={kk}"
        return True, f"k<=4, order<={args.t_order}"

    def chains():
        for kk in range(1, 9):
            if posets.w_map(posets.x_star((kk,))) != words.NcPoly.from_index((kk,)):
                return False, f"k={kk}"
        got = posets.w_map(posets.x_star((2, 2)))
        if got != words.NcPoly({words.word("yxyx"): 1, words.word("yyxx"): 4}):
            return False, "(2,2) zig-zag"
        return True, "chains k<=8 and the (2,2) zig-zag"

    def admissibility():
        for k in indexes.indices_up_to(min(args.max_weight, 6)):
            p = posets.x_star(k)
            adm = posets.is_admissible(p)
            if adm != (k[-1] >= 2):
                return False, f"{k}"
            if adm != posets.w_map(p).is_h0():
                return False, f"{k}: H0 mismatch"
        return True, None

    return _named(
        [
            ("w-map-disjoint-union", hom),
            ("w-map-order-split", w2),
            ("binomial-chain-collapse", collapse),
            ("chain-shifting-series", shifting),
            ("zig-zag-words", chains),
            ("zig-zag-admissibility", admissibility),
        ]
    )


def _regularization_cases(args, cfg) -> list[Case]:
    def round_trip():
        rng = random.Random(f"{_SEED}:round-trip")
        for _ in range(args.cases):
            p = words.random_ncpoly(rng, 7, max_terms=3, h1=True)
            for prod in ("sh", "ast"):
                parts = regularize.decompose(p, prod)
                if regularize.recompose(parts, prod) != p:
                    return False, f"{prod}: {p}"
                if not all(a.is_h0() for a in parts):
                    return False, f"{prod}: non-admissible coefficient for {p}"
        return True, f"{args.cases} random H1 elements, both products"

    def rho_inverse():
        for n in range(7):
            p = regularize.NumericPolyT.monomial(n)
            for a, b in (("rho_inv", "rho"), ("rho_star_inv", "rho_star")):
                got = regularize.rho_apply(regularize.rho_apply(p, a), b)
                for i in range(n + 1):
                    want = 1.0 if i == n else 0.0
                    if abs(got.coefficient(i).value - want) > 1e-9:
                        return False, f"{b} o {a} at T^{n}"
        return True, "degrees <= 6"

    def sin_check():
        for n in range(7):
            got = regularize.rho_apply(
                regularize.rho_apply(regularize.NumericPolyT.monomial(n), "rho_inv"), "rho_star"
            )
            if abs(got.coefficient(n).value - 1.0) > 1e-9:
                return False, f"T^{n} leading"
            if n >= 1 and abs(got.coefficient(n - 1).value) > 1e-9:
                return False, f"T^{n} subleading"
            if got.max_residual(regularize.sin_correction(n)) > 1e-9:
                return False, f"T^{n} pi-series"
        return True, "degrees <= 6"

    out = _named(
        [
            ("decompose-round-trip", round_trip),
            ("rho-inverse-pairs", rho_inverse),
            ("rho-star-correction", sin_check),
        ]
    )
    for k in _indices(args):
        for which in ("plain", "star"):
            rho = lambda k=k, which=which: regularize.verify_reg_relation(which, k, cfg)  # noqa: E731
            out.append(_case(f"rho-{which} {k}", f"rho-comparison-{which}", k, rho))
        star_reg = lambda k=k: regularize.compare_star_regs(k, cfg)  # noqa: E731
        out.append(_case(f"star-reg {k}", "reg-star-compare", k, star_reg))
    return out


def _index_identity_cases(args, cfg) -> list[Case]:
    def star_round(k):
        got = indexes.star_map(indexes.star_invert(k))
        return (True, None) if got == indexes.IndexCombo.of(k) else (False, str(got))

    def policy(k):
        for m in range(len(k)):
            first = indexes.cyclic_symmetrized_s_m(k, m, "first")
            if first != indexes.cyclic_symmetrized_s_m(k, m, "last"):
                return False, f"m={m}"
        return True, None

    def ident(name, k, order=None, label=None, **kw) -> Case:
        check = lambda: indexes.verify_index_identity(name, k, **kw)  # noqa: E731
        return _exact_case(label or f"{name} {k}", name, k, check, order)

    out: list[Case] = []
    for k in _indices(args):
        out.append(_case(f"star-round {k}", "star-inversion-round-trip", k, partial(star_round, k)))
        out.append(_case(f"policy {k}", "cyclic-contraction-policy", k, partial(policy, k)))
        out.append(ident("lemma112", k))
        out += [ident("prop1", k, j, f"prop1 {k} j={j}", j=j) for j in range(5)]
        out += [ident("prop2", k), ident("prop3", k)]
        out.append(ident("csf_reduction", k, args.t_order, t_order=args.t_order))
    return out


def _second_main_cases(args, cfg) -> list[Case]:
    order = args.t_order
    return [
        _exact_case(
            f"csf-hat {k}", "csf-hat-expansion", k, lambda k=k: tseries.verify_csf_hat(k, order), order
        )
        for k in _indices(args)
    ]


def _key_prop_cases(args, cfg) -> list[Case]:
    order = args.t_order

    def abc(al):
        checks = tseries.abc_split(al, order).checks
        bad = [name for name, check in checks.items() if not check.equal]
        return not bad, "failed: " + ",".join(bad) if bad else None

    out = [
        _exact_case(
            f"class-csf {al}",
            "class-csf-expansion",
            al.representative,
            lambda al=al: tseries.verify_class_csf_hat(al, order),
            order,
        )
        for al in _classes(args)
    ]
    # splice-split lemma checks run one weight lower than the expansion sweep
    for al in _classes(args, max_weight=max(1, args.max_weight - 1)):
        out.append(_case(f"abc {al}", "splice-split-lemmas", al.representative, partial(abc, al), order))
    return out


def _csf_mzsv_cases(args, cfg) -> list[Case]:
    def oracles():
        v = numeval.mzv_num((2,))
        if abs(v.value - pi**2 / 6) >= 1e-8:
            return False, f"single zeta(2): {v.value}"
        a = numeval.mzv_num((1, 2))
        b = numeval.mzv_num((3,))
        if abs(a.value - b.value) >= 1e-8:
            return False, "depth-2 reduction to zeta(3)"
        s = numeval.mzv_num((1, 2), star=True)
        if abs(s.value - 2 * b.value) >= 1e-8:
            return False, "star depth-2 vs 2 zeta(3)"
        return True, "pi^2/6, Euler reduction, star double"

    return _named([("mzv-oracles", oracles)]) + [
        _case(f"mzsv {k}", "csf-mzsv", k, lambda k=k: numeval.verify_csf("mzsv", k, cfg=cfg))
        for k in _indices(args)
    ]


def _csf_series_cases(args, cfg, which: str) -> list[Case]:
    order = args.t_order
    return [
        _case(
            f"{which} {k}",
            f"csf-{which}",
            k,
            lambda k=k: numeval.verify_csf(which, k, order=order, cfg=cfg),
            order,
        )
        for k in _indices(args)
    ]


_SUITE_BUILDERS = {
    "algebra-laws": _algebra_cases,
    "poset-laws": _poset_cases,
    "regularization": _regularization_cases,
    "index-identities": _index_identity_cases,
    "second-main": _second_main_cases,
    "key-prop": _key_prop_cases,
    "csf-mzsv": _csf_mzsv_cases,
    "csf-tsmzsv": lambda a, c: _csf_series_cases(a, c, "tsmzsv"),
    "csf-tsmzv-exact": lambda a, c: _csf_series_cases(a, c, "tsmzv_exact"),
}


def build_cases(args, cfg) -> list[Case]:
    names = list(_SUITE_BUILDERS) if args.suite == "all" else [args.suite]
    cases: list[Case] = []
    for name in names:
        cases.extend(_SUITE_BUILDERS[name](args, cfg))
    return cases


# suites whose t-adic zig-zag posets have wt(k) + t + 1 vertices; the
# poset-laws suite's chain-shifting fixtures (k <= 4) have up to t + 5;
# the regularization suite's star words have wt(k); the others build none
_HAT_POSET_SUITES = ("second-main", "key-prop", "csf-tsmzsv", "csf-tsmzv-exact", "all")
_SHIFTING_SUITES = ("poset-laws", "all")


def _largest_poset(args) -> int:
    """Vertices of the largest poset the suite builds from the weight in
    play (the index's weight, else --max-weight) and the t-order."""
    w = sum(args.index) if args.index is not None else args.max_weight
    n = w if args.suite == "regularization" else 0
    if args.suite in _HAT_POSET_SUITES:
        n = w + args.t_order + 1
    if args.suite in _SHIFTING_SUITES:
        n = max(n, args.t_order + 5)
    return n


def run_suite(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    cases = build_cases(args, EvalConfig(cutoff=args.cutoff_N, tol=args.tol))
    all_ok = True
    for _, thunk in cases:
        rep = thunk()
        all_ok &= rep.passed
        print(rep.to_json() if args.json else rep.text_row(), file=out)
    return 0 if all_ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzvkit",
        description="Verify the word-algebra, poset, series and numeric identities.",
    )
    ap.add_argument("--suite", required=True, choices=SUITES)
    ap.add_argument("--max-weight", type=int, default=5, help="index weight bound (default 5)")
    ap.add_argument("--t-order", type=int, default=2, help="series truncation order (default 2)")
    ap.add_argument("--index", type=str, default=None, help="single-case mode: one index like '1,2'")
    ap.add_argument(
        "--cutoff-N",
        type=int,
        default=10**6,
        help="summation cutoff of raw partial sums; checked but unused,"
        " since every value comes from Hölder convolution (default 1e6)",
    )
    ap.add_argument("--tol", type=float, default=None, help="override comparison tolerance")
    ap.add_argument("--json", action="store_true", help="one JSON object per line")
    ap.add_argument(
        "--jobs", type=int, default=1, help="kept for compatibility; cases run serially (default 1)"
    )
    ap.add_argument(
        "--cases", type=int, default=200, help="random cases per law check (default 200)"
    )
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    if args.max_weight < 1 or args.t_order < 0:
        ap.error("--max-weight must be >= 1 and --t-order >= 0")
    if args.jobs < 1 or args.cases < 1:
        ap.error("--jobs and --cases must be >= 1")
    try:  # EvalConfig holds the cutoff and tolerance rules; run_suite builds it again
        EvalConfig(cutoff=args.cutoff_N, tol=args.tol)
    except ValueError as exc:
        ap.error(f"--cutoff-N/--tol: {exc}")
    if args.index is not None:
        try:
            args.index = parse_index(args.index)
        except ValueError as exc:
            ap.error(f"--index: {exc}")
        if not args.index:
            ap.error("--index: single-case mode needs a non-empty index")
    n = _largest_poset(args)
    if n > posets._MAX_WMAP_VERTICES:
        t_suites = _HAT_POSET_SUITES + _SHIFTING_SUITES
        at = f" at --t-order {args.t_order}" if args.suite in t_suites else ""
        flags = "--t-order" if args.suite == "poset-laws" else "--index/--max-weight"
        ap.error(
            f"{flags}: suite {args.suite}{at} needs posets"
            f" of {n} vertices; w_map takes at most {posets._MAX_WMAP_VERTICES}"
        )
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
