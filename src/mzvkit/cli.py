"""Verification command line.

Runs one of the named suites over a weight sweep (or a single index with
--index), streaming one report per case either as an aligned text table
or as JSON lines.  Exit code 0 means every case passed, 1 means at least
one verification failed, 2 means the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from math import comb
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


def _timed(identity: str, index, fn: Callable[[], tuple[bool, str | None]], order=None) -> Report:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # surface, do not crash the sweep
        ok, detail = False, f"error: {exc}"
    return Report(
        identity=identity,
        index=index,
        order=order,
        residuals=[0.0] if ok else [],
        tolerance=None,
        passed=ok,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
        detail=detail,
    )


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


Case = tuple[str, Callable[[], Report]]


def _indices(args) -> list[tuple[int, ...]]:
    if args.index is not None:
        return [args.index]
    return indexes.indices_up_to(args.max_weight)


def _classes(args, max_weight=None) -> list[indexes.CyclicClass]:
    if args.index is not None:
        return [indexes.CyclicClass.of(args.index)]
    return indexes.all_cyclic_classes(max_weight or args.max_weight)


def _algebra_cases(args, cfg) -> list[Case]:
    w = args.max_weight

    def law(name, check, count) -> Case:
        def run():
            rng = random.Random(f"{_SEED}:{name}")  # per case: independent of the cases run before

            def body():
                for i in range(count):
                    ok, detail = check(rng)
                    if not ok:
                        return False, f"case {i}: {detail}"
                return True, f"{count} random cases, weight<={w}"

            return _timed(name, None, body)

        return name, run

    def comm(rng):
        a = words.random_ncpoly(rng, w, h1=True)
        b = words.random_ncpoly(rng, w, h1=True)
        if words.shuffle(a, b) != words.shuffle(b, a):
            return False, f"shuffle comm: {a} | {b}"
        if words.harmonic(a, b) != words.harmonic(b, a):
            return False, f"harmonic comm: {a} | {b}"
        return True, None

    def assoc(rng):
        a = words.random_ncpoly(rng, w // 2 + 1, h1=True)
        b = words.random_ncpoly(rng, w // 2 + 1, h1=True)
        c = words.random_ncpoly(rng, w // 2 + 1, h1=True)
        if words.shuffle(words.shuffle(a, b), c) != words.shuffle(a, words.shuffle(b, c)):
            return False, "shuffle assoc"
        if words.harmonic(words.harmonic(a, b), c) != words.harmonic(a, words.harmonic(b, c)):
            return False, "harmonic assoc"
        return True, None

    def distrib(rng):
        a = words.random_ncpoly(rng, w, h1=True)
        b = words.random_ncpoly(rng, w, h1=True)
        c = words.random_ncpoly(rng, w, h1=True)
        lhs = words.shuffle(a, b + c)
        if lhs != words.shuffle(a, b) + words.shuffle(a, c):
            return False, "shuffle distributivity"
        if words.harmonic(a, b + c) != words.harmonic(a, b) + words.harmonic(a, c):
            return False, "harmonic distributivity"
        return True, None

    def closure(rng):
        a = words.NcPoly.from_word(words.random_word(rng, w, h0=True))
        b = words.NcPoly.from_word(words.random_word(rng, w, h0=True))
        if not words.shuffle(a, b).is_h0():
            return False, "shuffle H0 closure"
        c = words.random_ncpoly(rng, w, h1=True)
        d = words.random_ncpoly(rng, w, h1=True)
        if not words.harmonic(c, d).is_h1():
            return False, "harmonic H1 closure"
        return True, None

    n = args.cases
    return [
        law("shuffle/harmonic-commutative", comm, n),
        law("shuffle/harmonic-associative", assoc, n),
        law("product-distributivity", distrib, max(1, n // 5)),
        law("subspace-closure", closure, max(1, n // 5)),
    ]


def _poset_cases(args, cfg) -> list[Case]:
    out: list[Case] = []

    def hom() -> Report:
        rng = random.Random(f"{_SEED}:hom")

        def body():
            for i in range(args.cases):
                a = posets.random_2poset(rng, 1, 4, admissible=True)
                b = posets.random_2poset(rng, 1, 4, admissible=True)
                lhs = posets.w_map(posets.disjoint_union(a, b))
                if lhs != words.shuffle(posets.w_map(a), posets.w_map(b)):
                    return False, f"{a.describe()} | {b.describe()}"
            return True, f"{args.cases} random admissible pairs"

        return _timed("w-map-disjoint-union", None, body)

    def w2() -> Report:
        rng = random.Random(f"{_SEED}:w2")

        def body():
            done = 0
            while done < args.cases:
                p = posets.random_2poset(rng, 2, 8)
                pairs = [
                    (a, b)
                    for a in range(p.n)
                    for b in range(a + 1, p.n)
                    if not p.comparable(a, b)
                ]
                if not pairs:
                    continue
                a, b = rng.choice(pairs)
                if posets.w_map(p) != posets.w_map(p.with_relation(a, b)) + posets.w_map(
                    p.with_relation(b, a)
                ):
                    return False, p.describe()
                done += 1
            return True, f"{args.cases} random non-comparable splits"

        return _timed("w-map-order-split", None, body)

    def collapse() -> Report:
        def body():
            for c in range(0, 7):
                for d in range(0, 7 - c):
                    lhs = posets.w_map(posets.double_chain(c, d))
                    rhs = comb(c + d, c) * posets.w_map(posets.double_chain(c + d, 0))
                    if lhs != rhs:
                        return False, f"c={c} d={d}"
            return True, "all c+d<=6"

        return _timed("binomial-chain-collapse", None, body)

    def shifting() -> Report:
        def body():
            for kk in range(1, 5):
                if not posets.check_shifting(kk, args.t_order):
                    return False, f"k={kk}"
            return True, f"k<=4, order<={args.t_order}"

        return _timed("chain-shifting-series", None, body)

    def chains() -> Report:
        def body():
            for kk in range(1, 9):
                if posets.w_map(posets.x_star((kk,))) != words.NcPoly.from_index((kk,)):
                    return False, f"k={kk}"
            got = posets.w_map(posets.x_star((2, 2)))
            want = words.NcPoly({words.word("yxyx"): 1, words.word("yyxx"): 4})
            if got != want:
                return False, "(2,2) zig-zag"
            return True, "chains k<=8 and the (2,2) zig-zag"

        return _timed("zig-zag-words", None, body)

    def admissibility() -> Report:
        def body():
            for k in indexes.indices_up_to(min(args.max_weight, 6)):
                p = posets.x_star(k)
                adm = posets.is_admissible(p)
                if adm != (k[-1] >= 2):
                    return False, f"{k}"
                if adm != posets.w_map(p).is_h0():
                    return False, f"{k}: H0 mismatch"
            return True, None

        return _timed("zig-zag-admissibility", None, body)

    out.append(("w-map-disjoint-union", hom))
    out.append(("w-map-order-split", w2))
    out.append(("binomial-chain-collapse", collapse))
    out.append(("chain-shifting-series", shifting))
    out.append(("zig-zag-words", chains))
    out.append(("zig-zag-admissibility", admissibility))
    return out


def _regularization_cases(args, cfg) -> list[Case]:
    out: list[Case] = []

    def round_trip() -> Report:
        rng = random.Random(f"{_SEED}:round-trip")

        def body():
            for i in range(args.cases):
                p = words.random_ncpoly(rng, 7, max_terms=3, h1=True)
                for prod in ("sh", "ast"):
                    parts = regularize.decompose(p, prod)
                    if regularize.recompose(parts, prod) != p:
                        return False, f"{prod}: {p}"
                    if not all(a.is_h0() for a in parts):
                        return False, f"{prod}: non-admissible coefficient for {p}"
            return True, f"{args.cases} random H1 elements, both products"

        return _timed("decompose-round-trip", None, body)

    zeta = regularize.default_zeta_source(cfg)

    def rho_inverse() -> Report:
        def body():
            for n in range(7):
                p = regularize.NumericPolyT.monomial(n)
                for a, b in (("rho_inv", "rho"), ("rho_star_inv", "rho_star")):
                    got = regularize.rho_apply(regularize.rho_apply(p, a, zeta), b, zeta)
                    for i in range(n + 1):
                        want = 1.0 if i == n else 0.0
                        if abs(got.coefficient(i).value - want) > 1e-9:
                            return False, f"{b} o {a} at T^{n}"
            return True, "degrees <= 6"

        return _timed("rho-inverse-pairs", None, body)

    def sin_check() -> Report:
        def body():
            for n in range(7):
                got = regularize.rho_apply(
                    regularize.rho_apply(regularize.NumericPolyT.monomial(n), "rho_inv", zeta),
                    "rho_star",
                    zeta,
                )
                if abs(got.coefficient(n).value - 1.0) > 1e-9:
                    return False, f"T^{n} leading"
                if n >= 1 and abs(got.coefficient(n - 1).value) > 1e-9:
                    return False, f"T^{n} subleading"
                if got.max_residual(regularize.sin_correction(n)) > 1e-9:
                    return False, f"T^{n} pi-series"
            return True, "degrees <= 6"

        return _timed("rho-star-correction", None, body)

    out.append(("decompose-round-trip", round_trip))
    out.append(("rho-inverse-pairs", rho_inverse))
    out.append(("rho-star-correction", sin_check))
    for k in _indices(args):
        out.append(
            (
                f"rho-plain {k}",
                lambda k=k: regularize.verify_reg_relation("plain", k, cfg),
            )
        )
        out.append(
            (
                f"rho-star {k}",
                lambda k=k: regularize.verify_reg_relation("star", k, cfg),
            )
        )
        out.append((f"star-reg {k}", lambda k=k: regularize.compare_star_regs(k, cfg)))
    return out


def _index_identity_cases(args, cfg) -> list[Case]:
    out: list[Case] = []

    def star_round(k) -> Report:
        def body():
            got = indexes.star_invert(k).map_linear(indexes.star_expand)
            if got == indexes.IndexCombo.of(k):
                return True, None
            return False, str(got)

        return _timed("star-inversion-round-trip", k, body)

    def policy(k) -> Report:
        def body():
            for m in range(len(k)):
                if indexes.cyclic_symmetrized_s_m(k, m, "first") != indexes.cyclic_symmetrized_s_m(
                    k, m, "last"
                ):
                    return False, f"m={m}"
            return True, None

        return _timed("cyclic-contraction-policy", k, body)

    for k in _indices(args):
        out.append((f"star-round {k}", lambda k=k: star_round(k)))
        out.append((f"policy {k}", lambda k=k: policy(k)))
        out.append(
            (
                f"lemma112 {k}",
                lambda k=k: _timed(
                    "lemma112", k, lambda: _exact(indexes.verify_index_identity("lemma112", k))
                ),
            )
        )
        for j in range(5):
            out.append(
                (
                    f"prop1 {k} j={j}",
                    lambda k=k, j=j: _timed(
                        "prop1",
                        k,
                        lambda: _exact(indexes.verify_index_identity("prop1", k, j=j)),
                        order=j,
                    ),
                )
            )
        out.append(
            (
                f"prop2 {k}",
                lambda k=k: _timed(
                    "prop2", k, lambda: _exact(indexes.verify_index_identity("prop2", k))
                ),
            )
        )
        out.append(
            (
                f"prop3 {k}",
                lambda k=k: _timed(
                    "prop3", k, lambda: _exact(indexes.verify_index_identity("prop3", k))
                ),
            )
        )
        out.append(
            (
                f"csf_reduction {k}",
                lambda k=k: _timed(
                    "csf_reduction",
                    k,
                    lambda: _exact(
                        indexes.verify_index_identity("csf_reduction", k, t_order=args.t_order)
                    ),
                    order=args.t_order,
                ),
            )
        )
    return out


def _second_main_cases(args, cfg) -> list[Case]:
    return [
        (
            f"csf-hat {k}",
            lambda k=k: _timed(
                "csf-hat-expansion",
                k,
                lambda: _exact(tseries.verify_csf_hat(k, args.t_order)),
                order=args.t_order,
            ),
        )
        for k in _indices(args)
    ]


def _key_prop_cases(args, cfg) -> list[Case]:
    out: list[Case] = []
    for al in _classes(args):
        out.append(
            (
                f"class-csf {al}",
                lambda al=al: _timed(
                    "class-csf-expansion",
                    al.representative,
                    lambda: _exact(tseries.verify_class_csf_hat(al, args.t_order)),
                    order=args.t_order,
                ),
            )
        )
    # splice-split lemma checks run one weight lower than the expansion sweep
    abc_weight = max(1, args.max_weight - 1)
    for al in _classes(args, max_weight=abc_weight):
        out.append(
            (
                f"abc {al}",
                lambda al=al: _timed(
                    "splice-split-lemmas",
                    al.representative,
                    lambda: _abc_ok(al, args.t_order),
                    order=args.t_order,
                ),
            )
        )
    return out


def _abc_ok(al, order) -> tuple[bool, str | None]:
    checks = tseries.abc_split(al, order).checks
    bad = [name for name, check in checks.items() if not check.equal]
    return not bad, "failed: " + ",".join(bad) if bad else None


def _csf_mzsv_cases(args, cfg) -> list[Case]:
    out: list[Case] = []

    def oracles() -> Report:
        import math

        def body():
            v = numeval.mzv_num((2,), cfg=cfg)
            if abs(v.value - math.pi**2 / 6) >= 1e-8:
                return False, f"single zeta(2): {v.value}"
            a = numeval.mzv_num((1, 2), cfg=cfg)
            b = numeval.mzv_num((3,), cfg=cfg)
            if abs(a.value - b.value) >= 1e-8:
                return False, "depth-2 reduction to zeta(3)"
            s = numeval.mzv_num((1, 2), star=True, cfg=cfg)
            if abs(s.value - 2 * b.value) >= 1e-8:
                return False, "star depth-2 vs 2 zeta(3)"
            return True, "pi^2/6, Euler reduction, star double"

        return _timed("mzv-oracles", None, body)

    out.append(("mzv-oracles", oracles))
    for k in _indices(args):
        out.append((f"mzsv {k}", lambda k=k: numeval.verify_csf("mzsv", k, cfg=cfg)))
    return out


def _csf_series_cases(args, cfg, which: str) -> list[Case]:
    return [
        (
            f"{which} {k}",
            lambda k=k: numeval.verify_csf(which, k, order=args.t_order, cfg=cfg),
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
        help="summation cutoff of the nested-sum method; checked but unused,"
        " since the CLI evaluates by Hölder convolution (default 1e6)",
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
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
