"""Seeded inputs and cases of the benchmark workloads, plus the oracle table.

Imported by the worker process after ``src`` is on ``sys.path``.  Every
case is a thunk returning a report dict with the keys of
``mzvkit.reports.Report`` minus ``elapsed_ms``; the run fingerprints
those dicts.

The seed only varies inputs whose cost does not depend on it, because
runs of different seeds are compared with each other: in ``csf-sweep``
it picks the rotation of each cyclic class (every rotation of a class evaluates the
same nested sums, and the class order is fixed, since the first case to
touch a shared value pays for it); in ``exact-series`` it draws the random
polynomials of the law and round-trip checks, while the index strata are
fixed, since per-case latencies differ by up to 2x between rotations.
``cli-index`` runs one fixed index for the same reason.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from mzvkit import indexes, numeval, regularize, tseries, words
from mzvkit.numeval import EvalConfig

CSF_CHECKS = ("mzsv", "tsmzsv", "tsmzv_exact")
LAW_CHECKS = ("shuffle-comm", "harmonic-comm")


@dataclass(frozen=True)
class Scale:
    cutoff: int  # nested-sum cutoff N (longdouble) of every numeric case
    csf_classes_upto: int  # csf-sweep: one rotation of every class up to this weight
    csf_extra_classes: tuple[tuple[int, ...], ...]  # csf-sweep: one rotation each
    csf_order: int
    series_weights: tuple[int, ...]  # exact-series: csf_hat / class checks
    abc_weight: int
    identity_weight: int
    series_order: int
    law_shape: tuple[int, ...]  # exact-series: max word weight of each law pair
    round_trips: int  # exact-series: random polynomials of weight <= 5
    cli_index: tuple[int, ...]  # cli-index: the index given to --index
    cli_cases: int  # cli --cases


SCALES = {
    "full": Scale(
        # 10^5 rather than the CLI's default 10^6: a csf-sweep pass then
        # takes ~4 s instead of ~26 s, so a run measures several passes
        cutoff=10**5,
        csf_classes_upto=4,
        csf_extra_classes=((5,),),
        csf_order=2,
        series_weights=(7, 8),
        abc_weight=7,
        identity_weight=8,
        # t-order 2 rather than 3: a pass then takes ~2.5 s instead of ~7 s
        series_order=2,
        law_shape=(4, 4, 4),
        round_trips=4,
        cli_index=(1, 3),
        # half the CLI's default of 200: a pass takes ~4.5 s instead of
        # ~6 s, so more passes fit a run and the per-case medians steady
        cli_cases=100,
    ),
    # seconds-long variant for the benchmark's self-test
    "tiny": Scale(
        cutoff=10**5,
        csf_classes_upto=3,
        csf_extra_classes=(),
        csf_order=1,
        series_weights=(5,),
        abc_weight=4,
        identity_weight=5,
        series_order=2,
        law_shape=(4, 3),
        round_trips=2,
        cli_index=(1, 2),
        cli_cases=3,
    ),
}


@dataclass(frozen=True)
class Case:
    identity: str
    index: tuple[int, ...] | None
    run: Callable[[], dict]
    numeric: bool = False


def report(identity, index, ok, *, order=None, residuals=None, tolerance=None, detail=None) -> dict:
    return {
        "identity": identity,
        "index": list(index) if index is not None else None,
        "order": order,
        "residuals": list(residuals) if residuals is not None else ([0.0] if ok else []),
        "tolerance": tolerance,
        "pass": bool(ok),
        "detail": detail,
    }


def config(scale: Scale) -> EvalConfig:
    return EvalConfig(cutoff=scale.cutoff)


def _rotation(rng: random.Random, al: indexes.CyclicClass) -> tuple[int, ...]:
    return rng.choice(al.members)


# -- csf-sweep ------------------------------------------------------------


def csf_sweep_inputs(rng: random.Random, scale: Scale) -> list[tuple[int, ...]]:
    ks = [_rotation(rng, c) for c in indexes.all_cyclic_classes(scale.csf_classes_upto)]
    for rep in scale.csf_extra_classes:
        ks.append(_rotation(rng, indexes.CyclicClass.of(rep)))
    return ks


def warm_up(scale: Scale) -> None:
    """One uncached kernel evaluation at the run's cutoff, so that the first
    case does not also pay numpy's first-use and page-fault costs."""
    numeval.raw_partial_sum((2,), N=scale.cutoff, cfg=config(scale))


def csf_sweep_cases(rng: random.Random, scale: Scale) -> list[Case]:
    cfg = config(scale)

    def check(which, k):
        def run():
            rep = numeval.verify_csf(which, k, order=scale.csf_order, cfg=cfg)
            return report(
                rep.identity, rep.index, rep.passed, order=rep.order,
                residuals=rep.residuals, tolerance=rep.tolerance, detail=rep.detail,
            )

        return Case(f"csf-{which}", k, run, numeric=True)

    return [check(which, k) for k in csf_sweep_inputs(rng, scale) for which in CSF_CHECKS]


# -- exact-series -----------------------------------------------------------


def _strata(weight: int) -> list[indexes.CyclicClass]:
    """One fixed class per depth 2..weight-1: the middle one in sorted order."""
    classes = [c for c in indexes.all_cyclic_classes(weight) if c.weight == weight]
    out = []
    for r in range(2, weight):
        stratum = [c for c in classes if c.depth == r]
        out.append(stratum[len(stratum) // 2])
    return out


def _series_case(identity, index, order, rep) -> dict:
    return report(identity, index, rep.equal, order=order, detail=None if rep.equal else "lhs != rhs")


def exact_series_cases(rng: random.Random, scale: Scale) -> list[Case]:
    order = scale.series_order
    cases: list[Case] = []
    for w in scale.series_weights:
        for al in _strata(w):
            k = al.representative
            cases.append(Case("csf-hat-expansion", k, lambda k=k: _series_case(
                "csf-hat-expansion", k, order, tseries.verify_csf_hat(k, order))))
    for w in scale.series_weights:
        for al in _strata(w):
            cases.append(Case("class-csf-expansion", al.representative, lambda al=al: _series_case(
                "class-csf-expansion", al.representative, order, tseries.verify_class_csf_hat(al, order))))
    for al in _strata(scale.abc_weight):
        def abc(al=al):
            parts = tseries.abc_split(al, order)
            return report("splice-split-lemmas", al.representative, parts.all_ok, order=order)

        cases.append(Case("splice-split-lemmas", al.representative, abc))
    for al in _strata(scale.identity_weight):
        k = al.representative
        for name, kw in (
            ("lemma112", {}),
            ("prop1", {"j": 1}),
            ("prop2", {}),
            ("prop3", {}),
            ("csf_reduction", {"t_order": order}),
        ):
            def ident(k=k, name=name, kw=kw):
                rep = indexes.verify_index_identity(name, k, **kw)
                return report(name, k, rep.equal, order=kw.get("j", kw.get("t_order")))

            cases.append(Case(name, k, ident))
    # Random polynomials: one case per law or round trip over all of them,
    # as in the CLI's algebra-laws suite.  They are small so that these
    # three seed-dependent cases stay below the median case and leave the
    # ranks of the case percentiles to the fixed cases.
    pairs = [(words.random_ncpoly(rng, mw, h1=True), words.random_ncpoly(rng, mw, h1=True))
             for mw in scale.law_shape]
    for name, fname in zip(LAW_CHECKS, ("shuffle", "harmonic")):
        def law(name=name, fname=fname):
            prod = getattr(words, fname)  # looked up late: the tracer rebinds it
            bad = [i for i, (a, b) in enumerate(pairs) if prod(a, b) != prod(b, a)]
            return report(name, None, not bad, detail=f"pairs {bad} differ" if bad else None)

        cases.append(Case(name, None, law))
    polys = [words.random_ncpoly(rng, 5, max_terms=3, h1=True) for _ in range(scale.round_trips)]

    def round_trip():
        bad = [
            str(p) for p in polys for prod in regularize.PRODUCTS
            if regularize.recompose(regularize.decompose(p, prod), prod) != p
        ]
        return report("decompose-round-trip", None, not bad, detail="; ".join(bad) or None)

    cases.append(Case("decompose-round-trip", None, round_trip))
    return cases


# -- cli-index ----------------------------------------------------------------


def cli_argv(scale: Scale) -> list[str]:
    """The CLI runs serially: under the default thread pool the per-case
    latencies of identical runs differ by up to 10x."""
    return [
        "--suite", "all",
        "--index", ",".join(map(str, scale.cli_index)),
        "--json",
        "--jobs", "1",
        "--cutoff-N", str(scale.cutoff),
        "--cases", str(scale.cli_cases),
    ]


BUILDERS = {"csf-sweep": csf_sweep_cases, "exact-series": exact_series_cases}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- closed-form oracles --------------------------------------------------------

# Independent constants (not computed by the kernel under test).
ZETA3 = 1.2020569031595942853997381615114
ZETA5 = 1.0369277551433699263313654864570
ORACLE_TOL = 1e-8
ORACLE_DEPTH = 4


def _zeta_single(s: int) -> float:
    return {2: math.pi**2 / 6, 3: ZETA3, 4: math.pi**4 / 90, 5: ZETA5}[s]


def oracle_table(depth: int = ORACLE_DEPTH) -> list[tuple[str, tuple[int, ...], bool, float]]:
    """(name, index, star, exact value), indices up to the given depth.

    The last entry of an index is the outermost sum:
    zeta({2}^n) = pi^(2n)/(2n+1)!, zeta*(1^(n-1),2) = n zeta(n+1) and
    zeta(1^(n-1),2) = zeta(n+1).
    """
    rows = []
    for n in range(1, depth + 1):
        rows.append((f"zeta({{2}}^{n})", (2,) * n, False, math.pi ** (2 * n) / math.factorial(2 * n + 1)))
    for n in range(1, depth + 1):
        rows.append((f"zeta*(1^{n - 1},2)", (1,) * (n - 1) + (2,), True, n * _zeta_single(n + 1)))
    for n in range(2, depth + 1):
        rows.append((f"zeta(1^{n - 1},2)", (1,) * (n - 1) + (2,), False, _zeta_single(n + 1)))
    return rows


def run_oracles(scale: Scale) -> list[dict]:
    cfg = config(scale)
    out = []
    for name, k, star, exact in oracle_table():
        try:
            v = numeval.mzv_num(k, star=star, cfg=cfg)
        except Exception as exc:  # a crash is a miss, not an abort
            out.append({"name": name, "pass": False, "detail": f"error: {exc!r}"})
            continue
        residual = abs(v.value - exact)
        out.append({
            "name": name,
            "value": v.value,
            "err": v.err,
            "residual": residual,
            "tolerance": ORACLE_TOL,
            "pass": residual <= ORACLE_TOL and v.err <= ORACLE_TOL,
        })
    return out
