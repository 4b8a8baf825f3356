"""Child process of the benchmark: a fresh interpreter, so mzvkit's caches
start cold as they do for a CLI user.

    python3 perfbench/worker.py setup  --workload W --seed N [--scale S]
    python3 perfbench/worker.py pass   --workload W --seed N [--scale S] [--trace]
    python3 perfbench/worker.py oracle [--scale S]

``setup`` imports what a pass imports and builds the inputs, reports
the moment it was ready, then times the reference loops.  ``pass`` also
runs every case and reports each one's report and latency, with the
reference loops timed between cases; for ``cli-index`` the cases are
the JSON lines that ``mzvkit.cli.main`` prints when run in this process,
and the loops are timed as each line is printed.  With ``--trace`` the layer
tracer is installed first.  ``oracle`` checks the closed-form oracle
table.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


SETUP_ROUNDS = 7
_REF_N = np.arange(1, 20_001, dtype=np.longdouble)


def reference() -> dict[str, float]:
    """One timing of two fixed reference loops that call no mzvkit code:
    interpreter work on a dict of tuples (``py``), and a longdouble power,
    divide and cumsum like the nested-sum kernel's (``np``), in seconds,
    with the moment ``t`` it began.  The host's speed swings by up to 2x
    within seconds, and not by the same factor for both kinds of work;
    these times say how fast each kind runs at the moment."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(8000):
        key = (i % 89, i % 7)
        d[key] = d.get(key, 0) + i
    t1 = time.perf_counter()
    for e in (1, 2, 3, 2):
        np.cumsum(_REF_N / _REF_N**e)
    return {"t": t0, "py": t1 - t0, "np": time.perf_counter() - t1}


def _run_cases(cases, ref=reference) -> tuple[float, list[dict], list[dict]]:
    """Each case's report, start and latency, and the reference loops
    timed between cases; the wall time is the sum of the latencies."""
    out = []
    refs = [ref()]
    for case in cases:
        t = time.perf_counter()
        try:
            rep = case.run()
        except Exception as exc:  # one broken case must not hide the others
            rep = wl.report(case.identity, case.index, False, detail=f"error: {exc!r}")
        ms = (time.perf_counter() - t) * 1000
        out.append({"t": t, "ms": ms, "numeric": case.numeric, "report": rep})
        refs.append(ref())
    return sum(c["ms"] for c in out) / 1000, out, refs


class _ReportLines(io.StringIO):
    """Stdout of the CLI that times the reference loops at the end of every
    line.  The serial CLI prints each report as soon as its case ends, so
    these sit between the cases."""

    def __init__(self, ref):
        super().__init__()
        self.ref = ref
        self.refs = [ref()]
        self.ref_s = 0.0  # time spent in the loops

    def write(self, s: str) -> int:
        n = super().write(s)
        if s.endswith("\n"):
            t = time.perf_counter()
            self.refs.append(self.ref())
            self.ref_s += time.perf_counter() - t
        return n


def _run_cli(argv: list[str], ref=reference) -> tuple[float, list[dict], list[dict]]:
    from mzvkit import cli

    buf = _ReportLines(ref)
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    wall = time.perf_counter() - start - buf.ref_s
    if rc not in (0, 1):  # 1 only means a verification failed
        raise SystemExit(f"mzvkit.cli exited {rc}")
    out = []
    for line, printed in zip(buf.getvalue().splitlines(), buf.refs[1:]):
        rep = json.loads(line)
        ms = rep.pop("elapsed_ms")
        rep.setdefault("detail", None)
        out.append({"t": printed["t"] - ms / 1000, "ms": ms, "numeric": rep["tolerance"] is not None,
                    "report": rep})
    return wall, out, buf.refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "pass", "oracle"))
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", default="full", choices=sorted(wl.SCALES))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    scale = wl.SCALES[args.scale]
    if args.mode == "oracle":
        print(json.dumps({"oracle": wl.run_oracles(scale)}))
        return 0

    if args.workload == "cli-index":
        import mzvkit.cli  # noqa: F401  (set-up: the CLI's own imports)

        def run(ref):
            return _run_cli(wl.cli_argv(scale), ref)
    else:
        cases = wl.BUILDERS[args.workload](wl.rng_for(args.workload, args.seed), scale)
        if args.workload == "csf-sweep":
            wl.warm_up(scale)

        def run(ref):
            return _run_cases(cases, ref)

    result: dict = {}
    if args.mode == "setup":
        result["ready"] = time.monotonic()  # the same clock as the parent's
        refs = [reference() for _ in range(SETUP_ROUNDS)]
        result["ref"] = statistics.median(r["py"] for r in refs)
    else:
        tracer = _tracer() if args.trace else None
        # traced, the loops are a span of their own, so that the CLI's self
        # time does not include the ones timed as it prints
        ref = tracer.wrap("reference", reference) if tracer else reference
        result["wall_s"], result["cases"], result["refs"] = run(ref)
        if tracer:
            result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


def _tracer():
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


if __name__ == "__main__":
    sys.exit(main())
