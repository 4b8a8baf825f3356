"""mzvkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload csf-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; mzvkit is imported from ``src``.  Each
pass runs the workload in a fresh interpreter (caches cold, as for a CLI
user); passes repeat while one more pass still fits in ``--seconds``, and
there is at least one.  Times are medians over the passes.  Set-up time
is the median time from the start of a separate set-up process to its
inputs being ready (interpreter start, imports, input generation), with
one such process before each pass and at least seven.
After the passes a separate process checks the closed-form oracle table.

Every time is reported in seconds at the host's full speed.  The host's
speed swings by up to 2x within seconds, so raw wall times of identical
runs spread wider than the benchmark's bounds.  The worker therefore
times two fixed reference loops beside the work it measures: between the
cases of a pass (as the CLI prints each report, for ``cli-index``) and
after set-up.  A case's latency is scaled by ``REF_S`` over the loop time of
its kind of work measured beside it: the longdouble loop for numeric
cases, the interpreter loop for exact ones and for set-up.  A pass's
wall time and span times are scaled by the ratio of its scaled to raw
case latencies.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every pass is run
twice, untraced and traced, and the metrics are the per-layer ones.  The
line before it gives the run's result fingerprint: a digest of every case
report without its latency, residuals at full precision.  A run whose
fingerprint differs from an earlier run of the same sources, workload
and seed in this checkout is flagged and reported as not correct.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # fingerprints of earlier runs in this checkout

WORKLOADS = ("csf-sweep", "exact-series", "cli-index")
SETUP_REPEATS = 7
# highest percentile with at least ten cases beyond it (cases per pass:
# csf-sweep 36, exact-series 60, cli-index 34)
TAIL_PCT = {"csf-sweep": 72, "exact-series": 83, "cli-index": 70}
CHILD_TIMEOUT_S = 150
# Times of worker.reference()'s loops at full speed on a 2-core x86-64
# host with 80-bit longdouble (Python 3.11, numpy 2.4).
REF_S = {"py": 0.0020, "np": 0.0030}
# A case's speed is the mean of the reference timings taken from this
# long before it starts to this long after it ends, and at least of the
# two taken next to it.
REF_WINDOW_S = 0.5
RUN_BUDGET_S = 120  # no pass is started that would end later than this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "case_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "margin_digits": "digits",
}
PER_LAYER = {
    "numeval.mzv_num.calls": "count",
    "numeval.mzv_num.self_s": "s",
    "numeval.mzv_num.reuse": "ratio",
    "numeval.kernel.elems": "count",
    "numeval.kernel.bytes": "bytes-computed",
    "numeval.kernel.elems_per_s": "1/s",
    "numeval.zeta_hat_num.calls": "count",
    "numeval.zeta_hat_num.self_s": "s",
    "numeval.zeta_hat_num.reuse": "ratio",
    "numeval.verify_csf.calls": "count",
    "numeval.verify_csf.self_s": "s",
    "regularize.decompose.calls": "count",
    "regularize.decompose.self_s": "s",
    "tseries.w_star_hat.calls": "count",
    "tseries.w_star_hat.self_s": "s",
    "tseries.w_star_hat.reuse": "ratio",
    "posets.w_map.calls": "count",
    "posets.w_map.self_s": "s",
    "posets.w_map.vertices": "count",
    "words.shuffle.calls": "count",
    "words.shuffle.self_s": "s",
    "words.harmonic.calls": "count",
    "words.harmonic.self_s": "s",
    "indexes.verify_index_identity.calls": "count",
    "indexes.verify_index_identity.self_s": "s",
    "cli.run_suite.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


@dataclass
class Child:
    out: str
    err: str
    rc: int
    started: float  # time.monotonic() at the start
    rss_mb: float


def run_child(cmd: list[str]) -> Child:
    """Run one process to its end; its start time and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        p.stdout.close()
        p.stderr.close()
    return Child(out, "".join(err), p.returncode, started, usage.ru_maxrss / 1024)


def worker(mode: str, args, *extra: str) -> tuple[dict, Child]:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, *extra]
    ch = run_child(cmd)
    if ch.rc != 0:
        raise BenchError(f"worker {mode} exited {ch.rc}:\n{ch.err[-4000:]}")
    return json.loads(ch.out.splitlines()[-1]), ch


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    cases: list[dict]  # {"ms", "numeric", "report"}
    trace: dict | None = None


def one_pass(args, traced: bool) -> Pass:
    """One pass, its times scaled to full speed."""
    res, ch = worker("pass", args, *(["--trace"] if traced else []))
    cases = scaled_cases(res["cases"], res["refs"])
    k = sum(c["ms"] for c in cases) / sum(c["ms"] for c in res["cases"])
    trace = res.get("trace")
    if trace is not None:
        trace = {n: v * k if n.endswith("self_s") else v / k if n.endswith("per_s") else v
                 for n, v in trace.items()}
    return Pass(res["wall_s"] * k, ch.rss_mb, cases, trace)


def scaled_cases(cases: list[dict], refs: list[dict]) -> list[dict]:
    """The cases with each latency scaled to full speed by the reference
    loop of its kind of work: the longdouble loop for numeric cases, the
    interpreter loop for exact ones."""
    ts = [r["t"] for r in refs]  # in time order
    out = []
    for c in cases:
        kind = "np" if c["numeric"] else "py"
        start, end = c["t"], c["t"] + c["ms"] / 1000
        lo = max(0, min(bisect.bisect_left(ts, start - REF_WINDOW_S), bisect.bisect_left(ts, start) - 1))
        hi = max(bisect.bisect_right(ts, end + REF_WINDOW_S), bisect.bisect_right(ts, end) + 1)
        speed = statistics.mean(r[kind] for r in refs[lo:hi])
        out.append(dict(c, ms=c["ms"] * REF_S[kind] / speed))
    return out


def setup_time(args) -> float:
    """Start of a set-up process to its inputs being ready, scaled to full
    speed."""
    res, ch = worker("setup", args)
    return (res["ready"] - ch.started) * REF_S["py"] / res["ref"]


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def case_latencies(passes: list[Pass]) -> list[float]:
    """Each case's median latency over the passes, which all run the same
    cases in the same order; the median keeps one pass's hiccup out."""
    return [statistics.median(c["ms"] for c in same) for same in zip(*(p.cases for p in passes))]


def margin_digits(cases: list[dict], oracle: list[dict]) -> float:
    """Fewest decimal digits between a numeric result and its tolerance:
    log10(tol / residual) over numeric cases (their reports carry no error
    estimate), log10(tol / max(residual, err)) over oracle rows."""
    m = math.inf
    for c in cases:
        rep = c["report"]
        if c["numeric"] and rep["pass"]:
            for r in rep["residuals"]:
                if r > 0:
                    m = min(m, math.log10(rep["tolerance"] / r))
    for row in oracle:
        if row["pass"]:
            m = min(m, math.log10(row["tolerance"] / max(row["residual"], row["err"], 1e-300)))
    return m


def _canon(rep: dict) -> dict:
    out = dict(rep)
    out["residuals"] = [repr(r) for r in rep.get("residuals") or []]
    return out


def fingerprint(cases: list[dict]) -> str:
    blob = json.dumps([_canon(c["report"]) for c in cases], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(key: str, fp: str) -> str | None:
    """Record the fingerprint; the earlier one if it differs."""
    STATE.mkdir(exist_ok=True)
    store = STATE / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    prev = known.setdefault(key, fp)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return prev if prev != fp else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="input size; 'tiny' is for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "mzvkit" / "__init__.py").is_file():
        print(f"perfbench: no mzvkit sources under {SRC}", file=sys.stderr)
        return 2
    run_t0 = time.perf_counter()

    setups: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    measure_t0 = time.perf_counter()
    while True:
        # one set-up process before each pass, so that set-up time is
        # sampled across the run as the passes are
        setups.append(setup_time(args))
        plain.append(one_pass(args, False))
        if args.trace:
            traced.append(one_pass(args, True))
        elapsed = time.perf_counter() - measure_t0
        # stop unless one more pass of average length still ends in time
        ends = elapsed * (len(plain) + 1) / len(plain)
        if ends > args.seconds or time.perf_counter() - run_t0 + ends - elapsed > RUN_BUDGET_S:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(args))
    setup_s = statistics.median(setups)

    oracle = worker("oracle", args)[0]["oracle"]

    passes = plain + traced
    attempted = sum(len(p.cases) for p in passes) + len(oracle)
    failed = sum(not c["report"]["pass"] for p in passes for c in p.cases)
    failed += sum(not row["pass"] for row in oracle)
    for p in passes:
        for c in p.cases:
            if not c["report"]["pass"]:
                print(f"FAIL {json.dumps(c['report'])}", file=sys.stderr)
    for row in oracle:
        if not row["pass"]:
            print(f"FAIL oracle {json.dumps(row)}", file=sys.stderr)

    prints = {fingerprint(p.cases) for p in passes}
    fp = hashlib.sha256(("".join(sorted(prints)) + json.dumps(oracle, sort_keys=True)).encode()).hexdigest()
    flagged = len(prints) > 1
    if flagged:
        print("FLAG passes of this run disagree on their case reports", file=sys.stderr)
    prev = check_fingerprint(f"{source_digest()}:{args.workload}:{args.seed}:{args.scale}", fp)
    if prev is not None:
        flagged = True
        print(f"FLAG fingerprint {fp} differs from an earlier run's {prev}", file=sys.stderr)
    print(f"fingerprint {args.workload} seed={args.seed} {fp}")

    if args.trace:
        per = {}
        for name in PER_LAYER:
            vals = [p.trace[name] for p in traced if name in p.trace]
            if vals:
                per[name] = statistics.median(vals)
        traced_wall = statistics.median(p.wall_s for p in traced)
        per["trace.wall_s"] = traced_wall
        per["trace.overhead_s"] = traced_wall - statistics.median(p.wall_s for p in plain)
        values, units = per, PER_LAYER
    else:
        case_ms = case_latencies(plain)
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": setup_s,
            "case_ms_tail": percentile(case_ms, TAIL_PCT[args.workload]),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "pass_ratio": 1 - failed / attempted,
            "margin_digits": margin_digits([c for p in plain for c in p.cases], oracle),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not flagged,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
