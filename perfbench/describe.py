"""Record the machine and each workload's traffic as JSON.

    python3 perfbench/describe.py --seed 1 > perfbench/recorded.json

Input properties (case count, index weights and depths, cutoff, dtype)
come from the seeded inputs; the ``.reuse`` shares come from one traced
run of each workload, so this takes a few minutes.  BENCHMARK.json has
a fixed set of keys, so these records live here.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

REUSE = ("numeval.mzv_num.reuse", "numeval.zeta_hat_num.reuse", "tseries.w_star_hat.reuse")


def last_level_cache() -> str | None:
    best = None
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def machine(scale: wl.Scale) -> dict:
    fi = np.finfo(np.longdouble)
    itemsize = np.dtype(np.longdouble).itemsize
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble": {"precision_digits": int(fi.precision), "eps": float(fi.eps),
                       "mantissa_bits": int(fi.nmant) + 1, "itemsize": itemsize},
        "last_level_cache": last_level_cache(),
        "kernel_array_bytes": scale.cutoff * itemsize,
        "kernel_array_bytes_at_cli_default_N": 10**6 * itemsize,
    }


def histograms(indices) -> dict:
    ks = [tuple(k) for k in indices if k is not None]
    return {
        "weight": dict(sorted(collections.Counter(map(sum, ks)).items())),
        "depth": dict(sorted(collections.Counter(map(len, ks)).items())),
    }


def traced_reuse(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: round(metrics[k]["value"], 4) for k in REUSE}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    scale = wl.SCALES["full"]
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    out = {"machine": machine(scale), "workloads": {}}
    for name in why:
        rng = wl.rng_for(name, args.seed)
        if name == "cli-index":
            from mzvkit import cli

            index = scale.cli_index
            cli_args = cli.make_parser().parse_args(wl.cli_argv(scale))
            cli_args.index = index
            built = cli.build_cases(cli_args, wl.config(scale))
            cases = {"cases_per_pass": len(built), "index": list(index), "cutoff_N": scale.cutoff}
            hist = histograms([index])
        else:
            built = wl.BUILDERS[name](rng, scale)
            cases = {"cases_per_pass": len(built), "cutoff_N": scale.cutoff}
            hist = histograms(c.index for c in built)
        out["workloads"][name] = {
            "why": why[name],
            **cases,
            "tail_percentile": run.TAIL_PCT[name],
            "index_histogram": hist,
            "dtype": "longdouble",
            "measured_reuse": traced_reuse(name, args.seed),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
