"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
and that a traced run sees work in each layer its workload was chosen for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# calls that must be nonzero (or zero) in a traced run of each workload
NONZERO = {
    "csf-sweep": ["numeval.mzv_num", "numeval.zeta_hat_num", "numeval.verify_csf",
                  "regularize.decompose", "tseries.w_star_hat", "posets.w_map", "words.shuffle"],
    "exact-series": ["tseries.w_star_hat", "posets.w_map", "words.shuffle", "words.harmonic",
                     "indexes.verify_index_identity", "regularize.decompose"],
    "cli-index": ["numeval.mzv_num", "numeval.zeta_hat_num", "numeval.verify_csf",
                  "regularize.decompose", "tseries.w_star_hat", "posets.w_map", "words.shuffle",
                  "words.harmonic", "indexes.verify_index_identity"],
}
ZERO = {"exact-series": ["numeval.mzv_num", "numeval.zeta_hat_num", "numeval.verify_csf"]}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


def check_units(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(bench(workload, 0))
    check_units(out["metrics"], SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["value"] != 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    out = result(bench(workload, 1))
    check_units(out["metrics"], SPEC["per_layer"])
    values = {k: v["value"] for k, v in out["metrics"].items()}
    for layer in NONZERO[workload]:
        assert values[f"{layer}.calls"] > 0, layer
    for layer in ZERO.get(workload, []):
        assert values[f"{layer}.calls"] == 0, layer
    if workload == "cli-index":
        assert values["cli.run_suite.self_s"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
