"""The names the benchmark's per-layer tracer reads stay in place, and
each layer keeps to what it defines.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` table
and the workloads read ``.equal`` and ``.all_ok`` off the exact checks.
The benchmark's own tests are outside the default test paths, so this
module keeps a rename here from passing the gate while breaking the
benchmark.  It reads the table and does not edit it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mzvkit import indexes, tseries
from mzvkit.indexes import CyclicClass

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SOURCES = Path(indexes.__file__).resolve().parent


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_resolve_to_functions():
    layers = _layers()
    assert layers
    for mod, names in layers.items():
        module = importlib.import_module(f"mzvkit.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"mzvkit.{mod}.{name}"


def test_exact_checks_expose_what_the_workloads_read():
    al = CyclicClass.of((1, 2))
    for rep in (
        tseries.verify_csf_hat((1, 2), 1),
        tseries.verify_class_csf_hat(al, 1),
        indexes.verify_index_identity("prop2", (1, 2)),
    ):
        assert rep.equal is True
    assert tseries.abc_split(al, 1).all_ok is True


def test_only_indexes_expands_binomial_shifts():
    # the t-adic expansion is written once, as indexes.shift_symbols and
    # hat_symbols; every other layer evaluates those symbols
    users = sorted(
        path.name
        for path in SOURCES.glob("*.py")
        if path.name != "indexes.py" and "binomial_shifts" in path.read_text()
    )
    assert users == []
