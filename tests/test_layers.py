"""The names the benchmark's per-layer tracer reads stay in place, and
each layer keeps to what it defines.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` table
and the workloads read ``.equal`` and ``.all_ok`` off the exact checks,
pass ``--jobs`` and ``--cutoff-N`` to the CLI, call ``raw_partial_sum``
and round-trip ``decompose`` under each name in ``regularize.PRODUCTS``.
The benchmark's own tests are outside the default test paths, so this
module keeps a rename or deletion here from passing the gate while
breaking the benchmark.  It reads ``perfbench/`` and edits nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from mzvkit import indexes, numeval, posets, regularize, tseries
from mzvkit.cli import make_parser
from mzvkit.indexes import CyclicClass
from mzvkit.numeval import EvalConfig, raw_partial_sum
from mzvkit.polys import GradedPoly, NcPoly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = Path(indexes.__file__).resolve().parent


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _perfbench("spans").LAYERS


def test_traced_layers_resolve_to_functions():
    layers = _layers()
    assert layers
    for mod, names in layers.items():
        module = importlib.import_module(f"mzvkit.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"mzvkit.{mod}.{name}"
    # the tracer reads these arguments by position when they are not passed by name
    positional = {
        numeval.zeta_hat_num: ["k", "variant", "order"],
        tseries.w_star_hat: ["k", "order"],
        numeval.mzv_num: ["k", "star", "cfg"],
    }
    for fn, params in positional.items():
        assert list(inspect.signature(fn).parameters)[: len(params)] == params, fn.__name__


def test_exact_checks_expose_what_the_workloads_read():
    al = CyclicClass.of((1, 2))
    for rep in (
        tseries.verify_csf_hat((1, 2), 1),
        tseries.verify_class_csf_hat(al, 1),
        indexes.verify_index_identity("prop2", (1, 2)),
    ):
        assert rep.equal is True
    assert tseries.abc_split(al, 1).all_ok is True


def _callers(source: str, names: tuple[str, ...]) -> dict[str, list[str]]:
    """name -> the top-level functions of the source that call it by name."""
    out: dict[str, list[str]] = {}
    for f in ast.parse(source).body:
        if isinstance(f, ast.FunctionDef):
            called = {n.func.id for n in ast.walk(f) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            for name in names:
                if name in called:
                    out.setdefault(name, []).append(f.name)
    return out


def test_only_indexes_expands_binomial_shifts():
    # the t-adic expansion is written once: indexes.shift_terms reads the
    # cached weak compositions, shift_symbols and hat_symbols sum its
    # terms, and every other layer evaluates those terms and symbols
    names = ("weak_compositions", "_compositions")
    users = sorted(
        path.name
        for path in SOURCES.glob("*.py")
        if path.name != "indexes.py" and any(name in path.read_text() for name in names)
    )
    assert users == []
    assert _callers((SOURCES / "indexes.py").read_text(), names + ("shift_terms",)) == {
        "weak_compositions": ["_compositions", "compositions"],
        "_compositions": ["shift_terms"],
        "shift_terms": ["shift_symbols"],
    }


def _words_names(node: ast.AST) -> list[str]:
    """The names a node reads from words: ``from .words import a`` or ``words.a``."""
    if isinstance(node, ast.ImportFrom) and node.module in ("words", "mzvkit.words"):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "words":
        return [node.attr]
    return []


def test_no_module_reads_a_polys_name_through_words():
    # words imports some packed-word and polynomial names from polys for
    # its own use; every other module imports them from polys
    defined = set()
    for node in ast.parse((SOURCES / "polys.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert {"NcPoly", "weight", "word", "_INT64_SAFE"} <= defined
    reads = sorted(
        (path.name, name)
        for path in SOURCES.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _words_names(node)
        if name in defined
    )
    assert reads == []


def _reads_zigzag_states(source: str) -> bool:
    """True if the source holds the zig-zag DP: its shared states or its
    step over the 6-bit chain fields."""
    return "_SHARED" in source or "& 63" in source


def test_only_posets_runs_the_zigzag_dp():
    # the zig-zag recursion is written once, in posets._zigzag_vec, and
    # both w_map(ZigZag(k)) and the batched zigzag_sum read its cached
    # per-index vectors
    users = sorted(
        path.name
        for path in SOURCES.glob("*.py")
        if path.name != "posets.py" and _reads_zigzag_states(path.read_text())
    )
    assert users == []
    source = (SOURCES / "posets.py").read_text()
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    runners = [f.name for f in functions if _reads_zigzag_states(ast.get_source_segment(source, f))]
    assert runners == ["_zigzag_vec"]
    posets._zigzag_vec.cache_clear()
    grade = [(2, 1, 3), (3, 1, 2), (1, 2, 3)]
    posets.zigzag_sum((k, 1) for k in grade)
    assert posets._zigzag_vec.cache_info().misses == len(grade)
    for k in grade:
        posets.w_map(posets.ZigZag(k))
    assert posets._zigzag_vec.cache_info().misses == len(grade)


def test_only_words_riffles_and_no_hatted_sum_goes_word_by_word():
    # the interleaving scatters are built in words alone, where one
    # function, the riffle, adds them up; the hatted star series are
    # summed as grade vectors, with no word-by-word series sum left
    scatter_words = ("_interleavings", "_scatter", "np.add.at")
    users = sorted(
        path.name
        for path in SOURCES.glob("*.py")
        if path.name != "words.py" and any(name in path.read_text() for name in scatter_words)
    )
    assert users == []
    source = (SOURCES / "words.py").read_text()
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    adders = [f.name for f in functions if "np.add.at" in ast.get_source_segment(source, f)]
    assert adders == ["_riffle"]
    sums = sorted(
        path.name
        for path in SOURCES.glob("*.py")
        if any(name in path.read_text() for name in ("add_symbols", "add_scaled"))
    )
    assert sums == []
    assert not hasattr(tseries.WordSeries, "add_scaled") and not hasattr(tseries.WordSeries, "add_symbols")
    # a hatted sum reads graded coefficients and gives graded ones
    hat = tseries.w_star_hat((1, 2), 2)
    assert all(type(p) is GradedPoly for p in hat.terms.values())
    assert all(type(p) is GradedPoly for p in tseries.w_csf_hat((1, 2), 2).terms.values())


def test_only_numeval_sum_adds_numeric_values():
    # every float combination is one exactly rounded numeval._sum over its
    # terms; numeric values and containers have no pairwise + or -, which
    # would make a result depend on the order of its terms
    v = numeval.NumericValue(1.0, 1e-16)
    pairs = [
        (v, v),
        (numeval.NumericSeries(2, {0: v, 1: v}), numeval.NumericSeries(2, {0: v})),
        (regularize.NumericPolyT({0: v, 1: v}), regularize.NumericPolyT({0: v})),
    ]
    for a, b in pairs:
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


def test_benchmark_keeps_its_flags_cutoff_and_raw_partial_sum():
    # the workloads pass --jobs and --cutoff-N to the CLI, warm up through
    # raw_partial_sum, and the tracer reads a config's cutoff and dtype
    workloads = _perfbench("workloads")
    scale = workloads.SCALES["tiny"]
    make_parser().parse_args(workloads.cli_argv(scale))
    cfg = EvalConfig(cutoff=scale.cutoff)
    assert cfg.cutoff == scale.cutoff and cfg.dtype is not None
    assert raw_partial_sum((2,), N=1000, cfg=cfg) > 0
    # exact-series round-trips decompose and recompose under each product
    # name, in the order it iterates regularize.PRODUCTS
    assert list(regularize.PRODUCTS) == ["sh", "ast"]
    p = NcPoly.from_str("yxy") + 3 * NcPoly.from_str("yyy")
    for prod in regularize.PRODUCTS:
        assert regularize.recompose(regularize.decompose(p, prod), prod) == p, prod


def test_only_the_entry_points_take_a_config():
    # values depend on their words alone; a config reaches the verifiers,
    # which read its tolerance, and the two functions the benchmark calls
    # with one
    takes_cfg = {
        f"{module.__name__}.{name}"
        for module in (numeval, regularize)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and "cfg" in inspect.signature(fn).parameters
    }
    assert takes_cfg == {
        "mzvkit.numeval.mzv_num",
        "mzvkit.numeval.raw_partial_sum",
        "mzvkit.numeval.verify_csf",
        "mzvkit.regularize.verify_reg_relation",
        "mzvkit.regularize.compare_star_regs",
    }
