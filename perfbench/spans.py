"""Per-layer tracing of mzvkit from outside the package.

The tracer wraps the entry point of each layer and rebinds the wrapper on
every ``mzvkit`` module attribute that holds the original function
(``tseries`` imports ``shuffle`` and ``w_map`` by name, ``regularize``
imports ``shuffle``, ``harmonic`` and ``mzv_num``), so calls are seen
however the caller reached the function.  The program itself is not
edited.

Each call is a span.  A span's self time is its duration minus the
durations of the spans called directly inside it, so the self time of
``cli.run_suite`` is the time the CLI spends outside library code.  Every
workload runs its cases serially, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> traced functions
LAYERS = {
    "words": ("shuffle", "harmonic"),
    "indexes": ("verify_index_identity",),
    "posets": ("w_map",),
    "tseries": ("w_star_hat",),
    "regularize": ("decompose",),
    "numeval": ("mzv_num", "zeta_hat_num", "verify_csf"),
    "cli": ("run_suite",),
}


def _arg(args, kwargs, pos: int, name: str, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Span aggregates per traced function, kept in memory for one run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.reused: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self.counts: dict[str, float] = {}  # extra work counters
        self.stack: list[float] = []  # child time of each open span
        self._numeval = None

    # -- keys and work counters ------------------------------------------

    def _observe(self, name: str, args, kwargs) -> None:
        """Reuse keys and work counts of one call."""
        if name == "numeval.mzv_num":
            k = tuple(args[0])
            key = (k, bool(_arg(args, kwargs, 1, "star", False)))
            if self._first(name, key) and k:
                cfg = _arg(args, kwargs, 2, "cfg", self._numeval.DEFAULT_CONFIG)
                elems = len(k) * cfg.cutoff
                self._add("numeval.kernel.elems", elems)
                self._add("numeval.kernel.bytes", elems * np.dtype(cfg.dtype).itemsize)
        elif name == "numeval.zeta_hat_num":
            key = (tuple(args[0]), _arg(args, kwargs, 1, "variant", None), _arg(args, kwargs, 2, "order", None))
            self._first(name, key)
        elif name == "tseries.w_star_hat":
            self._first(name, (tuple(args[0]), _arg(args, kwargs, 1, "order", None)))
        elif name == "posets.w_map":
            self._add("posets.w_map.vertices", args[0].n)

    def _first(self, name: str, key) -> bool:
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.reused[name] = self.reused.get(name, 0) + 1
            return False
        seen.add(key)
        return True

    def _add(self, name: str, v) -> None:
        self.counts[name] = self.counts.get(name, 0) + v

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
                self._observe(name, args, kwargs)

        return traced

    def install(self) -> None:
        """Import every layer and rebind each traced function wherever a
        ``mzvkit`` module holds it."""
        for mod in LAYERS:
            importlib.import_module(f"mzvkit.{mod}")
        self._numeval = sys.modules["mzvkit.numeval"]
        modules = [m for n, m in list(sys.modules.items()) if n == "mzvkit" or n.startswith("mzvkit.")]
        for mod, names in LAYERS.items():
            for fname in names:
                orig = getattr(sys.modules[f"mzvkit.{mod}"], fname)
                wrapper = self.wrap(f"{mod}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<metric>`` numbers of this run."""
        out: dict[str, float] = {}
        for mod, names in LAYERS.items():
            for fname in names:
                name = f"{mod}.{fname}"
                calls = self.calls.get(name, 0)
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
                if name in ("numeval.mzv_num", "numeval.zeta_hat_num", "tseries.w_star_hat"):
                    out[f"{name}.reuse"] = self.reused.get(name, 0) / calls if calls else 0.0
        out["posets.w_map.vertices"] = self.counts.get("posets.w_map.vertices", 0)
        elems = self.counts.get("numeval.kernel.elems", 0)
        out["numeval.kernel.elems"] = elems
        out["numeval.kernel.bytes"] = self.counts.get("numeval.kernel.bytes", 0)
        mzv_self = out["numeval.mzv_num.self_s"]
        out["numeval.kernel.elems_per_s"] = elems / mzv_self if mzv_self > 0 else 0.0
        return out
