"""Result records: ``Report`` rows and ``ExactCheck`` outcomes.

One ``Report`` per checked case; serialises to a single JSON line with
the keys identity, index, order, residuals, tolerance, pass, elapsed_ms.
Rows are built by two constructors: ``Report.exact`` (residuals [0.0] on
success, none on failure, the mismatch in ``detail``) and
``Report.numeric`` (passes iff every residual is within the tolerance it
prints).  Whoever runs the case fills in ``elapsed_ms``.

Every exact identity check of the library (index identities, word-series
expansions, the A/B/C splice lemmas) returns one ``ExactCheck``: its two
sides are combinations of one type, ``equal`` is their equality, and a
mismatch is read off ``lhs - rhs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .linear import Combo


@dataclass
class ExactCheck:
    """Outcome of one exact identity check between two combinations."""

    name: str
    index: object
    params: dict
    lhs: Combo
    rhs: Combo
    equal: bool = field(init=False)

    def __post_init__(self):
        self.equal = self.lhs == self.rhs

    def diff(self) -> Combo:
        return self.lhs - self.rhs

    def diff_terms(self) -> Iterator[tuple[str, object]]:
        """(label, coefficient) of every term of lhs - rhs."""
        return self.diff().labelled_terms()


@dataclass
class Report:
    identity: str
    index: tuple[int, ...] | None = None
    order: int | None = None
    residuals: list[float] = field(default_factory=list)
    tolerance: float | None = None
    passed: bool = True
    elapsed_ms: float = 0.0
    detail: str | None = None

    @classmethod
    def exact(cls, identity: str, index, ok: bool, detail: str | None = None, order=None):
        """An exact check's row: residuals [0.0] on success, none on failure."""
        return cls(identity, index, order, [0.0] if ok else [], None, ok, detail=detail)

    @classmethod
    def numeric(cls, identity: str, index, residuals: list[float], tolerance: float, order=None):
        """A numeric check's row: it passes iff every residual is within the
        tolerance it prints (an error estimate never widens it)."""
        passed = all(r <= tolerance for r in residuals)
        return cls(identity, index, order, residuals, tolerance, passed)

    def to_json(self) -> str:
        obj = {
            "identity": self.identity,
            "index": list(self.index) if self.index is not None else None,
            "order": self.order,
            "residuals": self.residuals,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.detail:
            obj["detail"] = self.detail
        return json.dumps(obj)

    def text_row(self) -> str:
        idx = "(" + ",".join(map(str, self.index)) + ")" if self.index is not None else "-"
        # a row without residuals, or an error row, shows none it did not compute
        res = f"{max(self.residuals):.2e}" if self.residuals else "-"
        tol = f"{self.tolerance:.1e}" if self.tolerance is not None else "exact"
        if self.detail and self.detail.startswith("error:"):
            tol = "-"
        status = "pass" if self.passed else "FAIL"
        row = f"{status:4s}  {self.identity:24s} {idx:18s} ord={self.order if self.order is not None else '-':<3} max_res={res:8s} tol={tol:8s} {self.elapsed_ms:8.1f} ms"
        if not self.passed:
            if self.residuals:
                row += "\n      residuals: " + ", ".join(f"t^{e}: {r:.3e}" for e, r in enumerate(self.residuals))
            if self.detail:
                row += f"\n      {self.detail}"
        return row
