"""Identity-check bookkeeping: results, suite reports, JSON/table rendering.

Residual convention used everywhere: for a (predicted, direct) pair of arrays,

    residual = max_over_samples ||predicted - direct||_inf / max(1, ||direct||_inf)

which is scale-free and stays finite at zeros.  Each entry stores the worst
sample's predicted/direct values, so its residual can be recomputed from the
report alone with `relmax`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["IdentityResult", "PairAccumulator", "SuiteReport", "relmax"]


def relmax(predicted, direct) -> float:
    p = np.asarray(predicted, dtype=float)
    d = np.asarray(direct, dtype=float)
    denom = max(1.0, float(np.max(np.abs(d))) if d.size else 0.0)
    diff = float(np.max(np.abs(p - d))) if p.size else 0.0
    return diff / denom


@dataclass
class IdentityResult:
    """Outcome of one identity over a batch.

    kind: 'identity' entries pass/fail against their tolerance; 'skipped'
    entries explain why a check did not apply to this model.
    """

    name: str
    kind: str = "identity"
    residual: float | None = None
    tolerance: float | None = None
    n_samples: int = 0
    worst_sample: dict | None = None
    predicted_worst: list | None = None
    direct_worst: list | None = None
    note: str = ""

    @property
    def passed(self):
        if self.kind == "identity":
            return self.residual is not None and self.residual <= self.tolerance
        return None  # skipped entries do not gate

    @property
    def status(self) -> str:
        return {True: "PASS", False: "FAIL", None: self.kind.upper()}[self.passed]

    def to_dict(self):
        d = {
            "name": self.name,
            "kind": self.kind,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "passed": self.passed,
            "note": self.note,
        }
        if self.worst_sample is not None:
            d["worst_sample"] = self.worst_sample
        if self.predicted_worst is not None:
            d["predicted_worst"] = self.predicted_worst
            d["direct_worst"] = self.direct_worst
        return d


class PairAccumulator:
    """Accumulates per-sample (predicted, direct) pairs for one identity.

    The first sample with a non-finite residual becomes the worst one for
    good: the identity fails with residual None and names that sample."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.residual = 0.0
        self.n = 0
        self.worst = None

    def add(self, sample, predicted, direct):
        r = relmax(predicted, direct)
        self.n += 1
        if self.worst is None or (math.isfinite(self.residual) and not r <= self.residual):
            self.residual = r
            self.worst = (sample, np.asarray(predicted, float), np.asarray(direct, float))
        return r

    def result(self, note: str = "") -> IdentityResult:
        worst_sample = None
        pw = dw = None
        residual = self.residual if math.isfinite(self.residual) else None
        if self.worst is not None:
            s, p, d = self.worst
            worst_sample = {"x": [float(v) for v in s.x], "y": [float(v) for v in s.y],
                            "residual": residual}
            if residual is None:
                note = "; ".join(filter(None, (note, "non-finite residual at the worst sample")))
            else:
                pw = [float(v) for v in np.ravel(p)]
                dw = [float(v) for v in np.ravel(d)]
        return IdentityResult(
            name=self.name, kind="identity", residual=residual,
            tolerance=self.tolerance, n_samples=self.n,
            worst_sample=worst_sample, predicted_worst=pw, direct_worst=dw,
            note=note,
        )


@dataclass
class SuiteReport:
    """Everything one verification run produced, renderable as JSON or a table."""

    model: str
    orientation: str
    seed: int | None
    n_samples: int
    identities: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def failed(self):
        return [r for r in self.identities if r.passed is False]

    @property
    def ok(self) -> bool:
        return not self.failed()

    def find(self, name: str) -> IdentityResult:
        for r in self.identities:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {
            "model": self.model,
            "orientation": self.orientation,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "ok": self.ok,
            "identities": [r.to_dict() for r in self.identities],
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"model: {self.model}    orientation: {self.orientation}    "
            f"seed: {self.seed}    samples: {self.n_samples}",
            f"{'identity':<42} {'kind':<10} {'residual':>12} {'tolerance':>10} {'status':>8}",
            "-" * 88,
        ]
        for r in self.identities:
            res = "-" if r.residual is None else f"{r.residual:.3e}"
            tol = "-" if r.tolerance is None else f"{r.tolerance:.1e}"
            lines.append(f"{r.name:<42} {r.kind:<10} {res:>12} {tol:>10} {r.status:>8}")
            if r.note:
                lines.append(f"    note: {r.note}")
        for k in sorted(self.extras):
            lines.append(f"extra: {k} = {self.extras[k]!r}")
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"
