"""Shipped models and their reference fixtures.

The fixture values are computed from hand-checkable closed-form component
formulas by plain float arithmetic, entirely outside the jet engine, so they
act as an independent oracle for it.  The same values are frozen into a
plain-text table shipped under data/fixtures/ (regenerated by
:func:`fixture_table`; a test pins file and code to each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import expr
from .errors import ModelSyntaxError

__all__ = [
    "builtin_models",
    "builtin_model",
    "load_model",
    "fixtures",
    "fixture_table",
    "default_box",
    "P0",
]

_BUILTIN_NAMES = ("matsumoto_example", "euclid_concurrent")

# canonical fixture point of the example model: every printed component is a
# small rational there (g11 = 7, spray = (0, 1, -4.5), margin = 3*(sqrt(10)-1))
P0 = (np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))


def _data_dir():
    return resources.files("finslerlab") / "data"


def builtin_models():
    """Parse and validate the shipped model files."""
    return [builtin_model(name) for name in _BUILTIN_NAMES]


def builtin_model(name: str):
    path = _data_dir() / "models" / f"{name}.fmod"
    return expr.parse(path.read_text(encoding="utf-8"))


def load_model(ref: str):
    """Load a model from a file path, or by builtin name.  A file must be
    UTF-8 text; one that is not is a ModelSyntaxError naming the file."""
    p = Path(ref)
    if p.is_file():
        data = p.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelSyntaxError(f"{ref} is not UTF-8 text ({e.reason})",
                                   data.count(b"\n", 0, e.start) + 1, 1) from None
        return expr.parse(text)
    if ref in _BUILTIN_NAMES:
        return builtin_model(ref)
    raise FileNotFoundError(
        f"{ref!r} is neither a model file nor one of {_BUILTIN_NAMES}")


def default_box(model) -> np.ndarray:
    """Per-coordinate sampling box [low, high] rows for x1..xn, y1..yn: the
    model file's `box` line, else [0.5, 2] for every coordinate."""
    if model.box is not None:
        return np.array(model.box)
    return np.array([[0.5, 2.0]] * (2 * model.dim))


# --------------------------------------------------------------------------
# closed-form components of the example model
# --------------------------------------------------------------------------

def _example_components(x, y) -> dict:
    x1, _, x3 = x
    y1, y2, y3 = y
    q = x1**2 * y2 + 2 * y1          # the cube root of the inverse denominator
    Q = q**3
    g11 = x3**2 * x1**2 * y2**3 * (3 * x1**2 * y2 + 4 * y1) / y1**4
    g12 = -2 * x3**2 * x1**2 * y2**2 * (2 * x1**2 * y2 + 3 * y1) / y1**3
    g22 = 2 * x3**2 * (3 * x1**4 * y2**2 + 6 * x1**2 * y1 * y2 + 2 * y1**2) / y1**2
    return {
        "g11": g11, "g12": g12, "g13": 0.0, "g22": g22, "g23": 0.0, "g33": 1.0,
        "ginv11": (3 * x1**4 * y2**2 + 6 * x1**2 * y1 * y2 + 2 * y1**2) * y1**4
        / (x3**2 * x1**2 * y2**3 * Q),
        "ginv12": (2 * x1**2 * y2 + 3 * y1) * y1**3 / (x3**2 * y2 * Q),
        "ginv13": 0.0,
        "ginv22": 0.5 * (3 * x1**2 * y2 + 4 * y1) * y1**2 / (x3**2 * Q),
        "ginv23": 0.0, "ginv33": 1.0,
        "C111": -6 * x1**2 * x3**2 * y2**3 * (x1**2 * y2 + y1) / y1**5,
        "C112": 6 * x1**2 * x3**2 * y2**2 * (x1**2 * y2 + y1) / y1**4,
        "C122": -6 * x1**2 * x3**2 * y2 * (x1**2 * y2 + y1) / y1**3,
        "C222": 6 * x1**2 * x3**2 * (x1**2 * y2 + y1) / y1**2,
        "C113": 0.0, "C123": 0.0, "C133": 0.0, "C223": 0.0, "C233": 0.0, "C333": 0.0,
        "G1": (x1 * y3 - x3 * y1) * y1 / (x1 * x3),
        "G2": y2 * y3 / x3,
        "G3": -x3 * y2**2 * (x1**4 * y2**2 + 4 * x1**2 * y1 * y2 + 4 * y1**2)
        / (2 * y1**2),
        "Gamma113": 1.0 / x3,
        "Gamma223": 1.0 / x3,
        "Gamma333": 0.0,
        "Phi": x3 * y3,
        "p2": x3**2,
    }


def _euclid_components(x, y) -> dict:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    F = float(np.linalg.norm(y))
    phi_low = -x  # phi = -x lowered with the identity metric
    Phi = float(phi_low @ y)
    p2 = float(x @ x)
    return {
        "g11": 1.0, "g12": 0.0, "g22": 1.0,
        "C111": 0.0, "C112": 0.0, "C122": 0.0, "C222": 0.0,
        "G1": 0.0, "G2": 0.0,
        "Phi": Phi, "p2": p2,
        "margin": F * (1 + 2 * p2) - 3 * Phi,
    }


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceFixture:
    model: str
    label: str
    x: tuple
    y: tuple
    values: dict       # name -> (expected, tolerance, provenance)


_EXAMPLE_POINTS = [
    ("P0", (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
    # same point with x2 = 7: no printed component involves x2
    ("P0x2", (1.0, 7.0, 1.0), (1.0, 1.0, 1.0)),
    ("Pa", (0.7, 0.3, 1.4), (1.2, 0.8, 0.5)),
    ("Pb", (1.3, -0.4, 0.6), (0.9, 1.7, 1.1)),
]

_EUCLID_POINTS = [
    ("E0", (0.8, 0.0), (1.0, 0.0)),
    ("Ea", (0.3, -0.2), (1.1, 0.7)),
    ("Eb", (-0.5, 0.4), (0.6, 1.6)),
]

_STRUCTURAL = {"g13", "g23", "ginv13", "ginv23", "C113", "C123", "C133",
               "C223", "C233", "C333", "Gamma333",
               "g12", "C111", "C112", "C122", "C222", "G1", "G2"}


def fixtures() -> list[ReferenceFixture]:
    """Reference values at the pinned points, from the closed forms above."""
    out = []
    for label, x, y in _EXAMPLE_POINTS:
        comp = _example_components(np.array(x), np.array(y))
        values = {
            k: (float(v), 1e-8,
                "structural" if (k in _STRUCTURAL and v == 0.0) else "closed-form")
            for k, v in comp.items()
        }
        out.append(ReferenceFixture("matsumoto_example", label, x, y, values))
    for label, x, y in _EUCLID_POINTS:
        comp = _euclid_components(np.array(x), np.array(y))
        values = {
            k: (float(v), 1e-12,
                "structural" if v == 0.0 and k in _STRUCTURAL else "closed-form")
            for k, v in comp.items()
        }
        out.append(ReferenceFixture("euclid_concurrent", label, x, y, values))
    return out


def fixture_table() -> str:
    """Render the fixtures as the plain-text table shipped under data/fixtures/."""
    lines = ["# model point x y component expected tolerance provenance"]
    for f in fixtures():
        xs = ",".join(repr(float(v)) for v in f.x)
        ys = ",".join(repr(float(v)) for v in f.y)
        for name in sorted(f.values):
            val, tol, prov = f.values[name]
            lines.append(
                f"{f.model} {f.label} {xs} {ys} {name} {val!r} {tol!r} {prov}")
    return "\n".join(lines) + "\n"

