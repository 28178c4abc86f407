"""Zeroth-layer Finsler objects at a tangent sample.

Everything derives from jets of the energy E = F^2/2.  Differentiating F^2
instead of F keeps the square root of typical metric definitions out of the
high-order coefficients (the `squared` rewrite strips an outer sqrt), so the
fundamental tensor stays accurate near directions where F itself is small.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, SingularMetric
from .numkit import Jet, jet_space
from .report import relmax

log = logging.getLogger("finslerlab")

__all__ = [
    "TangentSample",
    "MetricData",
    "ModelEnergy",
    "as_energy",
    "make_sample",
    "metric_data",
    "metric_tensor",
    "cartan_tensor",
    "homogeneity_report",
    "sample_batch",
]


@dataclass(frozen=True)
class TangentSample:
    """A point of the slit tangent bundle plus per-constraint domain flags."""

    x: np.ndarray
    y: np.ndarray
    in_domain: tuple

    @property
    def ok(self) -> bool:
        return all(self.in_domain) and bool(np.any(self.y != 0.0))


def make_sample(model, x, y) -> TangentSample:
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    if x.shape != (model.dim,) or y.shape != (model.dim,):
        raise ValueError(f"expected points of dimension {model.dim}")
    for name, v in (("x", x), ("y", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"coordinate {name}{bad[0] + 1} = {float(v[bad[0]])} is not finite")
    return TangentSample(x, y, model.domain_flags(x, y))


class ModelEnergy:
    """Energy-jet provider for the metric as defined by the model file.

    `y_overhead` tells pipeline code how many extra y-orders the provider
    consumes internally before handing back the energy jet (zero here; one for
    the changed metric, whose construction differentiates the base energy once).
    """

    y_overhead = 0

    def __init__(self, model):
        self.model = model
        self.dim = model.dim

    def energy_jet(self, s: TangentSample, space) -> Jet:
        coords = space.lift(s.x, s.y)
        n = self.dim
        F2 = self.model.F2_fn(coords[:n], coords[n:])
        if not isinstance(F2, Jet):
            F2 = space.constant(F2)
        return 0.5 * F2

    def energy_value(self, x, y) -> float:
        return 0.5 * self.model.F2_fn(x, y)

    def f_value(self, x, y) -> float:
        return math.sqrt(max(2.0 * self.energy_value(x, y), 0.0))

    def in_domain(self, x, y) -> bool:
        return self.model.in_domain(x, y)


def as_energy(model_or_energy):
    if hasattr(model_or_energy, "energy_jet"):
        return model_or_energy
    return ModelEnergy(model_or_energy)


@dataclass
class MetricData:
    """F, E, fundamental tensor and friends at one sample."""

    F: float
    E: float
    g: np.ndarray        # (n, n)
    ginv: np.ndarray     # (n, n)
    ell: np.ndarray      # (n,)
    hbar: np.ndarray     # (n, n)
    cartanC: np.ndarray  # (n, n, n)
    det_g: float
    cond_g: float


def _require_in_domain(s: TangentSample):
    if not s.ok:
        raise DomainEscape(f"sample x={s.x.tolist()}, y={s.y.tolist()} is outside the domain")


def _y_index(n, *idx):
    mi = [0] * (2 * n)
    for i in idx:
        mi[n + i] += 1
    return tuple(mi)


def metric_tensor(E: Jet) -> np.ndarray:
    """g_ij = d^2 E/dy_i dy_j read off an energy jet valid to y-order 2."""
    n = E.space.n
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = E.partial(_y_index(n, i, j))
    return g


def cartan_tensor(E: Jet) -> np.ndarray:
    """C_ijk = (1/2) d^3 E/dy_i dy_j dy_k read off an energy jet valid to y-order 3."""
    n = E.space.n
    C = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = 0.5 * E.partial(_y_index(n, i, j, k))
                for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                    C[p] = v
    return C


def metric_data(model, s: TangentSample) -> MetricData:
    """Fundamental tensor, inverse, supporting form, angular metric, Cartan torsion.

    Conventions: g_ij = d^2 E/dy_i dy_j, ell_i = dF/dy_i, hbar = g - ell (x) ell,
    C_ijk = (1/2) d^3 E/dy_i dy_j dy_k.
    """
    energy = as_energy(model)
    _require_in_domain(s)
    n = energy.dim
    space = jet_space(n, 3 + energy.y_overhead, 0)
    E = energy.energy_jet(s, space)
    E0 = E.value
    if not E0 > 0.0:
        raise DomainEscape(f"F^2 = {2 * E0} is not positive at the sample")
    F = math.sqrt(2.0 * E0)

    g = metric_tensor(E)
    det_g = float(np.linalg.det(g))
    scale = math.prod(max(abs(g[i, i]), 1e-300) for i in range(n)) ** (1.0 / n)
    if abs(det_g) < 1e-12 * scale**n:
        raise SingularMetric(f"|det g| = {abs(det_g)} below 1e-12 * scale^n")
    cond_g = float(np.linalg.cond(g))
    if cond_g > 1e8:
        log.warning("fundamental tensor condition number %.3e at x=%s y=%s",
                    cond_g, s.x.tolist(), s.y.tolist())
    ginv = np.linalg.inv(g)

    Fj = (2.0 * E).sqrt()
    ell = np.array([Fj.partial(_y_index(n, i)) for i in range(n)])
    hbar = g - np.outer(ell, ell)

    return MetricData(F=F, E=E0, g=g, ginv=ginv, ell=ell, hbar=hbar,
                      cartanC=cartan_tensor(E), det_g=det_g, cond_g=cond_g)


@dataclass
class HomogeneityReport:
    lambdas: tuple
    F_residual: float
    g_residual: float
    C_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.F_residual, self.g_residual, self.C_residual)


def homogeneity_report(model, s: TangentSample, lambdas=(0.5, 2.0, 3.0)) -> HomogeneityReport:
    """Residuals of positive 1-homogeneity: F(x, ly) = l F(x, y) and its
    consequences g(x, ly) = g(x, y), l C(x, ly) = C(x, y)."""
    base = metric_data(model, s)
    rF = rg = rC = 0.0
    for lam in lambdas:
        scaled = make_sample(model, s.x, lam * s.y)
        if not scaled.ok:
            raise DomainEscape(f"scaled sample lambda={lam} left the (conic) domain")
        md = metric_data(model, scaled)
        rF = max(rF, abs(md.F - lam * base.F) / (lam * base.F))
        rg = max(rg, relmax(md.g, base.g))
        rC = max(rC, relmax(lam * md.cartanC, base.cartanC))
    return HomogeneityReport(tuple(lambdas), rF, rg, rC)


def sample_batch(model, box, count, rng, predicate=None, max_tries=None):
    """Rejection-sample `count` in-domain points from the box.

    `box` is a (2n, 2) array of [low, high] rows for x1..xn, y1..yn.  Points
    failing a domain constraint (or the optional extra predicate) are rejected
    and counted.  Returns (samples, n_rejected).
    """
    box = np.asarray(box, dtype=float)
    n = model.dim
    if box.shape != (2 * n, 2):
        raise ValueError(f"box must have shape ({2 * n}, 2)")
    if max_tries is None:
        max_tries = 2000 * count
    out = []
    rejected = 0
    tries = 0
    while len(out) < count:
        if tries >= max_tries:
            raise DomainEscape(
                f"rejection sampling got {len(out)}/{count} points in {tries} draws")
        tries += 1
        u = rng.random(2 * n)
        p = box[:, 0] + u * (box[:, 1] - box[:, 0])
        s = make_sample(model, p[:n], p[n:])
        if not s.ok or (predicate is not None and not predicate(s)):
            rejected += 1
            continue
        out.append(s)
    return out, rejected
