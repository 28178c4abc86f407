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
    "read_metric_data",
    "metric_tensor",
    "cartan_tensor",
    "diagonal_scale",
    "homogeneity_report",
    "sample_batch",
]


@dataclass(frozen=True)
class TangentSample:
    """A point of the slit tangent bundle and whether it is in the model domain."""

    x: np.ndarray
    y: np.ndarray
    in_domain: bool

    @property
    def ok(self) -> bool:
        return self.in_domain and bool(np.any(self.y != 0.0))


def make_sample(model, x, y) -> TangentSample:
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    if x.shape != (model.dim,) or y.shape != (model.dim,):
        raise ValueError(f"expected points of dimension {model.dim}")
    for name, v in (("x", x), ("y", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"coordinate {name}{bad[0] + 1} = {float(v[bad[0]])} is not finite")
    return TangentSample(x, y, model.in_domain(x, y))


class ModelEnergy:
    """Energy provider for the metric as defined by the model file.

    A provider answers `energy_jet(s, y_order, x_order)`, E = F^2/2 valid to
    those orders in a space it picks (`jet.space`; here exactly those orders),
    and `f_value(x, y)`, F or None where undefined (here: outside the domain).

    It keeps the last energy jet it built, with the coordinate jets it lifted
    for it.  A request at the same point (the same bytes of x and y) with
    orders no higher in either block is served from that jet, by `restrict`,
    with the bits a fresh build would have; any other request builds and
    replaces it.  A provider lives as long as the command that made it.
    """

    def __init__(self, model):
        self.model = model
        self.dim = model.dim
        self._last = None   # ((x bytes, y bytes), energy jet, coordinate jets)

    def energy_jet(self, s: TangentSample, y_order: int, x_order: int) -> Jet:
        key = (s.x.tobytes(), s.y.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            E = last[1]
            if y_order <= E.space.y_order and x_order <= E.space.x_order:
                return E.restrict(y_order, x_order)
        space = jet_space(self.dim, y_order, x_order)
        coords = space.lift(s.x, s.y)
        F2 = self.model.F2_fn(coords[:self.dim], coords[self.dim:])
        if not isinstance(F2, Jet):
            F2 = space.constant(F2)
        E = 0.5 * F2
        self._last = (key, E, coords)
        return E

    def coordinates(self, s: TangentSample, space) -> list[Jet]:
        """The 2n coordinate jets at `s` in `space`: those of the last build
        when it was at `s` in `space`, else freshly lifted."""
        last = self._last
        if (last is not None and last[1].space is space
                and last[0] == (s.x.tobytes(), s.y.tobytes())):
            return last[2]
        return space.lift(s.x, s.y)

    def f_value(self, x, y) -> float | None:
        if not self.model.in_domain(x, y):
            return None
        return math.sqrt(max(self.model.F2_fn(x, y), 0.0))


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


def _ys(E: Jet) -> range:
    """Variable numbers of the y-block of E's space."""
    return range(E.space.n, 2 * E.space.n)


def metric_tensor(E: Jet) -> np.ndarray:
    """g_ij = d^2 E/dy_i dy_j read off an energy jet valid to y-order 2."""
    return E.partials(_ys(E), _ys(E))


def cartan_tensor(E: Jet) -> np.ndarray:
    """C_ijk = (1/2) d^3 E/dy_i dy_j dy_k read off an energy jet valid to y-order 3."""
    return 0.5 * E.partials(_ys(E), _ys(E), _ys(E))


def diagonal_scale(g: np.ndarray) -> float:
    """Geometric mean of |g_ii| (floored at 1e-300), the scale of det g."""
    n = g.shape[0]
    return math.prod(max(abs(g[i, i]), 1e-300) for i in range(n)) ** (1.0 / n)


def metric_data(model, s: TangentSample) -> MetricData:
    """Metric data of a fresh energy jet at `s`, valid to y-order 3."""
    _require_in_domain(s)
    return read_metric_data(as_energy(model).energy_jet(s, 3, 0), s)


def read_metric_data(E: Jet, s: TangentSample, F_jet=None) -> MetricData:
    """Fundamental tensor, inverse, supporting form, angular metric and Cartan
    torsion read off an energy jet at `s` valid to y-order 3.  `F_jet`, if
    given, returns the jet (2E).sqrt() for ell, once the checks have passed.

    Conventions: g_ij = d^2 E/dy_i dy_j, ell_i = dF/dy_i, hbar = g - ell (x) ell,
    C_ijk = (1/2) d^3 E/dy_i dy_j dy_k."""
    n = E.space.n
    E0 = E.value
    if not 0.0 < E0 < math.inf:
        raise DomainEscape(f"F^2 = {2 * E0} is not positive and finite at the sample")
    F = math.sqrt(2.0 * E0)

    g = metric_tensor(E)
    det_g = float(np.linalg.det(g))
    scale = diagonal_scale(g)
    if abs(det_g) < 1e-12 * scale**n:
        raise SingularMetric(f"|det g| = {abs(det_g)} below 1e-12 * scale^n")
    cond_g = float(np.linalg.cond(g))
    if cond_g > 1e8:
        log.warning("fundamental tensor condition number %.3e at x=%s y=%s",
                    cond_g, s.x.tolist(), s.y.tolist())
    ginv = np.linalg.inv(g)

    Fj = (2.0 * E).sqrt() if F_jet is None else F_jet()
    ell = Fj.partials(_ys(E))
    hbar = g - np.outer(ell, ell)

    return MetricData(F=F, E=E0, g=g, ginv=ginv, ell=ell, hbar=hbar,
                      cartanC=cartan_tensor(E), det_g=det_g, cond_g=cond_g)


# scale factors l of the homogeneity check F(x, ly) = l F(x, y)
HOMOGENEITY_LAMBDAS = (0.5, 2.0, 3.0)


@dataclass
class HomogeneityReport:
    F_residual: float
    g_residual: float
    C_residual: float


def homogeneity_report(model, s: TangentSample, base: MetricData) -> HomogeneityReport:
    """Residuals of positive 1-homogeneity: F(x, ly) = l F(x, y) and its
    consequences g(x, ly) = g(x, y), l C(x, ly) = C(x, y), against the metric
    data `base` at `s`."""
    rF = rg = rC = 0.0
    for lam in HOMOGENEITY_LAMBDAS:
        scaled = make_sample(model, s.x, lam * s.y)
        if not scaled.ok:
            raise DomainEscape(f"scaled sample lambda={lam} left the (conic) domain")
        md = metric_data(model, scaled)
        rF = max(rF, abs(md.F - lam * base.F) / (lam * base.F))
        rg = max(rg, relmax(md.g, base.g))
        rC = max(rC, relmax(lam * md.cartanC, base.cartanC))
    return HomogeneityReport(rF, rg, rC)


def sample_batch(model, box, count, rng, predicate=None):
    """Rejection-sample `count` in-domain points from the box.

    `box` is a (2n, 2) array of [low, high] rows for x1..xn, y1..yn.  Points
    failing a domain constraint (or the optional extra predicate) are rejected
    and counted; after 2000 * count draws it gives up with DomainEscape.
    Returns (samples, n_rejected).
    """
    box = np.asarray(box, dtype=float)
    n = model.dim
    if box.shape != (2 * n, 2):
        raise ValueError(f"box must have shape ({2 * n}, 2)")
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
