"""Spray and connection data for a Finsler model.

Conventions (fixed once, used everywhere downstream):

* spray coefficients  G^i = (1/2) g^{il} (y^k d^2E/dy^l dx^k - dE/dx^l),
  geodesics solve x'' + 2G(x, x') = 0, the spray vector field is
  y^i d/dx^i - 2 G^i d/dy^i;
* nonlinear connection  N^i_j = dG^i/dy^j;
* Berwald coefficients  G^i_jk = dN^i_j/dy^k;
* horizontal derivative  delta_j = d/dx^j - N^m_j d/dy^m;
* curvature  R^i_jk = delta_j N^i_k - delta_k N^i_j;
* Cartan horizontal coefficients
  Gamma^i_jk = (1/2) g^{is} (delta_j g_sk + delta_k g_js - delta_s g_jk).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (TangentSample, as_energy, cartan_tensor, metric_tensor,
                   _require_in_domain, _y_index)
from .errors import DomainEscape, EvalError, OutsideHatDomain, SingularMetric
from .numkit import jet_space

__all__ = [
    "CovariantReport",
    "GeometryJets",
    "Trajectory",
    "barthel_curvature",
    "berwald_coeffs",
    "berwald_from_njets",
    "cartan_hcoeffs",
    "concurrency_probe",
    "curvature_from_njets",
    "integrate_geodesic",
    "nonlinear_connection",
    "spray",
    "spray_system",
]


def _jet_inverse(M):
    """Invert a matrix of jets by Gauss-Jordan elimination, pivoting on values."""
    n = len(M)
    A = [list(row) for row in M]
    space = A[0][0].space
    inv = [[space.constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        if abs(A[piv][col].value) < 1e-300:
            raise SingularMetric("pivot ~0 while inverting the fundamental tensor")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        w = 1.0 / A[col][col]
        A[col] = [a * w for a in A[col]]
        inv[col] = [b * w for b in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            if not np.any(f.coeffs):
                continue
            A[r] = [a - f * p for a, p in zip(A[r], A[col])]
            inv[r] = [b - f * q for b, q in zip(inv[r], inv[col])]
    return inv


class GeometryJets:
    """Lazily built jets of the geometric fields of one energy at one sample.

    `y_order`/`x_order` are the orders guaranteed valid on the energy jet
    itself; the provider's construction overhead is added on top.  Minimal
    orders per consumer: spray values (2,1), nonlinear connection (3,1),
    Berwald coefficients (4,1), curvature (4,2), Cartan coefficients (3,1).
    """

    def __init__(self, energy, s: TangentSample, y_order: int, x_order: int):
        self.energy = as_energy(energy)
        _require_in_domain(s)
        self.s = s
        self.n = self.energy.dim
        self.space = jet_space(self.n, y_order + self.energy.y_overhead, x_order)
        self.E = self.energy.energy_jet(s, self.space)
        self.coords = self.space.lift(s.x, s.y)

    # -- jet-level fields ----------------------------------------------------

    @cached_property
    def g_jets(self):
        n = self.n
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            di = self.E.diff_y(i)
            for j in range(i, n):
                out[i][j] = out[j][i] = di.diff_y(j)
        return out

    @cached_property
    def ginv_jets(self):
        return _jet_inverse(self.g_jets)

    @cached_property
    def spray_jets(self):
        n = self.n
        ycoord = self.coords[n:]
        S = []
        for l in range(n):
            dl = self.E.diff_y(l)
            acc = -self.E.diff_x(l)
            for k in range(n):
                acc = acc + ycoord[k] * dl.diff_x(k)
            S.append(acc)
        return [
            0.5 * sum((self.ginv_jets[i][l] * S[l] for l in range(1, n)),
                      self.ginv_jets[i][0] * S[0])
            for i in range(n)
        ]

    @cached_property
    def nonlinear_jets(self):
        return [[Gi.diff_y(j) for j in range(self.n)] for Gi in self.spray_jets]

    # -- value-level fields ---------------------------------------------------

    def metric(self) -> np.ndarray:
        return metric_tensor(self.E)

    def metric_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.metric())

    def cartan_torsion(self) -> np.ndarray:
        return cartan_tensor(self.E)

    def spray(self) -> np.ndarray:
        return np.array([G.value for G in self.spray_jets])

    def nonlinear(self) -> np.ndarray:
        return np.array([[Nij.value for Nij in row] for row in self.nonlinear_jets])

    def berwald(self) -> np.ndarray:
        return berwald_from_njets(self.nonlinear_jets)

    def curvature(self) -> np.ndarray:
        return curvature_from_njets(self.nonlinear_jets)

    def delta_metric(self) -> np.ndarray:
        """dg[k, i, j] = delta_k g_ij = d g_ij/dx^k - N^m_k * 2 C_mij."""
        dxg = np.array([metric_tensor(self.E.diff_x(k)) for k in range(self.n)])
        return dxg - 2.0 * np.einsum("mk,mij->kij", self.nonlinear(), self.cartan_torsion())

    def cartan(self) -> np.ndarray:
        ginv = np.linalg.inv(self.metric())
        dg = self.delta_metric()
        # Gamma^i_jk = (1/2) g^{is} (delta_j g_sk + delta_k g_js - delta_s g_jk)
        return 0.5 * (np.einsum("is,jsk->ijk", ginv, dg)
                      + np.einsum("is,ksj->ijk", ginv, dg)
                      - np.einsum("is,sjk->ijk", ginv, dg))


def berwald_from_njets(N_jets) -> np.ndarray:
    """G^i_jk = dN^i_j/dy^k for any nonlinear-connection field given as a matrix
    of jets valid to one y-order; every entry is differentiated, none copied."""
    return np.array([[[Nij.diff_y(k).value for k in range(len(N_jets))]
                      for Nij in row] for row in N_jets])


def curvature_from_njets(N_jets) -> np.ndarray:
    """R^i_jk = delta_j N^i_k - delta_k N^i_j for any nonlinear-connection field
    given as a matrix of jets valid to one y- and one x-order."""
    n = len(N_jets)
    N = np.array([[Nij.value for Nij in row] for row in N_jets])
    dxN = np.empty((n, n, n))  # dxN[i, k, j] = d N^i_k / dx^j
    dyN = np.empty((n, n, n))  # dyN[i, k, m] = d N^i_k / dy^m
    for i in range(n):
        for k in range(n):
            for j in range(n):
                dxN[i, k, j] = N_jets[i][k].diff_x(j).value
                dyN[i, k, j] = N_jets[i][k].diff_y(j).value
    # delta[j, i, k] = delta_j N^i_k
    delta = np.einsum("ikj->jik", dxN) - np.einsum("mj,ikm->jik", N, dyN)
    return np.transpose(delta, (1, 0, 2)) - np.transpose(delta, (1, 2, 0))


def spray(model, s: TangentSample) -> np.ndarray:
    return GeometryJets(model, s, 2, 1).spray()


def nonlinear_connection(model, s: TangentSample) -> np.ndarray:
    return GeometryJets(model, s, 3, 1).nonlinear()


def berwald_coeffs(model, s: TangentSample) -> np.ndarray:
    return GeometryJets(model, s, 4, 1).berwald()


def barthel_curvature(model, s: TangentSample) -> np.ndarray:
    return GeometryJets(model, s, 4, 2).curvature()


def cartan_hcoeffs(model, s: TangentSample) -> np.ndarray:
    return GeometryJets(model, s, 3, 1).cartan()


# --------------------------------------------------------------------------
# concurrency probe
# --------------------------------------------------------------------------

def phi_values(model, x) -> np.ndarray:
    return np.array([p(x, None) for p in model.phi_fns])


def phi_jacobian(model, x) -> np.ndarray:
    """dphi^i/dx^j from jets of the phi component expressions."""
    n = model.dim
    sp = jet_space(n, 0, 1)
    xjets = [sp.coordinate(j, x[j]) for j in range(n)]
    out = np.empty((n, n))
    for i, p in enumerate(model.phi_fns):
        v = p(xjets, None)
        for j in range(n):
            mi = [0] * (2 * n)
            mi[j] = 1
            out[i, j] = v.partial(mi) if hasattr(v, "partial") else 0.0
    return out


@dataclass
class CovariantReport:
    """Cartan-covariant behaviour of the model's phi field over a batch.

    A concurrent field has hcov_phi = sigma * identity with sigma = -1 under
    the sign convention nabla phi = -id; the probe fits sigma instead of
    asserting the sign and reports the worst deviation across the batch.
    `defect` measures the distance to the nearer of the two unit signs, so a
    parallel field (hcov = 0) shows defect 1 even though sigma = 0 fits it.
    """

    sigma: float
    residual: float
    defect: float
    vcov_max: float
    hcov_phi: np.ndarray
    vcov_phi_contraction: np.ndarray
    n_samples: int


def concurrency_probe(model, s_batch) -> CovariantReport:
    hcovs = []
    vcovs = []
    for s in s_batch:
        geo = GeometryJets(model, s, 3, 1)
        gamma = geo.cartan()
        C = geo.cartan_torsion()
        ph = phi_values(model, s.x)
        dph = phi_jacobian(model, s.x)
        hcov = dph + np.einsum("k,ikj->ij", ph, gamma)
        vcov = np.einsum("k,kij->ij", ph, C)
        hcovs.append(hcov)
        vcovs.append(vcov)
    n = model.dim
    sigma = float(np.mean([np.trace(h) / n for h in hcovs]))
    resid = [float(np.max(np.abs(h - sigma * np.eye(n)))) for h in hcovs]
    vmax = [float(np.max(np.abs(v))) for v in vcovs]
    defect = min(
        max(float(np.max(np.abs(h - sgn * np.eye(n)))) for h in hcovs)
        for sgn in (1.0, -1.0))
    worst = int(np.argmax(resid))
    return CovariantReport(
        sigma=sigma,
        residual=max(resid),
        defect=defect,
        vcov_max=max(vmax),
        hcov_phi=hcovs[worst],
        vcov_phi_contraction=vcovs[int(np.argmax(vmax))],
        n_samples=len(hcovs),
    )


# --------------------------------------------------------------------------
# geodesic integration
# --------------------------------------------------------------------------

# bound on RK4 steps (and trajectory rows) of one integration
MAX_GEODESIC_STEPS = 1_000_000


@dataclass
class Trajectory:
    """RK4 solution of x' = y, y' = -2G(x, y) with the metric value along it.

    `escaped` is set when the state left the model domain or when the fixed
    step stopped resolving the flow (state blow-up, spray evaluation failure,
    or a single-step jump of the conserved metric value far above the drift
    budget); the recorded stretch is always finite and trustworthy.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    F: np.ndarray
    escaped: bool
    exit_time: float | None

    def metric_drift(self) -> float:
        """max |F(t) - F(0)| / F(0) along the trajectory."""
        return float(np.max(np.abs(self.F - self.F[0])) / abs(self.F[0]))

    def write_csv(self, fh):
        n = self.x.shape[1]
        cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)] + ["F"]
        fh.write(",".join(cols) + "\n")
        for k in range(self.t.shape[0]):
            row = [self.t[k], *self.x[k], *self.y[k], self.F[k]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def spray_system(E, y) -> np.ndarray:
    """Right-hand side b_l = y^k d^2E/dy^l dx^k - dE/dx^l of the spray's
    defining linear system g_lm (2 G^m) = b_l, from an energy jet valid to
    (2, 1)."""
    n = E.space.n
    b = np.empty(n)
    for l in range(n):
        mi = [0] * (2 * n)
        mi[l] = 1
        acc = -E.partial(mi)
        for k in range(n):
            mk = list(_y_index(n, l))
            mk[k] = 1
            acc += y[k] * E.partial(mk)
        b[l] = acc
    return b


def _spray_rhs(energy, space, x, y):
    s = TangentSample(np.asarray(x, float), np.asarray(y, float), ())
    E = energy.energy_jet(s, space)
    G = 0.5 * np.linalg.solve(metric_tensor(E), spray_system(E, y))
    return np.concatenate([y, -2.0 * G])


def integrate_geodesic(model, s0: TangentSample, t_end: float, step: float) -> Trajectory:
    """Fixed-step RK4 integration of the geodesic equation of the model's metric.

    Halts early (escaped=True, exit_time set) when the state leaves the model
    domain.  The metric value F is a first integral of its own geodesic flow,
    so its drift along the result measures integration quality.
    """
    for name, v in (("step", step), ("t_end", t_end)):
        if not 0.0 < v < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if not t_end / step <= MAX_GEODESIC_STEPS:
        raise ValueError(f"t_end/step = {t_end / step!r} exceeds {MAX_GEODESIC_STEPS} RK4 steps")
    energy = as_energy(model)
    _require_in_domain(s0)
    n = energy.dim
    space = jet_space(n, 2 + energy.y_overhead, 1)

    nsteps = max(1, int(round(t_end / step)))
    ts = [0.0]
    xs = [s0.x.copy()]
    ys = [s0.y.copy()]
    Fs = [energy.f_value(s0.x, s0.y)]
    z = np.concatenate([s0.x, s0.y])
    escaped = False
    exit_time = None
    # beyond this the flow has left any region a fixed step can track (e.g. a
    # changed spray blowing up toward its degeneracy surface)
    state_cap = 1e9 * max(1.0, float(np.max(np.abs(z))))

    def rhs(zv):
        return _spray_rhs(energy, space, zv[:n], zv[n:])

    for k in range(nsteps):
        h = step
        try:
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z_new = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = (k + 1) * h
            if (not np.all(np.isfinite(z_new))
                    or np.max(np.abs(z_new)) > state_cap
                    or not energy.in_domain(z_new[:n], z_new[n:])):
                escaped = True
                exit_time = t
                break
            F_new = energy.f_value(z_new[:n], z_new[n:])
        except (SingularMetric, EvalError, DomainEscape, OutsideHatDomain,
                np.linalg.LinAlgError, FloatingPointError, OverflowError):
            escaped = True
            exit_time = ts[-1] + h
            break
        # the metric value is a first integral: a single-step jump far above
        # the drift budget means the fixed step stopped resolving the flow
        # (e.g. a changed spray stiffening toward its degeneracy surface)
        if abs(F_new - Fs[-1]) > max(1e-5 * h, 1e-12) * max(abs(Fs[0]), abs(Fs[-1])):
            escaped = True
            exit_time = t
            break
        z = z_new
        ts.append(t)
        xs.append(z[:n].copy())
        ys.append(z[n:].copy())
        Fs.append(F_new)

    return Trajectory(
        t=np.array(ts), x=np.array(xs), y=np.array(ys), F=np.array(Fs),
        escaped=escaped, exit_time=exit_time,
    )
