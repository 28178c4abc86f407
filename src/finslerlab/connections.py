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

from .core import (MetricData, TangentSample, as_energy, cartan_tensor,
                   metric_tensor, read_metric_data, _require_in_domain)
from .errors import DomainEscape, EvalError, OutsideHatDomain, SingularMetric
from .numkit import Jet
from .report import IdentityResult

__all__ = [
    "GeometryJets",
    "Trajectory",
    "concurrency_probe",
    "integrate_geodesic",
    "phi_covariants",
    "spray_system",
    "PROBE_TOLERANCES",
    "SPRAY_ORDERS",
]


def _jet_solve(M, b):
    """Solve M x = b for a matrix and a vector of jets by Gauss-Jordan
    elimination of the augmented matrix [M | b], pivoting on values.  Step
    `col` updates only the columns right of the pivot: the ones to its left
    are never read again."""
    n = len(M)
    A = [[*row, rhs] for row, rhs in zip(M, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        if abs(A[piv][col].value) < 1e-300:
            raise SingularMetric("pivot ~0 while solving with the fundamental tensor")
        A[col], A[piv] = A[piv], A[col]
        w = 1.0 / A[col][col]
        A[col][col + 1:] = [a * w for a in A[col][col + 1:]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            if f.is_zero():
                continue
            A[r][col + 1:] = [a - f * p for a, p in zip(A[r][col + 1:], A[col][col + 1:])]
    return [row[n] for row in A]


class GeometryJets:
    """Lazily built jets of the geometric fields of one energy at one sample.

    `y_order`/`x_order` are the orders the energy jet is valid to, in a space
    its provider picks.  Minimal orders per consumer: spray values (2,1),
    nonlinear connection (3,1), Berwald coefficients (4,1), curvature (4,2),
    Cartan coefficients (3,1).
    """

    def __init__(self, energy, s: TangentSample, y_order: int, x_order: int):
        self.energy = as_energy(energy)
        _require_in_domain(s)
        self.s = s
        self.n = self.energy.dim
        self.E = self.energy.energy_jet(s, y_order, x_order)
        self.space = self.E.space
        self.coords = self.space.lift(s.x, s.y)
        self._N = self._berwald = None   # N and G^i_jk, read once; callers never write them

    @cached_property
    def md(self) -> MetricData:
        """Metric data read off this geometry's energy jet (y-order 3 or more)."""
        return read_metric_data(self.E, self.s, lambda: self.F_jet)

    @cached_property
    def F_jet(self):
        """F = sqrt(2E) as a jet: one square root for `md` and the change scalars."""
        return (2.0 * self.E).sqrt()

    @cached_property
    def phi_jets(self):
        """The model's phi^i on this geometry's x-coordinate jets, one
        evaluation for the change jets and `phi_jacobian`; a constant
        component stays a float."""
        return [p(self.coords[:self.n], None) for p in self.energy.model.phi_fns]

    @cached_property
    def phi_jacobian(self) -> np.ndarray:
        """dphi^i/dx^j read off `phi_jets`, for `phi_covariants` and `ChangeJets.H_dx`."""
        xs = range(self.n)
        return np.array([p.partials(xs) if isinstance(p, Jet) else np.zeros(self.n)
                         for p in self.phi_jets])

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
        n, const = self.n, self.space.constant
        cols = [_jet_solve(self.g_jets, [const(float(i == j)) for i in range(n)])
                for j in range(n)]
        return [list(row) for row in zip(*cols)]

    @cached_property
    def spray_jets(self):
        """G^i = x^i / 2 for the solution x of g_il x^l = S_l (see `spray_system`)."""
        n = self.n
        ycoord = self.coords[n:]
        S = []
        for l in range(n):
            dl = self.E.diff_y(l)
            acc = -self.E.diff_x(l)
            for k in range(n):
                acc = acc + ycoord[k] * dl.diff_x(k)
            S.append(acc)
        return [0.5 * x for x in _jet_solve(self.g_jets, S)]

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
        if self._N is None:
            self._N = np.array([[Nij.value for Nij in row] for row in self.nonlinear_jets])
        return self._N

    def berwald(self) -> np.ndarray:
        """G^i_jk = dN^i_j/dy^k; every entry is read, no symmetry assumed."""
        if self._berwald is None:
            ys = range(self.n, 2 * self.n)
            self._berwald = np.array([[Nij.partials(ys) for Nij in row]
                                      for row in self.nonlinear_jets])
        return self._berwald

    def curvature(self) -> np.ndarray:
        """R^i_jk = delta_j N^i_k - delta_k N^i_j (needs x-order 2)."""
        xs = range(self.n)
        # delta[i, k, j] = delta_j N^i_k
        delta = (np.array([[Nik.partials(xs) for Nik in row] for row in self.nonlinear_jets])
                 - np.einsum("mj,ikm->ikj", self.nonlinear(), self.berwald()))
        return np.einsum("ikj->ijk", delta) - delta

    def delta_metric(self) -> np.ndarray:
        """dg[k, i, j] = delta_k g_ij = d g_ij/dx^k - N^m_k * 2 C_mij."""
        n = self.n
        dxg = self.E.partials(range(n), range(n, 2 * n), range(n, 2 * n))
        return dxg - 2.0 * np.einsum("mk,mij->kij", self.nonlinear(), self.cartan_torsion())

    def cartan(self) -> np.ndarray:
        ginv = self.md.ginv
        dg = self.delta_metric()
        # Gamma^i_jk = (1/2) g^{is} (delta_j g_sk + delta_k g_js - delta_s g_jk)
        return 0.5 * (np.einsum("is,jsk->ijk", ginv, dg)
                      + np.einsum("is,ksj->ijk", ginv, dg)
                      - np.einsum("is,sjk->ijk", ginv, dg))


# --------------------------------------------------------------------------
# concurrency probe
# --------------------------------------------------------------------------

def phi_values(model, x) -> np.ndarray:
    return np.array([p(x, None) for p in model.phi_fns])


PROBE_TOLERANCES = {
    "concurrency-probe": 1e-8,
    "concurrency-vertical-contraction": 1e-10,
}


def phi_covariants(model, geo):
    """hcov_phi = dphi^i/dx^j + phi^k Gamma^i_kj and phi^k C_kij at the sample
    of `geo`, a geometry of the model valid to y-order 3 and x-order 1 or more."""
    ph = phi_values(model, geo.s.x)
    return (geo.phi_jacobian + np.einsum("k,ikj->ij", ph, geo.cartan()),
            np.einsum("k,kij->ij", ph, geo.cartan_torsion()))


def concurrency_probe(model, covariants):
    """Cartan-covariant behaviour of the model's phi field over a batch, from
    the `phi_covariants` pair of each sample.

    A concurrent field has hcov_phi = +identity or -identity.  The probe
    measures the worst deviation across the batch from the nearer of the two,
    so a parallel field (hcov = 0) fails with residual 1, and reports the
    worst |phi^k C_kij|.  Returns the two report entries and the fitted
    sigma, the mean of trace(hcov)/n."""
    hcovs = [h for h, _ in covariants]
    vcovs = [v for _, v in covariants]
    n = model.dim
    sigma = float(np.mean([np.trace(h) / n for h in hcovs]))
    resids = {sgn: [float(np.max(np.abs(h - sgn * np.eye(n)))) for h in hcovs]
              for sgn in (1.0, -1.0)}
    sign = min(resids, key=lambda sgn: max(resids[sgn]))
    resid = resids[sign]
    worst = int(np.argmax(resid))
    return [
        IdentityResult(
            name="concurrency-probe", kind="identity", residual=max(resid),
            tolerance=PROBE_TOLERANCES["concurrency-probe"], n_samples=len(hcovs),
            predicted_worst=[float(v) for v in hcovs[worst].ravel()],
            direct_worst=[float(v) for v in (sign * np.eye(n)).ravel()],
            note=f"fitted sigma = {sigma!r}"),
        IdentityResult(
            name="concurrency-vertical-contraction", kind="identity",
            residual=max(float(np.max(np.abs(v))) for v in vcovs),
            tolerance=PROBE_TOLERANCES["concurrency-vertical-contraction"],
            n_samples=len(hcovs), note="max |phi^k C_kij| over the batch"),
    ], sigma


# --------------------------------------------------------------------------
# geodesic integration
# --------------------------------------------------------------------------

# bound on RK4 steps (and trajectory rows) of one integration
MAX_GEODESIC_STEPS = 1_000_000


@dataclass
class Trajectory:
    """Numerical solution of x' = y, y' = -2G(x, y) with the metric value along
    it: RK4 steps, and Dormand-Prince 5(4) steps under step control.

    `escape_reason` is None for a full run, else why it stopped early: "left
    the domain", or the step no longer resolving the flow ("state blow-up",
    "first-integral jump" for a single-step jump of the conserved metric value
    far above the drift budget, or the name of the exception a step raised).
    The recorded stretch is always finite and trustworthy.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    F: np.ndarray
    escape_reason: str | None
    exit_time: float | None

    @property
    def escaped(self) -> bool:
        return self.escape_reason is not None

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
    b = -E.partials(range(n))                     # dE/dx^l
    dydx = E.partials(range(n, 2 * n), range(n))  # d^2E/dy^l dx^k
    for k in range(n):
        b += y[k] * dydx[:, k]
    return b


# orders of the energy jet each spray evaluation asks for
SPRAY_ORDERS = (2, 1)


def _spray_rhs(energy, x, y):
    s = TangentSample(np.asarray(x, float), np.asarray(y, float), True)
    E = energy.energy_jet(s, *SPRAY_ORDERS)
    G = 0.5 * np.linalg.solve(metric_tensor(E), spray_system(E, y))
    return np.concatenate([y, -2.0 * G])


def _rk4_step(rhs, z, k1, h):
    """One classic RK4 step from z, given its first stage k1 = rhs(z)."""
    k2 = rhs(z + 0.5 * h * k1)
    k3 = rhs(z + 0.5 * h * k2)
    k4 = rhs(z + h * k3)
    return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# Dormand & Prince's 5(4) pair (Hairer, Norsett & Wanner, Solving ODEs I, 2nd
# ed., Table II.5.2): each row of A gives the next stage's point,
# z + h sum_j a_j k_j over the stages so far.  The last row holds the
# fifth-order weights, so the last stage is rhs at the update ("first same as
# last"); E weighs the seven stages into the update minus the embedded
# fourth-order solution.
_DOPRI_A = [np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DOPRI_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                     22 / 525, -1 / 40])


def _dopri_step(rhs, z, k1, h):
    """One Dormand-Prince 5(4) step from z, given its first stage k1 = rhs(z):
    the fifth-order update, its difference from the fourth-order companion,
    and rhs at the update, which is the next step's first stage."""
    K = np.empty((7, z.shape[0]))
    K[0] = k1
    for i, a in enumerate(_DOPRI_A, start=1):
        z_new = z + h * (a[:, None] * K[:i]).sum(axis=0)
        K[i] = rhs(z_new)
    return z_new, h * (_DOPRI_E[:, None] * K).sum(axis=0), K[6]


def integrate_geodesic(model, s0: TangentSample, t_end: float, step: float,
                       tol: float | None = None) -> Trajectory:
    """Integration of the geodesic equation of the model's metric.

    With `tol` None every step is an RK4 step `step` long and `t_end` must be
    a whole number of them.  With `tol` (finite, > 0) the step is chosen by
    local error: a step longer than `step` is a Dormand-Prince 5(4) step,
    accepted when max_i |z5 - z4|_i / (tol (1 + |z_i|)) <= 1 and retried
    shorter otherwise (or when it trips a guard below); a step of at most
    `step`, the floor, is a plain RK4 step that is never retried.  The
    fifth-order update is the one kept; the next step grows by
    min(5, 0.9 err^(-1/5)), fivefold after a floor step, and the last step
    lands on `t_end`.  A retry that falls to the floor makes the next longer
    attempt wait 1, 2, 4, ... floor steps, until one is accepted, so a flow
    the pair cannot resolve runs at about the fixed-step cost instead of
    alternating floor steps with rejected attempts.  The spray is evaluated
    once per state: a Dormand-Prince step's last stage, the spray at its
    update, is the next step's first, and a retry reuses its start's.

    Halts early (escape_reason and exit_time set) when a step at the floor
    meets a state where the metric value F is undefined or stops resolving
    the flow.  F is a first integral of its own geodesic flow, so its drift
    measures integration quality.
    """
    for name, v in (("step", step), ("t_end", t_end)):
        if not 0.0 < v < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be None or finite and > 0, got {tol!r}")
    ratio = t_end / step
    if not ratio <= MAX_GEODESIC_STEPS:
        raise ValueError(f"t_end/step = {ratio!r} exceeds {MAX_GEODESIC_STEPS} RK4 steps")
    nsteps = round(ratio)
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * ratio:
        raise ValueError(f"t_end/step = {ratio!r} is not a whole number of RK4 steps")
    energy = as_energy(model)
    _require_in_domain(s0)
    n = energy.dim
    ts = [0.0]
    xs = [s0.x.copy()]
    ys = [s0.y.copy()]
    Fs = [energy.f_value(s0.x, s0.y)]
    if Fs[0] is None or not np.isfinite(Fs[0]):
        raise DomainEscape(f"start x={s0.x.tolist()}, y={s0.y.tolist()} is outside "
                           f"the domain of the metric")
    z = np.concatenate([s0.x, s0.y])
    escape_reason = None
    # beyond this the flow has left any region a floor step can track (e.g. a
    # changed spray blowing up toward its degeneracy surface)
    state_cap = 1e9 * max(1.0, float(np.max(np.abs(z))))

    def rhs(zv):
        return _spray_rhs(energy, zv[:n], zv[n:])

    h = step
    k1 = None  # the spray at z, once evaluated
    floor_left, backoff = 0, 1  # floor steps before the next longer attempt
    while len(ts) <= nsteps if tol is None else ts[-1] < t_end:
        if tol is None:
            t = len(ts) * step
        elif (t := ts[-1] + h) >= t_end:
            h, t = t_end - ts[-1], t_end
        embedded = tol is not None and h > step
        err = 0.0
        try:
            if k1 is None:
                k1 = rhs(z)
            if embedded:
                z_new, dz, k_new = _dopri_step(rhs, z, k1, h)
            else:
                z_new, k_new = _rk4_step(rhs, z, k1, h), None
            if not np.all(np.isfinite(z_new)) or np.max(np.abs(z_new)) > state_cap:
                escape_reason = "state blow-up"
            elif embedded and not (err := float(np.max(
                    np.abs(dz) / (tol * (1.0 + np.abs(z)))))) <= 1.0:
                pass  # too long a step: retried below
            elif (F_new := energy.f_value(z_new[:n], z_new[n:])) is None:
                escape_reason = "left the domain"
            elif abs(F_new - Fs[-1]) > max(1e-5 * h, 1e-12) * max(abs(Fs[0]), abs(Fs[-1])):
                # a single-step jump of F far above the drift budget means the
                # step stopped resolving the flow (e.g. a changed spray
                # stiffening toward its degeneracy surface)
                escape_reason = "first-integral jump"
        except (SingularMetric, EvalError, DomainEscape, OutsideHatDomain,
                np.linalg.LinAlgError, FloatingPointError, OverflowError) as e:
            escape_reason = type(e).__name__
            t = ts[-1] + h
        if embedded and (escape_reason is not None or not err <= 1.0):
            # retry shorter: by the error estimate, or by the largest cut past
            # a guard or a non-finite estimate; the floor is never retried
            cut = 0.2 if escape_reason or not err < np.inf else max(0.2, 0.9 * err ** -0.2)
            h = max(step, h * cut)
            if h == step:
                floor_left, backoff = backoff, 2 * backoff
            escape_reason = None
            continue
        if escape_reason is not None:
            break
        z, k1 = z_new, k_new
        ts.append(t)
        xs.append(z[:n].copy())
        ys.append(z[n:].copy())
        Fs.append(F_new)
        if embedded:
            h *= min(5.0, 0.9 * err ** -0.2) if err > 0.0 else 5.0
            backoff = 1
        elif tol is not None and (floor_left := floor_left - 1) <= 0:
            h *= 5.0

    return Trajectory(
        t=np.array(ts), x=np.array(xs), y=np.array(ys), F=np.array(Fs),
        escape_reason=escape_reason, exit_time=None if escape_reason is None else t,
    )
