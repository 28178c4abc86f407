"""The concurrent-field metric change Fhat = F^2/(F - Phi) and its identity suite.

Phi is the pairing of the model's phi field with the direction, taken through
the fundamental tensor: Phi = g(phi, y).  The sign of phi is part of the
model: the two normalizations of a concurrent field (horizontal covariant
derivative +id or -id) are `model` and `model.oriented(-1)`, and every
operation here uses phi as its model gives it.  The laws are written for
the -id normalization; `select_orientation` reads the sign that gives it off
the fitted trace of the model's measured covariant derivative.

Predicted objects come from closed-form transformation laws in terms of base
quantities (g, ell, phi, F, Phi, p^2 and the scalars f1, f2); direct objects
are recomputed from scratch by running the ordinary metric/connection pipeline
on Fhat itself.  The suite reports the residual between the two routes for
every law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connections import SPRAY_ORDERS, GeometryJets, phi_covariants, phi_values
from .core import MetricData, ModelEnergy, TangentSample, make_sample, metric_data
from .errors import DegenerateMargin, OutsideHatDomain
from .numkit import Jet
from .report import IdentityResult, PairAccumulator

__all__ = [
    "ChangeScalars",
    "HatEnergy",
    "change_scalars",
    "change_identity_suite",
    "concurrency_obstruction",
    "concurrent_form",
    "lemma_identity_suite",
    "margin_ray_scan",
    "nondegeneracy_scan",
    "predicted_angular",
    "predicted_berwald",
    "predicted_cartan",
    "predicted_curvature",
    "predicted_metric",
    "predicted_metric_determinant",
    "predicted_nonlinear_connection",
    "predicted_positive_definite",
    "predicted_spray",
    "predicted_supporting_form",
    "projective_check",
    "rational_decomposition_check",
    "select_orientation",
    "hat_sample_predicate",
    "CHANGE_TOLERANCES",
]

# margin threshold (relative to F) below which change scalars are refused
MARGIN_EPS = 1e-8
# relative fence of the hat domain: points within roundoff distance of the
# boundary F = Phi are excluded along with the outside
HAT_FENCE = 1e-10
# suites additionally keep clear of the hat-domain boundary F = Phi
HAT_GAP_FRACTION = 0.05
# hat-side samples keep |margin| above this fraction of F.  This fences the
# margin = 0 locus only: ghat also degenerates on F = 2 Phi for n >= 3, which
# no fence keeps away, so a fenced sample may still have an indefinite ghat.
# The change laws are algebraic identities and hold there too.
HEALTHY_MARGIN = 0.1
# directions swept around the circle by the margin ray scan, and the |margin|
# levels it samples |det ghat| at
RAY_THETA_STEPS = 720
RAY_DET_TARGETS = (1e-6, 0.5)
# orthogonal-component ratio the projective check must stay above
PROJECTIVE_THRESHOLD = 1e-8
# closed-form concurrency obstruction against its Berwald route
OBSTRUCTION_TOLERANCE = 1e-9


def _inside_hat_fence(F: float, Phi: float) -> bool:
    return F - Phi > HAT_FENCE * F


def _require_hat_domain(F: float, Phi: float, s: TangentSample):
    if not _inside_hat_fence(F, Phi):
        raise OutsideHatDomain(
            f"F - Phi = {F - Phi} at x={s.x.tolist()}, y={s.y.tolist()} "
            f"is not safely positive")


def concurrent_form(phi, E: Jet) -> Jet:
    """Jet of Phi = phi^i dE/dy^i from phi values (floats or jets) and an energy jet.

    Phi = g(phi, y) by Euler's theorem, so it needs one y-order of E only.  A
    phi component that is the number 0 adds no term: it would add +-0.0."""
    Phi = E.space.zero()
    Phi.y_valid, Phi.x_valid = E.y_valid - 1, E.x_valid
    for i, p in enumerate(phi):
        if isinstance(p, Jet) or p != 0.0:
            Phi = Phi + p * E.diff_y(i)
    return Phi


class HatEnergy:
    """Energy provider of the changed metric; plugs into the ordinary pipeline.

    Phi takes one y-derivative of the base energy, so a jet valid to y-order k
    lives in a base space of y-order k + 1.  Past the hat fence `energy_jet`
    raises OutsideHatDomain and `f_value` returns None.  Like its base
    provider, it keeps its last answer: the jet and the values of F and Phi
    at one point (the same bytes of x and y) and one pair of orders."""

    def __init__(self, model):
        self.model = model
        self.dim = model.dim
        self.base = ModelEnergy(model)
        self._last = None   # ((x bytes, y bytes, orders), jet or None, F, Phi)

    def _jet_and_values(self, s: TangentSample, y_order: int, x_order: int):
        """The energy jet at `s` valid to (y_order, x_order), None past the hat
        fence, and the values of F and Phi there.  F's square root is taken
        valid to those orders, not to the base jet's; phi is evaluated on the
        coordinate jets of the base jet's build."""
        key = (s.x.tobytes(), s.y.tobytes(), y_order, x_order)
        if self._last is not None and self._last[0] == key:
            return self._last[1:]
        E = self.base.energy_jet(s, y_order + 1, x_order)
        xs = self.base.coordinates(s, E.space)[:self.dim]
        Phi = concurrent_form([p(xs, None) for p in self.model.phi_fns], E)
        F = (2.0 * E).truncated(y_order, x_order).sqrt()
        jet = None
        if _inside_hat_fence(F.value, Phi.value):
            Fhat = (2.0 * E) / (F - Phi)
            jet = 0.5 * Fhat * Fhat
        self._last = (key, jet, F.value, Phi.value)
        return self._last[1:]

    def energy_jet(self, s: TangentSample, y_order: int, x_order: int) -> Jet:
        jet, F, Phi = self._jet_and_values(s, y_order, x_order)
        _require_hat_domain(F, Phi, s)
        return jet

    def f_value(self, x, y) -> float | None:
        """Fhat = F^2/(F - Phi), from the values of F and Phi that come with the
        energy jet the spray's next stage at (x, y) asks for, which is built
        here and kept for it."""
        if not self.model.in_domain(x, y):
            return None
        s = TangentSample(np.asarray(x, float), np.asarray(y, float), True)
        jet, F, Phi = self._jet_and_values(s, *SPRAY_ORDERS)
        return None if jet is None else F ** 2 / (F - Phi)

    def in_domain(self, x, y) -> bool:
        return self.f_value(x, y) is not None


@dataclass
class ChangeScalars:
    """Scalar data of the change at one sample, as floats (`change_scalars`) or
    as jets (`ChangeJets.scalars`, whose phi^i keeps a constant component a
    float), with the base metric data `md` there."""

    md: MetricData
    F: float | Jet
    Phi: float | Jet
    phi_up: np.ndarray | list   # phi^i
    phi_low: np.ndarray | list  # phi_i = g_ij phi^j
    p2: float | Jet

    @cached_property
    def margin(self):
        return self.F * (1.0 + 2.0 * self.p2) - 3.0 * self.Phi

    @cached_property
    def f1(self):
        return self.F * (4.0 * self.Phi - self.F) / self.margin

    @cached_property
    def f2(self):
        return 2.0 * self.F**3 / self.margin

    @cached_property
    def a(self):
        """a = F^2 (F - 2 Phi)/(F - Phi)^3, the factor of g, hbar and C in ghat, hhat, Chat."""
        return self.F**2 * (self.F - 2 * self.Phi) / (self.F - self.Phi) ** 3

    @property
    def Fhat(self):
        return self.F * self.F / (self.F - self.Phi)


def _scalar_values(md: MetricData, model, s: TangentSample) -> ChangeScalars:
    """Value-level scalars from the base metric data at `s`, through g:
    phi_low = g phi, Phi = phi_low . y; does not raise on degeneracy (scan use)."""
    phi_up = phi_values(model, s.x)
    phi_low = md.g @ phi_up
    return ChangeScalars(md=md, F=md.F, Phi=float(phi_low @ s.y), phi_up=phi_up,
                         phi_low=phi_low, p2=float(phi_low @ phi_up))


def change_scalars(md: MetricData, model, s: TangentSample) -> ChangeScalars:
    """Phi, p^2, the margin and f1, f2 from the base metric data at `s`,
    checked: raises OutsideHatDomain past the hat fence and DegenerateMargin
    when |margin| <= MARGIN_EPS * F (f1, f2 divide by it)."""
    sc = _scalar_values(md, model, s)
    _require_hat_domain(sc.F, sc.Phi, s)
    if abs(sc.margin) <= MARGIN_EPS * sc.F:
        raise DegenerateMargin(f"|margin| = {abs(sc.margin)} <= {MARGIN_EPS} * F")
    return sc


# --------------------------------------------------------------------------
# predicted transformation laws (value level)
# --------------------------------------------------------------------------

def predicted_supporting_form(sc: ChangeScalars) -> np.ndarray:
    F, P = sc.F, sc.Phi
    return F * (F - 2 * P) / (F - P) ** 2 * sc.md.ell + F**2 / (F - P) ** 2 * sc.phi_low


def predicted_metric(sc: ChangeScalars) -> np.ndarray:
    F, P, md = sc.F, sc.Phi, sc.md
    b = 3 * F**4 / (F - P) ** 4
    c = F**2 * P * (4 * P - F) / (F - P) ** 4
    d = F**3 * (F - 4 * P) / (F - P) ** 4
    pl, el = sc.phi_low, md.ell
    return (sc.a * md.g + b * np.outer(pl, pl) + c * np.outer(el, el)
            + d * (np.outer(pl, el) + np.outer(el, pl)))


def predicted_metric_determinant(sc: ChangeScalars) -> float:
    """det ghat = det g a^(n-2) F^5 margin / (F - Phi)^6: the matrix
    determinant lemma on ghat = a g + (rank 2 in phi_low, ell).  It vanishes
    on margin = 0 and, for n >= 3, on F = 2 Phi."""
    F, n = sc.F, len(sc.phi_low)
    return sc.md.det_g * sc.a ** (n - 2) * F**5 * sc.margin / (F - sc.Phi) ** 6


def predicted_positive_definite(sc: ChangeScalars) -> bool:
    """Whether ghat is positive definite, for a Riemannian F (inside the hat
    domain): margin > 0 and, for n >= 3, F > 2 Phi.  Chern & Shen's condition
    for the (alpha, beta)-metric with phi(s) = 1/(1 - s)."""
    return sc.margin > 0 and (len(sc.phi_low) == 2 or sc.F > 2 * sc.Phi)


def predicted_angular(sc: ChangeScalars) -> np.ndarray:
    F, P, md = sc.F, sc.Phi, sc.md
    b = 2 * F**4 / (F - P) ** 4
    c = 2 * P**2 * F**2 / (F - P) ** 4
    d = -2 * P * F**3 / (F - P) ** 4
    pl, el = sc.phi_low, md.ell
    return (sc.a * md.hbar + b * np.outer(pl, pl) + c * np.outer(el, el)
            + d * (np.outer(pl, el) + np.outer(el, pl)))


def predicted_cartan(sc: ChangeScalars) -> np.ndarray:
    """Chat_ijk = a C_ijk + F^2 (F - 4 Phi) / (2 (F - Phi)^4) sigma(hbar_ij m_k)
    + 6 F^4 / (F - Phi)^5 m_i m_j m_k, with m = phi_low - (Phi/F) ell,
    a = `ChangeScalars.a` and sigma the cyclic sum over (i, j, k):
    Shibata's beta-change form, valid where phi_low does not depend on y
    (phi^k C_kij = 0, as for a concurrent field)."""
    F, P, md = sc.F, sc.Phi, sc.md
    b = F**2 * (F - 4 * P) / (2 * (F - P) ** 4)
    c = 6 * F**4 / (F - P) ** 5
    m = sc.phi_low - (P / F) * md.ell
    hm = np.einsum("ij,k->ijk", md.hbar, m)
    return (sc.a * md.cartanC + b * (hm + hm.transpose(1, 2, 0) + hm.transpose(2, 0, 1))
            + c * np.einsum("i,j,k->ijk", m, m, m))


def predicted_spray(sc: ChangeScalars, G, y) -> np.ndarray:
    """Ghat^i = G^i + (1/2) f1 y^i - (1/2) f2 phi^i, per component, so the
    spray, the direction and the scalars may be floats or jets."""
    return np.array([G[i] + 0.5 * sc.f1 * y[i] - 0.5 * sc.f2 * sc.phi_up[i]
                     for i in range(len(y))])


# --------------------------------------------------------------------------
# jet bundle of the change at one sample
# --------------------------------------------------------------------------

class ChangeJets:
    """Jets of the change scalars at one sample, sharing one base geometry, and
    values read off them in one gather per partial:
    H = Nhat - N = (1/2)(f1 delta^i_j + y^i f1_j - phi^i f2_j), f_j = df/dy^j,
    with H_dy[i, j, k] = dH^i_j/dy^k and H_dx[i, j, k] = dH^i_j/dx^k."""

    def __init__(self, geo: GeometryJets):
        self.geo = geo
        self.n = geo.n
        self.ys = range(self.n, 2 * self.n)
        self.phi = geo.phi

    @cached_property
    def scalars(self) -> ChangeScalars:
        geo, n, phi = self.geo, self.n, self.geo.phi_jets
        Phi, F = concurrent_form(phi, geo.E), geo.F_jet
        g = geo.g_jets
        phi_low = [sum((g[i][j] * phi[j] for j in range(1, n)), g[i][0] * phi[0])
                   for i in range(n)]
        p2 = sum((phi_low[i] * phi[i] for i in range(n)), geo.space.zero())
        return ChangeScalars(md=geo.md, F=F, Phi=Phi, phi_up=phi, phi_low=phi_low, p2=p2)

    @cached_property
    def spray_pred_jets(self):
        return predicted_spray(self.scalars, self.geo.spray_jets, self.geo.coords[self.n:])

    @cached_property
    def df(self):   # (df1/dy^j, df2/dy^j)
        return self.scalars.f1.partials(self.ys), self.scalars.f2.partials(self.ys)

    @cached_property
    def H(self) -> np.ndarray:
        (df1, df2), f1 = self.df, self.scalars.f1.value
        return (0.5 * (np.outer(self.geo.s.y, df1) - np.outer(self.phi, df2))
                + 0.5 * f1 * np.eye(self.n))

    @cached_property
    def H_dy(self) -> np.ndarray:
        sc, ys, eye, df1 = self.scalars, self.ys, np.eye(self.n), self.df[0]
        return 0.5 * (np.einsum("ij,k->ijk", eye, df1) + np.einsum("ik,j->ijk", eye, df1)
                      + np.einsum("i,jk->ijk", self.geo.s.y, sc.f1.partials(ys, ys))
                      - np.einsum("i,jk->ijk", self.phi, sc.f2.partials(ys, ys)))

    @cached_property
    def H_dx(self) -> np.ndarray:
        sc, xs, ys = self.scalars, range(self.n), self.ys
        return 0.5 * (np.einsum("ij,k->ijk", np.eye(self.n), sc.f1.partials(xs))
                      + np.einsum("i,jk->ijk", self.geo.s.y, sc.f1.partials(ys, xs))
                      - np.einsum("ik,j->ijk", self.geo.phi_jacobian, self.df[1])
                      - np.einsum("i,jk->ijk", self.phi, sc.f2.partials(ys, xs)))


# --------------------------------------------------------------------------
# predicted laws read off the change jets
# --------------------------------------------------------------------------

def predicted_nonlinear_connection(cj: ChangeJets) -> np.ndarray:
    """Nhat^i_j = N^i_j + H^i_j; needs base jets of order (3, 1)."""
    return cj.geo.nonlinear + cj.H


def predicted_berwald(cj: ChangeJets) -> np.ndarray:
    """Ghat^i_jk = G^i_jk + dH^i_j/dy^k = G^i_jk + (1/2)(f1_jk y^i
    + f1_j delta^i_k + f1_k delta^i_j - f2_jk phi^i); needs base jets of order (4, 1)."""
    return cj.geo.berwald + cj.H_dy


def predicted_curvature(cj: ChangeJets) -> np.ndarray:
    """Rhat^i_jk = R^i_jk + delta_j H^i_k - delta_k H^i_j - H^m_j Ghat^i_km
    + H^m_k Ghat^i_jm, with the base's delta_j = d/dx^j - N^m_j d/dy^m and Ghat
    the predicted Berwald law; needs base jets of order (4, 2)."""
    H, Ghat, N = cj.H, predicted_berwald(cj), cj.geo.nonlinear
    delta = cj.H_dx - np.einsum("mj,ikm->ikj", N, cj.H_dy)   # [i, k, j]: delta_j H^i_k
    return (cj.geo.curvature + np.einsum("ikj->ijk", delta) - delta
            - np.einsum("mj,ikm->ijk", H, Ghat) + np.einsum("mk,ijm->ijk", H, Ghat))


def concurrency_obstruction(cj: ChangeJets) -> np.ndarray:
    """Obstruction to phi staying concurrent for Fhat, read off the change jets
    of a base geometry valid to y-order 4 at one sample:
    O^i_j = [df1/dy^j - phi^k d2f2/dy^k dy^j] phi^i
            - (phi^k df1/dy^k) delta^i_j + (phi^k d2f1/dy^k dy^j) y^i.
    Generically nonzero."""
    sc, n, ys, ph, df1 = cj.scalars, cj.n, cj.ys, cj.phi, cj.df[0]
    return (np.outer(ph, df1 - ph @ sc.f2.partials(ys, ys)) - float(ph @ df1) * np.eye(n)
            + np.outer(cj.geo.s.y, ph @ sc.f1.partials(ys, ys)))


# --------------------------------------------------------------------------
# suite plumbing
# --------------------------------------------------------------------------

CHANGE_TOLERANCES = {
    "concurrent-form-two-routes": 1e-10,
    "supporting-form-pairing-of-phi": 1e-10,
    "supporting-form-change": 1e-8,
    "supporting-form-normalization": 1e-8,
    "metric-change": 1e-7,
    "metric-normalization": 1e-8,
    "angular-metric-change": 1e-7,
    "angular-consistency": 1e-10,
    "angular-annihilates-direction-hat": 1e-9,
    "cartan-torsion-change": 1e-6,
    "spray-change": 1e-6,
    "nonlinear-connection-change": 1e-6,
    "nonlinear-connection-internal": 1e-9,
    "berwald-change": 1e-6,
    "curvature-change": 1e-5,
}

LEMMA_TOLERANCES = {
    "vertical-derivative-of-concurrent-form": 1e-8,
    "horizontal-derivative-of-concurrent-form": 1e-8,
    "spray-pairing-of-concurrent-form": 1e-8,
    "horizontal-derivative-of-metric": 1e-8,
    "vertical-derivative-of-supporting-form": 1e-8,
    "direction-independence-of-phi-norm": 1e-8,
    "chain-rule-f1": 1e-8,
    "chain-rule-f2": 1e-8,
}


def _check_change(model, s: TangentSample, with_curvature: bool):
    """Predicted-vs-direct pairs of every transformation law and lemma identity
    at one sample, with the value scalars and change jets they read: one base
    and one hat geometry, both at order (4, 2) with curvature
    and (4, 1) without.  The hat geometry is built first, so the base
    geometry's energy jet is the restriction of the one its base provider
    built for the hat."""
    order = (4, 2 if with_curvature else 1)
    hat = HatEnergy(model)
    geo_hat = GeometryJets(hat, s, *order)
    geo = GeometryJets(hat.base, s, *order)   # restricts the hat's base jet
    md = geo.md
    sc = change_scalars(md, model, s)
    y, n = s.y, model.dim
    cj = ChangeJets(geo)
    mdh = geo_hat.md

    ellhat = predicted_supporting_form(sc)
    ghat = predicted_metric(sc)
    hhat = predicted_angular(sc)
    nhat_formula = predicted_nonlinear_connection(cj)
    nhat_from_spray = np.array([G.partials(range(n, 2 * n)) for G in cj.spray_pred_jets])
    out = {
        "concurrent-form-two-routes": ([cj.scalars.Phi.value], [sc.Phi]),
        "supporting-form-pairing-of-phi": ([float(md.ell @ sc.phi_up)], [sc.Phi / sc.F]),
        "supporting-form-change": (ellhat, mdh.ell),
        "supporting-form-normalization": ([float(ellhat @ y)], [sc.Fhat]),
        "metric-change": (ghat, mdh.g),
        "metric-normalization": ([float(y @ ghat @ y)], [sc.Fhat**2]),
        "angular-metric-change": (hhat, mdh.hbar),
        "angular-consistency": (hhat, ghat - np.outer(ellhat, ellhat)),
        "angular-annihilates-direction-hat": (hhat @ y, np.zeros(len(y))),
        "cartan-torsion-change": (predicted_cartan(sc), mdh.cartanC),
        "spray-change": (predicted_spray(sc, geo.spray, y), geo_hat.spray),
        "nonlinear-connection-change": (nhat_formula, geo_hat.nonlinear),
        "nonlinear-connection-internal": (nhat_formula, nhat_from_spray),
        "berwald-change": (predicted_berwald(cj), geo_hat.berwald),
    }
    if with_curvature:
        out["curvature-change"] = (predicted_curvature(cj), geo_hat.curvature)
    out.update(_lemma_pairs(cj, sc))
    return out, sc, cj


def _lemma_pairs(cj: ChangeJets, sc: ChangeScalars):
    """Pairs of the concurrent-field lemma, read off change jets whose base
    geometry is valid to (3, 1) or more and the value scalars `sc` there."""
    geo, jets, md = cj.geo, cj.scalars, sc.md
    y, n = geo.s.y, geo.n
    xs, ys = range(n), range(n, 2 * n)
    N, G = geo.nonlinear, geo.spray
    F, m, Phi, p2 = sc.F, sc.margin, sc.Phi, sc.p2

    dyPhi = jets.Phi.partials(ys)
    dxPhi = jets.Phi.partials(xs)
    deltaPhi = dxPhi - N.T @ dyPhi
    dPhi_G = float(y @ dxPhi - 2.0 * G @ dyPhi)

    deltaF = jets.F.partials(xs) - N.T @ jets.F.partials(ys)
    dell = jets.F.partials(ys, ys)
    dp2 = jets.p2.partials(ys)

    df1, df2 = cj.df
    df1_dF = (4 * Phi - 2 * F) / m - F * (4 * Phi - F) * (1 + 2 * p2) / m**2
    df1_dP = (4 * F * m + 3 * F * (4 * Phi - F)) / m**2
    df2_dF = 6 * F**2 / m - 2 * F**3 * (1 + 2 * p2) / m**2
    df2_dP = 6 * F**3 / m**2

    return {
        "vertical-derivative-of-concurrent-form": (dyPhi, sc.phi_low),
        "horizontal-derivative-of-concurrent-form": (deltaPhi, -F * md.ell),
        "spray-pairing-of-concurrent-form": ([dPhi_G], [-(F**2)]),
        "horizontal-derivative-of-metric": (deltaF / F, np.zeros(n)),
        "vertical-derivative-of-supporting-form": (F * dell, md.hbar),
        "direction-independence-of-phi-norm": (dp2 / max(1.0, p2), np.zeros(n)),
        "chain-rule-f1": (df1, df1_dF * md.ell + df1_dP * sc.phi_low),
        "chain-rule-f2": (df2, df2_dF * md.ell + df2_dP * sc.phi_low),
    }


_TOLERANCES = {**CHANGE_TOLERANCES, **LEMMA_TOLERANCES}


def _obstruction_pair(cj: ChangeJets, berwald_hat: np.ndarray):
    """The closed-form obstruction O and its Berwald route at one sample,
    -2 sigma phi^m (Ghat^i_mk - G^i_mk) - 2 (phi^m df1/dy^m) delta^i_k, with
    sigma = trace(hcov phi)/n and both Berwald connections recomputed: phi
    stays concurrent for Fhat where O = -2 (phi . df1) delta, not O = 0."""
    n, ph = cj.n, cj.phi
    sigma = np.trace(phi_covariants(cj.geo)[0]) / n
    direct = (-2.0 * sigma * np.einsum("m,imk->ik", ph, berwald_hat - cj.geo.berwald)
              - 2.0 * float(ph @ cj.df[0]) * np.eye(n))
    return concurrency_obstruction(cj), direct


def change_identity_suite(model, s_batch, with_curvature: bool = True) -> list:
    """Predicted-vs-direct residuals of every transformation law over a batch,
    then the lemma identities, projective-impossibility and
    concurrency-obstruction.  The same pass reads the projective witness at
    every sample (a ratio below 1e-10 means phi is parallel to y there, no
    violation) and the concurrency obstruction against its Berwald route at
    the first max(8, len(s_batch) // 8)."""
    accs = {}
    skipped = 0
    ratios = []   # projective_check per sample with change scalars
    obstruction = PairAccumulator("concurrency-obstruction", OBSTRUCTION_TOLERANCE)
    obs_max = 0.0
    for k, s in enumerate(s_batch):
        try:
            pairs, sc, cj = _check_change(model, s, with_curvature)
        except (OutsideHatDomain, DegenerateMargin):
            skipped += 1
            continue
        for name, (pred, direct) in pairs.items():
            if name not in accs:
                accs[name] = PairAccumulator(name, _TOLERANCES[name])
            accs[name].add(s, pred, direct)
        ratios.append(projective_check(sc, s.y))
        if k < max(8, len(s_batch) // 8):
            O, direct = _obstruction_pair(cj, pairs["berwald-change"][1])
            obstruction.add(s, O, direct)
            obs_max = max(obs_max, float(np.max(np.abs(O))))
    note = f"{skipped} samples skipped (outside hat domain or degenerate margin)" \
        if skipped else ""
    checked = [r for r in ratios if r is not None and not r < 1e-10]
    min_ratio = min([math.inf] + checked)
    return (
        [accs[k].result(note) for k in sorted(accs) if k in CHANGE_TOLERANCES]
        + [accs[k].result(note) for k in sorted(accs) if k in LEMMA_TOLERANCES]
        + [IdentityResult(
            name="projective-impossibility", kind="identity",
            residual=PROJECTIVE_THRESHOLD / max(min_ratio, 1e-300),
            tolerance=1.0, n_samples=len(checked),
            note=f"min orthogonal-component ratio {min_ratio!r}; "
                 f"{len(ratios) - len(checked) - ratios.count(None)} parallel and "
                 f"{skipped + ratios.count(None)} degenerate samples skipped"),
           obstruction.result(f"max |O| = {obs_max!r}")])


def lemma_identity_suite(model, s_batch):
    """The lemma entries of `change_identity_suite` without curvature.  Nothing
    in the package or its tests calls it: `verify` and the tests read these
    entries off `change_identity_suite`'s list, and only the perfbench
    tracer's `matsumoto.lemma_suite` binding holds it."""
    return [r for r in change_identity_suite(model, s_batch, with_curvature=False)
            if r.name in LEMMA_TOLERANCES]


def select_orientation(sigma: float) -> float:
    """The sign under which the oriented field has horizontal covariant
    derivative -identity, the normalization the change laws are written in,
    given the fitted sigma = trace(nabla phi)/n of the model's own phi (the
    `concurrency_probe` fit): +1 when sigma < 0, else -1, so a zero or
    parallel field (sigma = 0) gets -1."""
    return 1.0 if sigma < 0.0 else -1.0


def _clear_of_hat_boundary(sc: ChangeScalars) -> bool:
    return sc.F - sc.Phi > HAT_GAP_FRACTION * sc.F


def hat_sample_predicate(model):
    """Sample filter for hat-side statistics: inside the hat domain with a
    relative gap to its boundary, and a healthy |margin|."""

    def ok(s: TangentSample) -> bool:
        sc = _scalar_values(metric_data(model, s), model, s)
        return _clear_of_hat_boundary(sc) and abs(sc.margin) > HEALTHY_MARGIN * sc.F

    return ok


# --------------------------------------------------------------------------
# theorem-level checks
# --------------------------------------------------------------------------

def nondegeneracy_scan(model, s_batch):
    """The determinant law and the signature of the hat metric over a batch,
    at every sample clear of the hat-domain boundary: the det of the hat
    metric recomputed on Fhat's jets against `predicted_metric_determinant`,
    and the sign of its smallest eigenvalue against
    `predicted_positive_definite`.  Together they carry the condition for
    Fhat to be a Finsler metric: margin > 0 and, for n >= 3, F > 2 Phi."""
    census = PairAccumulator("nondegeneracy-margin-scan", 1e-9)
    signature = PairAccumulator("nondegeneracy-signature", 0.0)
    low_margin = low_F = 0   # samples predicted indefinite, per locus
    hat = HatEnergy(model)
    for s in s_batch:
        # the hat geometry's base jet is the one this metric data reads
        sc = _scalar_values(metric_data(hat.base, s), model, s)
        if _clear_of_hat_boundary(sc):
            ghat = GeometryJets(hat, s, 2, 0).metric
            census.add(s, [predicted_metric_determinant(sc)], [np.linalg.det(ghat)])
            signature.add(s, [float(predicted_positive_definite(sc))],
                          [float(np.linalg.eigvalsh(ghat)[0] > 0)])
            low_margin += int(sc.margin <= 0)
            low_F += int(model.dim > 2 and sc.F <= 2 * sc.Phi)
    return [census.result(), signature.result(
        f"samples predicted indefinite: {low_margin} with margin <= 0, "
        f"{low_F} with F <= 2 Phi (n >= 3)")]


def margin_ray_scan(model, x):
    """Sweep unit directions y(theta) at a fixed base point (dim 2 only),
    root-find a margin zero, and sample |det ghat| at the |margin| levels
    RAY_DET_TARGETS.  `verify` does not run it; acceptance criterion 5, the
    unit tests of the collapse and the perfbench tracer's
    `matsumoto.theorem_checks` binding call it.

    Returns None when the margin does not change sign along the circle.
    """
    if model.dim != 2:
        raise ValueError("the ray scan is implemented for dim-2 models")
    x = np.asarray(x, dtype=float)

    hat = HatEnergy(model)

    def sample(theta):
        return make_sample(model, x, np.array([math.cos(theta), math.sin(theta)]))

    def margin_at(theta):
        s = sample(theta)
        return _scalar_values(metric_data(hat.base, s), model, s).margin

    def det_at(theta):
        return float(np.linalg.det(GeometryJets(hat, sample(theta), 2, 0).metric))

    steps = RAY_THETA_STEPS
    thetas = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    vals = [margin_at(t) for t in thetas]
    bracket = None
    for k in range(steps):
        a, b = thetas[k], thetas[(k + 1) % steps] + (0 if k + 1 < steps else 2 * math.pi)
        if vals[k] == 0.0:
            bracket = (a, a)
            break
        if vals[k] * vals[(k + 1) % steps] < 0.0:
            bracket = (a, b)
            break
    if bracket is None:
        return None

    def bisect(f, lo, hi, iters=200):
        flo = f(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                return mid
            state = (lo, hi, flo)
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
            if (lo, hi, flo) == state:
                break   # mid is lo or hi: every later iteration repeats this one
        return 0.5 * (lo + hi)

    theta_star = bracket[0] if bracket[0] == bracket[1] else \
        bisect(margin_at, bracket[0], bracket[1])

    levels = {}
    for target in RAY_DET_TARGETS:
        # walk from theta_star toward growing |margin| until it crosses `target`
        span = 1e-4
        while abs(margin_at(theta_star + span)) < target and span < math.pi:
            span *= 2.0
        th = bisect(lambda t: abs(margin_at(t)) - target,
                    theta_star, theta_star + span)
        levels[target] = {"theta": th, "margin": margin_at(th), "det": det_at(th)}

    return {"theta_star": float(theta_star), "margin_at_star": margin_at(theta_star),
            "det_at_star": det_at(theta_star), "levels": levels}


def projective_check(sc: ChangeScalars, y: np.ndarray) -> float | None:
    """Pointwise witness that the change is never a pure reparametrization:
    the share of the non-radial spray difference (1/2) f2 phi that is
    g-orthogonal to y, from the value scalars at one sample; None where that
    difference has no g-length."""
    g = sc.md.g
    v = 0.5 * sc.f2 * sc.phi_up
    nv = math.sqrt(abs(float(v @ g @ v)))
    if nv < 1e-14:
        return None
    w = v - (float(v @ g @ y) / float(y @ g @ y)) * y
    return math.sqrt(abs(float(w @ g @ w))) / nv


def rational_decomposition_check(model, s_batch):
    """Residuals of the factored forms theta*a = g and theta_hat*a_hat = ghat.

    The base factorization requires shipped closed forms for the model and is
    skipped without them; the hat factorization uses theta_hat = F^2/(F - Phi)^4
    with a_hat rebuilt from metric data (g, ell, phi, F, Phi), and is checked
    against the directly recomputed ghat for every model.
    """
    from . import models as _models

    base_forms = _models.decomposition_forms(model)
    acc_base = PairAccumulator("rational-decomposition-base", 1e-9)
    acc_hat = PairAccumulator("rational-decomposition-hat", 1e-9)
    skipped = 0
    hat = HatEnergy(model)
    for s in s_batch:
        # the hat metric below is served from this base energy jet
        md = metric_data(hat.base, s)
        if base_forms is not None:
            theta, a = base_forms(s.x, s.y)
            acc_base.add(s, theta * a, md.g)
        try:
            sc = change_scalars(md, model, s)
            ghat = GeometryJets(hat, s, 2, 0).metric
        except (OutsideHatDomain, DegenerateMargin):
            skipped += 1
            continue
        F, P = sc.F, sc.Phi
        el, pl = md.ell, sc.phi_low
        theta_hat = F**2 / (F - P) ** 4
        cross = np.outer(pl, F * el) + np.outer(F * el, pl)
        a_hat = ((F**2 + 2 * P**2) * md.g + 3 * F**2 * np.outer(pl, pl)
                 + 4 * P**2 * np.outer(el, el) - 4 * P * cross
                 - F * P * (3 * md.g + np.outer(el, el)) + F * cross)
        acc_hat.add(s, theta_hat * a_hat, ghat)
    note = f"{skipped} samples outside hat domain skipped" if skipped else ""
    base = acc_base.result() if base_forms is not None else IdentityResult(
        name="rational-decomposition-base", kind="skipped",
        note=f"no factored closed forms shipped for model {model.name!r}")
    return [base, acc_hat.result(note)]
