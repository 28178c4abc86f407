"""The concurrent-field metric change Fhat = F^2/(F - Phi) and its identity suite.

Phi is the pairing of the model's phi field with the direction, taken through
the fundamental tensor: Phi = g(phi, y).  Every operation accepts an
`orientation` in {+1, -1} that multiplies phi before Phi is formed; the two
signs correspond to the two possible normalizations of a concurrent field
(horizontal covariant derivative +id or -id), and the harness selects the one
that minimizes the total identity residual rather than presuming either.

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

from .connections import (GeometryJets, berwald_from_njets, curvature_from_njets,
                          phi_values)
from .core import ModelEnergy, TangentSample, make_sample, metric_data
from .errors import DegenerateMargin, OutsideHatDomain
from .numkit import Jet
from .report import IdentityResult, PairAccumulator

__all__ = [
    "ChangeScalars",
    "HatEnergy",
    "change_scalars",
    "change_identity_suite",
    "concurrency_obstruction",
    "lemma_identity_suite",
    "margin_ray_scan",
    "nondegeneracy_scan",
    "predicted_angular",
    "predicted_berwald",
    "predicted_cartan",
    "predicted_metric",
    "predicted_nonlinear_connection",
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
# a margin above this fraction of F counts as healthy (far from degeneracy)
HEALTHY_MARGIN = 0.1
# directions swept around the circle by the margin ray scan
RAY_THETA_STEPS = 720


def _inside_hat_fence(F: float, Phi: float) -> bool:
    return F - Phi > HAT_FENCE * F


def _require_hat_domain(F: float, Phi: float, s: TangentSample):
    if not _inside_hat_fence(F, Phi):
        raise OutsideHatDomain(
            f"F - Phi = {F - Phi} at x={s.x.tolist()}, y={s.y.tolist()} "
            f"is not safely positive")


class HatEnergy:
    """Energy provider of the changed metric; plugs into the ordinary pipeline.

    Construction differentiates the base energy once in y (to form Phi), hence
    y_overhead = 1: a request for y-order k allocates base jets of order k+1.
    """

    y_overhead = 1

    def __init__(self, model, orientation: float = 1.0):
        self.model = model
        self.dim = model.dim
        self.orientation = float(orientation)
        self.base = ModelEnergy(model)

    def energy_jet(self, s: TangentSample, space) -> Jet:
        E = self.base.energy_jet(s, space)
        n = self.dim
        coords = space.lift(s.x, s.y)
        Phi = space.zero()
        for i, p in enumerate(self.model.phi_fns):
            Phi = Phi + p(coords[:n], None) * E.diff_y(i)
        Phi = self.orientation * Phi
        F = (2.0 * E).sqrt()
        _require_hat_domain(F.value, Phi.value, s)
        Fhat = (2.0 * E) / (F - Phi)
        return 0.5 * Fhat * Fhat

    def f_value(self, x, y) -> float:
        s = make_sample(self.model, x, y)
        sc = _scalar_values(self.model, s, self.orientation)
        _require_hat_domain(sc["F"], sc["Phi"], s)
        return sc["F"] ** 2 / (sc["F"] - sc["Phi"])

    def in_domain(self, x, y) -> bool:
        if not self.model.in_domain(x, y):
            return False
        sc = _scalar_values(self.model, make_sample(self.model, x, y), self.orientation)
        return _inside_hat_fence(sc["F"], sc["Phi"])


def _scalar_values(model, s: TangentSample, orientation: float) -> dict:
    """Value-level F, Phi, p^2, margin without raising on degeneracy (scan use)."""
    md = metric_data(model, s)
    phi_up = orientation * phi_values(model, s.x)
    phi_low = md.g @ phi_up
    Phi = float(phi_low @ s.y)
    p2 = float(phi_low @ phi_up)
    margin = md.F * (1.0 + 2.0 * p2) - 3.0 * Phi
    return {"md": md, "phi_up": phi_up, "phi_low": phi_low, "F": md.F,
            "Phi": Phi, "p2": p2, "margin": margin}


@dataclass
class ChangeScalars:
    """Scalar data of the change at one sample."""

    F: float
    Phi: float
    phi_up: np.ndarray   # oriented phi^i
    phi_low: np.ndarray  # phi_i = g_ij phi^j
    p2: float
    margin: float        # F(1 + 2 p^2) - 3 Phi
    f1: float
    f2: float
    Fhat: float
    orientation: float


def _checked_scalars(sc: dict, s: TangentSample, orientation: float) -> ChangeScalars:
    """ChangeScalars from `_scalar_values` output; raises OutsideHatDomain past
    the hat fence and DegenerateMargin when |margin| <= MARGIN_EPS * F (f1, f2
    carry the margin in denominators)."""
    F, Phi, p2, margin = sc["F"], sc["Phi"], sc["p2"], sc["margin"]
    _require_hat_domain(F, Phi, s)
    if abs(margin) <= MARGIN_EPS * F:
        raise DegenerateMargin(f"|margin| = {abs(margin)} <= {MARGIN_EPS} * F")
    return ChangeScalars(
        F=F, Phi=Phi, phi_up=sc["phi_up"], phi_low=sc["phi_low"], p2=p2,
        margin=margin, f1=F * (4.0 * Phi - F) / margin, f2=2.0 * F**3 / margin,
        Fhat=F * F / (F - Phi), orientation=float(orientation),
    )


def change_scalars(model, s: TangentSample, orientation: float = 1.0) -> ChangeScalars:
    """Phi, p^2, the non-degeneracy margin and the spray-change scalars f1, f2."""
    return _checked_scalars(_scalar_values(model, s, orientation), s, orientation)


# --------------------------------------------------------------------------
# predicted transformation laws (value level)
# --------------------------------------------------------------------------

def predicted_supporting_form(sc: ChangeScalars, md) -> np.ndarray:
    F, P = sc.F, sc.Phi
    return F * (F - 2 * P) / (F - P) ** 2 * md.ell + F**2 / (F - P) ** 2 * sc.phi_low


def predicted_metric(sc: ChangeScalars, md) -> np.ndarray:
    F, P = sc.F, sc.Phi
    a = F**2 * (F - 2 * P) / (F - P) ** 3
    b = 3 * F**4 / (F - P) ** 4
    c = F**2 * P * (4 * P - F) / (F - P) ** 4
    d = F**3 * (F - 4 * P) / (F - P) ** 4
    pl, el = sc.phi_low, md.ell
    return (a * md.g + b * np.outer(pl, pl) + c * np.outer(el, el)
            + d * (np.outer(pl, el) + np.outer(el, pl)))


def predicted_angular(sc: ChangeScalars, md) -> np.ndarray:
    F, P = sc.F, sc.Phi
    a = F**2 * (F - 2 * P) / (F - P) ** 3
    b = 2 * F**4 / (F - P) ** 4
    c = 2 * P**2 * F**2 / (F - P) ** 4
    d = -2 * P * F**3 / (F - P) ** 4
    pl, el = sc.phi_low, md.ell
    return (a * md.hbar + b * np.outer(pl, pl) + c * np.outer(el, el)
            + d * (np.outer(pl, el) + np.outer(el, pl)))


def predicted_spray(sc: ChangeScalars, sprayG: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ghat^i = G^i + (1/2) f1 y^i - (1/2) f2 phi^i (oriented phi)."""
    return sprayG + 0.5 * sc.f1 * y - 0.5 * sc.f2 * sc.phi_up


# --------------------------------------------------------------------------
# jet bundle of the change at one sample
# --------------------------------------------------------------------------

def _as_jet(space, v):
    return v if isinstance(v, Jet) else space.constant(v)


class ChangeJets:
    """Jets of the change scalars and predicted fields, sharing one base geometry."""

    def __init__(self, geo: GeometryJets, orientation: float):
        self.geo = geo
        self.orientation = float(orientation)
        self.n = geo.n
        self.space = geo.space

    @cached_property
    def phi_up_jets(self):
        n = self.n
        xs = self.geo.coords[:n]
        return [
            self.orientation * _as_jet(self.space, p(xs, None))
            for p in self.geo.energy.model.phi_fns
        ]

    @cached_property
    def phi_low_jets(self):
        g = self.geo.g_jets
        return [
            sum((g[i][j] * self.phi_up_jets[j] for j in range(1, self.n)),
                g[i][0] * self.phi_up_jets[0])
            for i in range(self.n)
        ]

    @cached_property
    def Phi_jet(self):
        E = self.geo.E
        acc = self.space.zero()
        for i in range(self.n):
            acc = acc + self.phi_up_jets[i] * E.diff_y(i)
        return acc

    @cached_property
    def F_jet(self):
        return (2.0 * self.geo.E).sqrt()

    @cached_property
    def ell_jets(self):
        return [self.F_jet.diff_y(i) for i in range(self.n)]

    @cached_property
    def p2_jet(self):
        acc = self.space.zero()
        for i in range(self.n):
            acc = acc + self.phi_low_jets[i] * self.phi_up_jets[i]
        return acc

    @cached_property
    def margin_jet(self):
        return self.F_jet * (1.0 + 2.0 * self.p2_jet) - 3.0 * self.Phi_jet

    @cached_property
    def f1_jet(self):
        return self.F_jet * (4.0 * self.Phi_jet - self.F_jet) / self.margin_jet

    @cached_property
    def f2_jet(self):
        return 2.0 * self.F_jet**3 / self.margin_jet

    @cached_property
    def ghat_pred_jets(self):
        F, P = self.F_jet, self.Phi_jet
        FmP = F - P
        inv3 = 1.0 / (FmP * FmP * FmP)
        inv4 = inv3 / FmP
        a = F * F * (F - 2.0 * P) * inv3
        b = 3.0 * F**4 * inv4
        c = F * F * P * (4.0 * P - F) * inv4
        d = F**3 * (F - 4.0 * P) * inv4
        g = self.geo.g_jets
        pl, el = self.phi_low_jets, self.ell_jets
        n = self.n
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = (
                    a * g[i][j] + b * pl[i] * pl[j] + c * el[i] * el[j]
                    + d * (pl[i] * el[j] + pl[j] * el[i])
                )
        return out

    @cached_property
    def spray_pred_jets(self):
        yc = self.geo.coords[self.n:]
        return [
            self.geo.spray_jets[i] + 0.5 * self.f1_jet * yc[i]
            - 0.5 * self.f2_jet * self.phi_up_jets[i]
            for i in range(self.n)
        ]

    @cached_property
    def nhat_pred_jets(self):
        """Predicted nonlinear connection as a jet field,
        Nhat^i_j = N^i_j + (1/2)(f1 delta^i_j + (df1/dy^j) y^i - (df2/dy^j) phi^i)."""
        n = self.n
        yc = self.geo.coords[n:]
        df1 = [self.f1_jet.diff_y(j) for j in range(n)]
        df2 = [self.f2_jet.diff_y(j) for j in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                term = 0.5 * (df1[j] * yc[i] - df2[j] * self.phi_up_jets[i])
                if i == j:
                    term = term + 0.5 * self.f1_jet
                out[i][j] = self.geo.nonlinear_jets[i][j] + term
        return out


# --------------------------------------------------------------------------
# predicted laws that need jets
# --------------------------------------------------------------------------

def predicted_cartan(cj: ChangeJets) -> np.ndarray:
    """That_ijk = (1/2) d(ghat_pred_ij)/dy^k with the coefficient scalars
    differentiated exactly (as jets) rather than expanded by hand; needs base
    jets of order (3, 0)."""
    n = cj.n
    gh = cj.ghat_pred_jets
    T = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                T[i, j, k] = T[j, i, k] = 0.5 * gh[i][j].diff_y(k).value
    return T


def predicted_nonlinear_connection(cj: ChangeJets) -> np.ndarray:
    """Nhat^i_j from the closed-form law; needs base jets of order (3, 1)."""
    return np.array([[Nij.value for Nij in row] for row in cj.nhat_pred_jets])


def predicted_berwald(cj: ChangeJets) -> np.ndarray:
    """Berwald coefficients of the predicted nonlinear connection; needs base
    jets of order (4, 1).  Its curvature is curvature_from_njets of the same
    jets, at order (4, 2)."""
    return berwald_from_njets(cj.nhat_pred_jets)


def concurrency_obstruction(model, s: TangentSample,
                            orientation: float = 1.0) -> np.ndarray:
    """Obstruction to phi staying concurrent for Fhat:
    O^i_j = [df1/dy^j - phi^k d2f2/dy^k dy^j] phi^i
            - (phi^k df1/dy^k) delta^i_j + (phi^k d2f1/dy^k dy^j) y^i.
    Generically nonzero; identically zero iff the change preserves concurrency."""
    geo = GeometryJets(model, s, 4, 0)
    cj = ChangeJets(geo, orientation)
    n = model.dim
    ph = np.array([p.value for p in cj.phi_up_jets])
    df1 = np.array([cj.f1_jet.diff_y(j).value for j in range(n)])
    d2f1 = np.empty((n, n))
    d2f2 = np.empty((n, n))
    for k in range(n):
        d1k = cj.f1_jet.diff_y(k)
        d2k = cj.f2_jet.diff_y(k)
        for j in range(n):
            d2f1[k, j] = d1k.diff_y(j).value
            d2f2[k, j] = d2k.diff_y(j).value
    O = np.empty((n, n))
    a = df1 - ph @ d2f2          # a_j
    b = float(ph @ df1)
    c = ph @ d2f1                # c_j
    for i in range(n):
        for j in range(n):
            O[i, j] = a[j] * ph[i] - (b if i == j else 0.0) + c[j] * s.y[i]
    return O


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


class ChangeContext:
    """Per-sample inputs of the identity suites.  Each check builds the jets
    of the orders it needs; only the value-level data is shared."""

    def __init__(self, model, s: TangentSample, orientation: float):
        self.model = model
        self.s = s
        self.orientation = float(orientation)
        self.hat_energy = HatEnergy(model, orientation)

    def hat(self, y: int, x: int) -> GeometryJets:
        return GeometryJets(self.hat_energy, self.s, y, x)

    def change_jets(self, y: int, x: int) -> ChangeJets:
        return ChangeJets(GeometryJets(self.model, self.s, y, x), self.orientation)

    @cached_property
    def values(self) -> dict:
        return _scalar_values(self.model, self.s, self.orientation)

    @property
    def md(self):
        return self.values["md"]

    @cached_property
    def md_hat(self):
        return metric_data(self.hat_energy, self.s)

    @cached_property
    def scalars(self) -> ChangeScalars:
        return _checked_scalars(self.values, self.s, self.orientation)


def _check_vertical(ctx: ChangeContext):
    sc = ctx.scalars
    md = ctx.md
    mdh = ctx.md_hat
    y = ctx.s.y
    cj3 = ctx.change_jets(3, 0)
    ellhat = predicted_supporting_form(sc, md)
    ghat = predicted_metric(sc, md)
    hhat = predicted_angular(sc, md)
    return {
        "concurrent-form-two-routes": ([cj3.Phi_jet.value], [sc.Phi]),
        "supporting-form-pairing-of-phi": ([float(md.ell @ sc.phi_up)], [sc.Phi / sc.F]),
        "supporting-form-change": (ellhat, mdh.ell),
        "supporting-form-normalization": ([float(ellhat @ y)], [sc.Fhat]),
        "metric-change": (ghat, mdh.g),
        "metric-normalization": ([float(y @ ghat @ y)], [sc.Fhat**2]),
        "angular-metric-change": (hhat, mdh.hbar),
        "angular-consistency": (hhat, ghat - np.outer(ellhat, ellhat)),
        "angular-annihilates-direction-hat": (hhat @ y, np.zeros(len(y))),
        "cartan-torsion-change": (predicted_cartan(cj3), mdh.cartanC),
    }


def _check_horizontal(ctx: ChangeContext, with_curvature: bool):
    sc = ctx.scalars
    y = ctx.s.y
    n = ctx.model.dim
    cfg = (4, 2) if with_curvature else (4, 1)
    cj = ctx.change_jets(*cfg)
    geo_hat = ctx.hat(*cfg)

    spray_pred = predicted_spray(sc, cj.geo.spray(), y)
    spray_dir = geo_hat.spray()

    nhat_formula = predicted_nonlinear_connection(cj)
    nhat_from_spray = np.array(
        [[cj.spray_pred_jets[i].diff_y(j).value for j in range(n)] for i in range(n)])

    out = {
        "spray-change": (spray_pred, spray_dir),
        "nonlinear-connection-change": (nhat_formula, geo_hat.nonlinear()),
        "nonlinear-connection-internal": (nhat_formula, nhat_from_spray),
        "berwald-change": (predicted_berwald(cj), geo_hat.berwald()),
    }
    if with_curvature:
        out["curvature-change"] = (
            curvature_from_njets(cj.nhat_pred_jets), geo_hat.curvature())
    return out


def _check_lemma(ctx: ChangeContext):
    sc = ctx.scalars
    md = ctx.md
    y = ctx.s.y
    n = ctx.model.dim
    cj = ctx.change_jets(3, 1)
    geo = cj.geo
    N = geo.nonlinear()
    G = geo.spray()
    F = sc.F
    m = sc.margin
    Phi, p2 = sc.Phi, sc.p2

    dyPhi = np.array([cj.Phi_jet.diff_y(j).value for j in range(n)])
    dxPhi = np.array([cj.Phi_jet.diff_x(j).value for j in range(n)])
    deltaPhi = dxPhi - N.T @ dyPhi
    dPhi_G = float(y @ dxPhi - 2.0 * G @ dyPhi)

    dxF = np.array([cj.F_jet.diff_x(j).value for j in range(n)])
    dyF = np.array([cj.F_jet.diff_y(j).value for j in range(n)])
    deltaF = dxF - N.T @ dyF

    dell = np.empty((n, n))
    for i in range(n):
        di = cj.F_jet.diff_y(i)
        for j in range(n):
            dell[i, j] = di.diff_y(j).value

    dp2 = np.array([cj.p2_jet.diff_y(k).value for k in range(n)])

    df1 = np.array([cj.f1_jet.diff_y(j).value for j in range(n)])
    df2 = np.array([cj.f2_jet.diff_y(j).value for j in range(n)])
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


def _run_suite(model, s_batch, orientation, check_fn, tolerances):
    accs = {}
    skipped = 0
    for s in s_batch:
        try:
            ctx = ChangeContext(model, s, orientation)
            pairs = check_fn(ctx)
        except (OutsideHatDomain, DegenerateMargin):
            skipped += 1
            continue
        for name, (pred, direct) in pairs.items():
            if name not in accs:
                accs[name] = PairAccumulator(name, tolerances[name])
            accs[name].add(s, pred, direct)
    note = f"{skipped} samples skipped (outside hat domain or degenerate margin)" \
        if skipped else ""
    return [accs[k].result(note) for k in sorted(accs)]


def lemma_identity_suite(model, s_batch, orientation: float = 1.0):
    """Residuals of the concurrent-field derivative identities over a batch."""
    return _run_suite(model, s_batch, orientation, _check_lemma, LEMMA_TOLERANCES)


def change_identity_suite(model, s_batch, orientation: float = 1.0,
                          with_curvature: bool = True):
    """Predicted-vs-direct residuals for every transformation law over a batch."""

    def fn(ctx):
        pairs = _check_vertical(ctx)
        pairs.update(_check_horizontal(ctx, with_curvature))
        return pairs

    results = _run_suite(model, s_batch, orientation, fn, CHANGE_TOLERANCES)
    results.append(IdentityResult(
        name="vertical-berwald-invariance", kind="structural", residual=0.0,
        n_samples=len(s_batch),
        note="both routes differentiate with the same vertical operator "
             "(Jet.diff_y); the invariance holds by construction",
    ))
    return results


def select_orientation(model, probe_batches: dict):
    """Pick the orientation whose total suite residual is smaller.

    `probe_batches` maps +1.0/-1.0 to sample batches drawn under that
    orientation's hat-domain predicate.  Returns (orientation, totals).
    """
    totals = {}
    for orient, batch in probe_batches.items():
        results = change_identity_suite(model, batch, orient, with_curvature=False)
        results += lemma_identity_suite(model, batch, orient)
        totals[orient] = float(sum(
            min(r.residual, 1.0) for r in results if r.residual is not None))
    best = min(sorted(totals), key=lambda o: totals[o])
    return best, totals


def _clear_of_hat_boundary(sc: dict) -> bool:
    return sc["F"] - sc["Phi"] > HAT_GAP_FRACTION * sc["F"]


def hat_sample_predicate(model, orientation: float):
    """Sample filter for hat-side statistics: inside the hat domain with a
    relative gap to its boundary, and a healthy |margin|."""

    def ok(s: TangentSample) -> bool:
        sc = _scalar_values(model, s, orientation)
        return _clear_of_hat_boundary(sc) and abs(sc["margin"]) > HEALTHY_MARGIN * sc["F"]

    return ok


# --------------------------------------------------------------------------
# theorem-level checks
# --------------------------------------------------------------------------

@dataclass
class NondegeneracyScan:
    """Margin-vs-determinant census: the changed metric must degenerate exactly
    on the margin-zero set."""

    n_samples: int
    falsifying: list        # healthy margin but vanishing det (would refute)
    suspicious: list        # near-zero margin but healthy det
    min_abs_margin: float
    min_abs_det: float

    @property
    def ok(self) -> bool:
        return not self.falsifying and not self.suspicious


def nondegeneracy_scan(model, s_batch, orientation: float = 1.0) -> NondegeneracyScan:
    falsifying = []
    suspicious = []
    min_m = math.inf
    min_d = math.inf
    n = model.dim
    hat = HatEnergy(model, orientation)
    count = 0
    for s in s_batch:
        sc = _scalar_values(model, s, orientation)
        if not _clear_of_hat_boundary(sc):
            continue
        count += 1
        ghat = GeometryJets(hat, s, 2, 0).metric()
        det = float(np.linalg.det(ghat))
        scale = math.prod(max(abs(ghat[i, i]), 1e-300) for i in range(n)) ** (1.0 / n)
        rec = {"x": s.x.tolist(), "y": s.y.tolist(),
               "margin": sc["margin"], "det": det}
        min_m = min(min_m, abs(sc["margin"]))
        min_d = min(min_d, abs(det))
        if abs(sc["margin"]) > HEALTHY_MARGIN * sc["F"] and abs(det) < 1e-10 * scale**n:
            falsifying.append(rec)
        if abs(sc["margin"]) < 1e-6 * sc["F"] and abs(det) > 1e-6 * scale**n:
            suspicious.append(rec)
    return NondegeneracyScan(n_samples=count, falsifying=falsifying,
                             suspicious=suspicious,
                             min_abs_margin=min_m, min_abs_det=min_d)


def margin_ray_scan(model, x, orientation: float = 1.0, det_targets=(1e-6, 0.5)):
    """Sweep unit directions y(theta) at a fixed base point (dim 2 only),
    root-find a margin zero, and sample |det ghat| at prescribed |margin| levels.

    Returns None when the margin does not change sign along the circle.
    """
    if model.dim != 2:
        raise ValueError("the ray scan is implemented for dim-2 models")
    x = np.asarray(x, dtype=float)

    hat = HatEnergy(model, orientation)

    def sample(theta):
        return make_sample(model, x, np.array([math.cos(theta), math.sin(theta)]))

    def margin_at(theta):
        return _scalar_values(model, sample(theta), orientation)["margin"]

    def det_at(theta):
        return float(np.linalg.det(GeometryJets(hat, sample(theta), 2, 0).metric()))

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
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    theta_star = bracket[0] if bracket[0] == bracket[1] else \
        bisect(margin_at, bracket[0], bracket[1])

    levels = {}
    for target in det_targets:
        # walk from theta_star toward growing |margin| until it crosses `target`
        lo, hi = theta_star, theta_star
        span = 1e-4
        while abs(margin_at(theta_star + span)) < target and span < math.pi:
            span *= 2.0
        th = bisect(lambda t: abs(margin_at(t)) - target,
                    theta_star, theta_star + span)
        levels[target] = {"theta": th, "margin": margin_at(th), "det": det_at(th)}

    return {"theta_star": theta_star, "margin_at_star": margin_at(theta_star),
            "det_at_star": det_at(theta_star), "levels": levels}


@dataclass
class ProjectiveReport:
    """Pointwise witness that the change is never a pure reparametrization:
    the non-radial part of the spray difference stays g-orthogonal to y."""

    n_checked: int
    n_parallel: int
    n_degenerate: int
    min_ratio: float
    threshold: float = 1e-8

    @property
    def ok(self) -> bool:
        return self.n_checked == 0 or self.min_ratio > self.threshold


def projective_check(model, s_batch, orientation: float = 1.0) -> ProjectiveReport:
    checked = 0
    parallel = 0
    degenerate = 0
    min_ratio = math.inf
    for s in s_batch:
        values = _scalar_values(model, s, orientation)
        md = values["md"]
        try:
            sc = _checked_scalars(values, s, orientation)
        except (OutsideHatDomain, DegenerateMargin):
            degenerate += 1
            continue
        v = 0.5 * sc.f2 * sc.phi_up
        nv = math.sqrt(abs(float(v @ md.g @ v)))
        if nv < 1e-14:
            degenerate += 1
            continue
        # g-orthogonal component of v relative to y
        w = v - (float(v @ md.g @ s.y) / float(s.y @ md.g @ s.y)) * s.y
        nw = math.sqrt(abs(float(w @ md.g @ w)))
        if nw / nv < 1e-10:
            parallel += 1  # phi parallel to y at this point: not a violation
            continue
        checked += 1
        min_ratio = min(min_ratio, nw / nv)
    return ProjectiveReport(n_checked=checked, n_parallel=parallel,
                            n_degenerate=degenerate,
                            min_ratio=min_ratio if checked else math.inf)


def rational_decomposition_check(model, s_batch, orientation: float = 1.0):
    """Residuals of the factored forms theta*a = g and theta_hat*a_hat = ghat.

    The base factorization requires shipped closed forms for the model; the
    hat factorization uses theta_hat = F^2/(F - Phi)^4 with a_hat rebuilt from
    (g, ell, phi, F, Phi), and is checked against the directly recomputed ghat.
    """
    from . import models as _models

    base_forms = _models.decomposition_forms(model)
    if base_forms is None:
        return [IdentityResult(
            name="rational-decomposition-base", kind="skipped",
            note=f"no factored closed forms shipped for model {model.name!r}"),
            IdentityResult(
            name="rational-decomposition-hat", kind="skipped",
            note=f"no factored closed forms shipped for model {model.name!r}")]

    acc_base = PairAccumulator("rational-decomposition-base", 1e-9)
    acc_hat = PairAccumulator("rational-decomposition-hat", 1e-9)
    skipped = 0
    for s in s_batch:
        values = _scalar_values(model, s, orientation)
        md = values["md"]
        theta, a = base_forms(s.x, s.y)
        acc_base.add(s, theta * a, md.g)
        try:
            sc = _checked_scalars(values, s, orientation)
            mdh = metric_data(HatEnergy(model, orientation), s)
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
        acc_hat.add(s, theta_hat * a_hat, mdh.g)
    note = f"{skipped} samples outside hat domain skipped" if skipped else ""
    return [acc_base.result(), acc_hat.result(note)]
