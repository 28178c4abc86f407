"""Suite assembly: everything `finslerlab verify` runs, as importable functions.

Sampling is reproducible by construction: every suite draws from its own
Philox stream keyed by SeedSequence([seed, stream-id]), so equal (model,
seed, config) runs produce byte-identical report bodies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import connections, matsumoto, models
from .core import (ModelEnergy, homogeneity_report, make_sample, metric_data,
                   sample_batch)
from .errors import DomainEscape
from .matsumoto import HatEnergy
from .numkit import fd_derivative, jet_space, _simplex
from .report import IdentityResult, PairAccumulator, SuiteReport

__all__ = ["RunConfig", "run_verification", "run_core_suite", "inspect_point"]

# Philox stream ids, one per sampling purpose
_STREAM_CORE = 0
_STREAM_PROBE_PLUS = 1
_STREAM_PROBE_MINUS = 2
_STREAM_CHANGE = 3
_STREAM_CHANGE_OTHER = 4
_STREAM_SCAN = 5
_STREAM_DECOMP = 6
_STREAM_GEODESIC = 7

CORE_TOLERANCES = {
    "metric-symmetry-and-inverse": 1e-9,
    "supporting-form-two-routes": 1e-10,
    "supporting-form-normalization-base": 1e-10,
    "angular-metric-annihilates-direction": 1e-9,
    "cartan-torsion-symmetry": 1e-10,
    "cartan-torsion-radial-contraction": 1e-10,
    "metric-homogeneity": 1e-9,
    "spray-defining-system": 1e-9,
    "spray-homogeneity-tower": 1e-9,
    "berwald-symmetry": 1e-10,
    "curvature-antisymmetry": 1e-10,
    "cartan-metric-compatibility": 1e-8,
    "concurrency-probe": 1e-8,
    "concurrency-vertical-contraction": 1e-10,
    "jet-vs-fd-oracle": 1e-5,
    "geodesic-first-integral-base": 1e-6,
    "geodesic-first-integral-hat": 1e-6,
}

# core-batch samples that also get the FD oracle / the homogeneity check
FD_SAMPLES = 20
HOMOGENEITY_SAMPLES = 10
# RK4 step and duration of the geodesic first-integral check
GEODESIC_STEP = 1e-3
GEODESIC_TIME = 1.0
# Ridders refinement: initial step scale, tableau size, step contraction
RIDDERS_START_SCALE = 8.0
RIDDERS_LEVELS = 8
RIDDERS_CON = 1.4


@dataclass
class RunConfig:
    """Settings of one verification / inspection run."""

    samples: int = 100
    seed: int = 42
    box: np.ndarray | None = None
    orientation: str = "auto"        # "auto" | "+1" | "-1"
    tolerance_overrides: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _box(model, cfg: RunConfig) -> np.ndarray:
    return models.default_box(model) if cfg.box is None else np.asarray(cfg.box, float)


# --------------------------------------------------------------------------
# core invariants
# --------------------------------------------------------------------------

def run_core_suite(model, s_batch):
    """Structural invariants of the metric/connection layer over a batch."""
    n = model.dim
    eye = np.eye(n)
    accs = {name: PairAccumulator(name, tol) for name, tol in CORE_TOLERANCES.items()
            if name not in ("jet-vs-fd-oracle", "geodesic-first-integral-base",
                            "geodesic-first-integral-hat",
                            "concurrency-probe", "concurrency-vertical-contraction")}
    min_det = math.inf
    for k, s in enumerate(s_batch):
        md = metric_data(model, s)
        geo = connections.GeometryJets(model, s, 4, 2)
        min_det = min(min_det, md.det_g)

        accs["metric-symmetry-and-inverse"].add(s, md.g @ md.ginv, eye)
        accs["supporting-form-two-routes"].add(s, md.ell, md.g @ s.y / md.F)
        accs["supporting-form-normalization-base"].add(
            s, [float(md.ell @ s.y)], [md.F])
        hscale = max(1.0, float(np.max(np.abs(md.hbar))) * float(np.max(np.abs(s.y))))
        accs["angular-metric-annihilates-direction"].add(
            s, md.hbar @ s.y / hscale, np.zeros(n))
        C = md.cartanC
        cs = max(1.0, float(np.max(np.abs(C))))
        perms = [np.transpose(C, p) for p in
                 itertools.permutations((0, 1, 2))]
        accs["cartan-torsion-symmetry"].add(
            s, np.stack([p / cs for p in perms]), np.stack([C / cs] * 6))
        accs["cartan-torsion-radial-contraction"].add(
            s, np.einsum("ijk,i->jk", C, s.y) / cs, np.zeros((n, n)))

        if k < HOMOGENEITY_SAMPLES:
            rep = homogeneity_report(model, s)
            accs["metric-homogeneity"].add(
                s, [rep.F_residual, rep.g_residual, rep.C_residual], [0.0, 0.0, 0.0])

        G = geo.spray()
        N = geo.nonlinear()
        Bw = geo.berwald()
        R = geo.curvature()
        accs["spray-defining-system"].add(
            s, md.g @ (2.0 * G), connections.spray_system(geo.E, s.y))
        accs["spray-homogeneity-tower"].add(
            s, np.concatenate([N @ s.y, np.einsum("ijk,k->ij", Bw, s.y).ravel()]),
            np.concatenate([2.0 * G, N.ravel()]))
        bscale = max(1.0, float(np.max(np.abs(Bw))))
        accs["berwald-symmetry"].add(
            s, np.transpose(Bw, (0, 2, 1)) / bscale, Bw / bscale)
        rscale = max(1.0, float(np.max(np.abs(R))))
        accs["curvature-antisymmetry"].add(
            s, np.transpose(R, (0, 2, 1)) / rscale, -R / rscale)

        gamma = geo.cartan()
        dg = geo.delta_metric()
        compat = dg - np.einsum("lik,lj->kij", gamma, md.g) \
            - np.einsum("ljk,il->kij", gamma, md.g)
        gscale = max(1.0, float(np.max(np.abs(dg))))
        accs["cartan-metric-compatibility"].add(
            s, compat / gscale, np.zeros_like(compat))

    results = [accs[k].result() for k in sorted(accs)]

    probe = connections.concurrency_probe(model, s_batch)
    results.append(IdentityResult(
        name="concurrency-probe", kind="identity", residual=probe.residual,
        tolerance=CORE_TOLERANCES["concurrency-probe"], n_samples=probe.n_samples,
        predicted_worst=[float(v) for v in probe.hcov_phi.ravel()],
        direct_worst=[float(v) for v in (probe.sigma * eye).ravel()],
        note=f"fitted sigma = {probe.sigma!r}"))
    results.append(IdentityResult(
        name="concurrency-vertical-contraction", kind="identity",
        residual=probe.vcov_max,
        tolerance=CORE_TOLERANCES["concurrency-vertical-contraction"],
        n_samples=probe.n_samples,
        note="max |phi^k C_kij| over the batch"))
    return results, {"min_det_g": min_det, "probe_sigma": probe.sigma}


# --------------------------------------------------------------------------
# jets vs the finite-difference oracle
# --------------------------------------------------------------------------

def _ridders_fd(fn, x, y, m, in_domain):
    """Central difference with Ridders-style step refinement.

    Evaluates the stencil at geometrically contracting steps, extrapolates the
    even error series in a Neville tableau and returns the entry whose internal
    error estimate is smallest.  This rides out both regimes a fixed step
    cannot cover at once: indices with steep truncation (the y^-k metric
    terms) and structurally-zero derivatives of a large function, where only a
    wide step beats roundoff.
    """
    con2 = RIDDERS_CON * RIDDERS_CON
    tableau = [[None] * RIDDERS_LEVELS for _ in range(RIDDERS_LEVELS)]
    best = None
    err = math.inf
    for i in range(RIDDERS_LEVELS):
        scale = RIDDERS_START_SCALE / RIDDERS_CON**i
        tableau[0][i] = fd_derivative(fn, x, y, m, in_domain=in_domain,
                                      step_scale=scale)
        if i == 0:
            best = tableau[0][0]
            continue
        fac = con2
        for j in range(1, i + 1):
            tableau[j][i] = (tableau[j - 1][i] * fac - tableau[j - 1][i - 1]) \
                / (fac - 1.0)
            fac *= con2
            errt = max(abs(tableau[j][i] - tableau[j - 1][i]),
                       abs(tableau[j][i] - tableau[j - 1][i - 1]))
            if errt <= err:
                err = errt
                best = tableau[j][i]
        if abs(tableau[i][i] - tableau[i - 1][i - 1]) >= 2.0 * err:
            break
    return best


def run_fd_suite(model, s_batch):
    """Cross-check every jet partial of total order <= 3 of F^2 and F against
    central differences."""
    n = model.dim
    energy = ModelEnergy(model)
    multi = [m for m in _simplex(2 * n, 3) if sum(m) >= 1]
    acc = PairAccumulator("jet-vs-fd-oracle", CORE_TOLERANCES["jet-vs-fd-oracle"])
    skipped = 0

    def f2(x, y):
        return 2.0 * energy.energy_value(x, y)

    def fval(x, y):
        return energy.f_value(x, y)

    for s in s_batch:
        sp = jet_space(n, 3, 3)
        E = energy.energy_jet(s, sp)
        F2j = 2.0 * E
        Fj = F2j.sqrt()
        for fn, jet in ((f2, F2j), (fval, Fj)):
            jets = []
            fds = []
            for m in multi:
                jv = jet.partial(m)
                try:
                    fv = _ridders_fd(fn, s.x, s.y, m, model.in_domain)
                except DomainEscape:
                    skipped += 1
                    continue
                scale = max(1.0, abs(jv))
                jets.append(jv / scale)
                fds.append(fv / scale)
            acc.add(s, np.array(jets), np.array(fds))
    note = f"{skipped} stencil evaluations skipped at the domain boundary" if skipped else ""
    return [acc.result(note)]


# --------------------------------------------------------------------------
# geodesic conservation
# --------------------------------------------------------------------------

def run_geodesic_suite(model, cfg: RunConfig, orientation: float):
    """First-integral drift of base and changed geodesic flows."""
    rng = _rng(cfg.seed, _STREAM_GEODESIC)
    box = _box(model, cfg)
    out = []
    for name, energy, predicate in (
        ("geodesic-first-integral-base", model, None),
        ("geodesic-first-integral-hat", HatEnergy(model, orientation),
         matsumoto.hat_sample_predicate(model, orientation)),
    ):
        batch, _ = sample_batch(model, box, 8, rng, predicate=predicate)
        best = None
        for s in batch:
            traj = connections.integrate_geodesic(energy, s, GEODESIC_TIME, GEODESIC_STEP)
            elapsed = float(traj.t[-1]) if traj.t.shape[0] > 1 else 0.0
            if elapsed < 20 * GEODESIC_STEP:
                continue  # left the domain almost immediately; try another start
            rate = traj.metric_drift() / elapsed
            best = (s, rate, elapsed, traj.escaped)
            break
        if best is None:
            out.append(IdentityResult(
                name=name, kind="skipped",
                note="no sampled start stayed in the domain long enough"))
            continue
        s, rate, elapsed, escaped = best
        out.append(IdentityResult(
            name=name, kind="identity", residual=rate,
            tolerance=CORE_TOLERANCES[name], n_samples=1,
            worst_sample={"x": s.x.tolist(), "y": s.y.tolist(), "residual": rate},
            note=f"drift per unit time over t={elapsed!r}"
                 + (" (left domain, partial run)" if escaped else "")))
    return out


# --------------------------------------------------------------------------
# full verification
# --------------------------------------------------------------------------

def _sample_for_orientation(model, cfg, orientation, stream, count):
    rng = _rng(cfg.seed, stream)
    pred = matsumoto.hat_sample_predicate(model, orientation)
    return sample_batch(model, _box(model, cfg), count, rng, predicate=pred)


def run_verification(model, cfg: RunConfig) -> SuiteReport:
    """Run every suite and assemble the one-model verification report; raises
    ValueError when a tolerance override names no identity of the report."""
    extras = {}

    # orientation: fixed by config, or chosen to minimize the probe residual
    if cfg.orientation in ("+1", "-1"):
        orientation = 1.0 if cfg.orientation == "+1" else -1.0
        extras["orientation_mode"] = "fixed"
    else:
        probes = {}
        for o, stream in ((1.0, _STREAM_PROBE_PLUS), (-1.0, _STREAM_PROBE_MINUS)):
            probes[o], _ = _sample_for_orientation(
                model, cfg, o, stream, max(8, cfg.samples // 8))
        orientation, totals = matsumoto.select_orientation(model, probes)
        extras["orientation_mode"] = "auto"
        extras["orientation_probe_totals"] = {f"{o:+.0f}": t for o, t in totals.items()}

    results = []

    rng_core = _rng(cfg.seed, _STREAM_CORE)
    core_batch, rej = sample_batch(model, _box(model, cfg),
                                   min(cfg.samples, 50), rng_core)
    extras["core_batch_rejected"] = rej
    core_results, core_extras = run_core_suite(model, core_batch)
    results += core_results
    extras.update(core_extras)

    fd_batch = core_batch[:FD_SAMPLES]
    results += run_fd_suite(model, fd_batch)

    main_batch, rej_main = _sample_for_orientation(
        model, cfg, orientation, _STREAM_CHANGE, cfg.samples)
    extras["change_batch_rejected"] = rej_main
    results += matsumoto.change_identity_suite(model, main_batch, orientation)
    results += matsumoto.lemma_identity_suite(model, main_batch, orientation)

    # tabulate the opposite orientation on a smaller batch so a sign clash in
    # the source formulas is isolated per identity rather than guessed
    other = -orientation
    other_batch, _ = _sample_for_orientation(
        model, cfg, other, _STREAM_CHANGE_OTHER, max(8, cfg.samples // 4))
    other_results = matsumoto.change_identity_suite(model, other_batch, other,
                                                    with_curvature=False)
    other_results += matsumoto.lemma_identity_suite(model, other_batch, other)
    extras["other_orientation"] = f"{other:+.0f}"
    extras["other_orientation_residuals"] = {
        r.name: r.residual for r in other_results if r.residual is not None}

    scan_batch, _ = sample_batch(model, _box(model, cfg),
                                 min(cfg.samples, 50), _rng(cfg.seed, _STREAM_SCAN))
    scan = matsumoto.nondegeneracy_scan(model, scan_batch, orientation)
    results.append(IdentityResult(
        name="nondegeneracy-margin-scan", kind="identity",
        residual=float(len(scan.falsifying) + len(scan.suspicious)), tolerance=0.5,
        n_samples=scan.n_samples,
        note=f"{len(scan.falsifying)} healthy-margin/vanishing-det and "
             f"{len(scan.suspicious)} tiny-margin/healthy-det samples; "
             f"min |margin| = {scan.min_abs_margin!r}, min |det ghat| = {scan.min_abs_det!r}"))

    if model.dim == 2:
        ray, scanned = None, 0
        for xtry in ([0.8, 0.0], [0.7, 0.2], [-0.8, 0.1]):
            try:
                ray = matsumoto.margin_ray_scan(model, xtry, orientation)
            except DomainEscape:
                continue  # a ray direction at this base point is outside the domain
            scanned += 1
            if ray is not None:
                break
        if ray is None:
            results.append(IdentityResult(
                name="nondegeneracy-ray-profile", kind="skipped",
                note="margin does not change sign on the probed rays" if scanned
                else "every probed base point has rays outside the model domain"))
        else:
            lv = ray["levels"]
            ratio = abs(lv[1e-6]["det"]) / max(abs(lv[0.5]["det"]), 1e-300)
            results.append(IdentityResult(
                name="nondegeneracy-ray-profile", kind="identity",
                residual=ratio, tolerance=1e-3, n_samples=1,
                note=f"theta* = {ray['theta_star']!r}, det at |margin|=1e-6 / 0.5 = "
                     f"{lv[1e-6]['det']!r} / {lv[0.5]['det']!r}"))
    else:
        results.append(IdentityResult(
            name="nondegeneracy-ray-profile", kind="skipped",
            note="direction sweep is implemented for dim-2 models"))

    proj = matsumoto.projective_check(model, main_batch, orientation)
    results.append(IdentityResult(
        name="projective-impossibility", kind="identity",
        residual=proj.threshold / max(proj.min_ratio, 1e-300),
        tolerance=1.0, n_samples=proj.n_checked,
        note=f"min orthogonal-component ratio {proj.min_ratio!r}; "
             f"{proj.n_parallel} parallel and {proj.n_degenerate} degenerate samples skipped"))

    obs_max = 0.0
    for s in main_batch[: max(8, cfg.samples // 8)]:
        O = matsumoto.concurrency_obstruction(model, s, orientation)
        obs_max = max(obs_max, float(np.max(np.abs(O))))
    extras["obstruction_max_norm"] = obs_max
    results.append(IdentityResult(
        name="concurrency-obstruction", kind="reported", n_samples=len(main_batch),
        note=f"max |O| = {obs_max!r}; nonzero means the changed metric does not "
             f"keep phi concurrent (zero would be required for preservation)"))

    decomp_batch, _ = sample_batch(model, _box(model, cfg),
                                   min(cfg.samples, 30), _rng(cfg.seed, _STREAM_DECOMP))
    results += matsumoto.rational_decomposition_check(model, decomp_batch, orientation)

    results += run_geodesic_suite(model, cfg, orientation)

    names = [r.name for r in results]
    if len(names) != len(set(names)):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise RuntimeError(f"identity listed twice in the report: {dupes}")
    unknown = sorted(set(cfg.tolerance_overrides) - set(names))
    if unknown:
        raise ValueError(f"tolerance override for no identity in the report: "
                         f"{', '.join(unknown)}")
    for r in results:
        if r.name in cfg.tolerance_overrides and r.tolerance is not None:
            r.tolerance = float(cfg.tolerance_overrides[r.name])

    return SuiteReport(
        model=model.name,
        orientation=f"{orientation:+.0f}",
        seed=cfg.seed,
        n_samples=cfg.samples,
        identities=results,
        extras=extras,
    )


# --------------------------------------------------------------------------
# single-point inspection
# --------------------------------------------------------------------------

def inspect_point(model, x, y, orientation: float = 1.0) -> dict:
    """Full object dump at one tangent point (metric, connections, change scalars)."""
    s = make_sample(model, x, y)
    md = metric_data(model, s)
    geo = connections.GeometryJets(model, s, 4, 2)
    out = {
        "model": model.name,
        "x": [float(v) for v in s.x],
        "y": [float(v) for v in s.y],
        "F": md.F,
        "E": md.E,
        "det_g": md.det_g,
        "cond_g": md.cond_g,
        "g": md.g.tolist(),
        "ginv": md.ginv.tolist(),
        "ell": md.ell.tolist(),
        "hbar": md.hbar.tolist(),
        "cartan_torsion": md.cartanC.tolist(),
        "spray": geo.spray().tolist(),
        "nonlinear_connection": geo.nonlinear().tolist(),
        "berwald": geo.berwald().tolist(),
        "curvature": geo.curvature().tolist(),
        "cartan_hcoeffs": geo.cartan().tolist(),
    }
    try:
        sc = matsumoto.change_scalars(model, s, orientation)
        hat_md = metric_data(HatEnergy(model, orientation), s)
        out["change"] = {
            "orientation": orientation,
            "Phi": sc.Phi,
            "p2": sc.p2,
            "margin": sc.margin,
            "f1": sc.f1,
            "f2": sc.f2,
            "Fhat": sc.Fhat,
            "phi_up": sc.phi_up.tolist(),
            "phi_low": sc.phi_low.tolist(),
            "ghat": hat_md.g.tolist(),
            "det_ghat": hat_md.det_g,
            "spray_hat": connections.spray(HatEnergy(model, orientation), s).tolist(),
        }
    except Exception as e:  # noqa: BLE001 - inspection should degrade, not die
        out["change"] = {"error": f"{type(e).__name__}: {e}"}
    return out
