"""Suite assembly: everything `finslerlab verify` runs, as importable functions.

Sampling is reproducible by construction: every suite draws from its own
Philox stream keyed by SeedSequence([seed, stream-id]), so equal (model,
seed, config) runs produce byte-identical report bodies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import connections, matsumoto, models
from .core import ModelEnergy, homogeneity_report, make_sample, sample_batch
from .errors import EvalError
from .matsumoto import HatEnergy
from .numkit import fd_stencils
from .report import IdentityResult, PairAccumulator, SuiteReport

__all__ = ["RunConfig", "run_verification", "run_core_suite", "inspect_point"]

# Philox stream ids, one per sampling purpose
_STREAM_CORE = 0
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
    "cartan-torsion-radial-contraction": 1e-10,
    "metric-homogeneity": 1e-9,
    "spray-defining-system": 1e-9,
    "spray-homogeneity-tower": 1e-9,
    "cartan-metric-compatibility": 1e-8,
    "jet-vs-fd-oracle": 1e-5,
    "geodesic-first-integral-base": 1e-6,
    "geodesic-first-integral-hat": 1e-6,
}

# core-batch samples that also get the FD oracle / the homogeneity check
FD_SAMPLES = 20
HOMOGENEITY_SAMPLES = 10
# geodesic first-integral check: the local-error tolerance of its
# Dormand-Prince 5(4) steps, its first and shortest step (a plain RK4 step),
# and its duration
GEODESIC_TOL = 1e-9
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
                            "geodesic-first-integral-hat")}
    min_det = math.inf
    covariants = []
    for k, s in enumerate(s_batch):
        geo = connections.GeometryJets(model, s, 4, 1)
        md = geo.md
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
        accs["cartan-torsion-radial-contraction"].add(
            s, np.einsum("ijk,i->jk", C, s.y) / cs, np.zeros((n, n)))

        if k < HOMOGENEITY_SAMPLES:
            rep = homogeneity_report(model, s, md)
            accs["metric-homogeneity"].add(
                s, [rep.F_residual, rep.g_residual, rep.C_residual], [0.0, 0.0, 0.0])

        G = geo.spray
        N = geo.nonlinear
        Bw = geo.berwald
        accs["spray-defining-system"].add(
            s, md.g @ (2.0 * G), connections.spray_system(geo.E, s.y))
        accs["spray-homogeneity-tower"].add(
            s, np.concatenate([N @ s.y, np.einsum("ijk,k->ij", Bw, s.y).ravel()]),
            np.concatenate([2.0 * G, N.ravel()]))

        gamma = geo.cartan
        dg = geo.delta_metric
        compat = dg - np.einsum("lik,lj->kij", gamma, md.g) \
            - np.einsum("ljk,il->kij", gamma, md.g)
        gscale = max(1.0, float(np.max(np.abs(dg))))
        accs["cartan-metric-compatibility"].add(
            s, compat / gscale, np.zeros_like(compat))
        covariants.append(connections.phi_covariants(geo))

    probe, sigma = connections.concurrency_probe(model, covariants)
    return ([accs[k].result() for k in sorted(accs)] + probe,
            {"min_det_g": min_det, "probe_sigma": sigma})


# --------------------------------------------------------------------------
# jets vs the finite-difference oracle
# --------------------------------------------------------------------------

def _ridders(est):
    """Ridders-style step refinement of central differences, for every stencil
    at once: est[i, j] is stencil j's estimate at level i, on steps contracting
    by RIDDERS_CON per level.

    A Neville tableau extrapolates the even error series of each column and
    keeps the entry whose internal error estimate is smallest; a column stops
    at the first level whose diagonal moves by at least twice that error.
    This rides out both regimes a fixed step cannot cover at once: indices
    with steep truncation (the y^-k metric terms) and structurally-zero
    derivatives of a large function, where only a wide step beats roundoff.
    Returns each column's best entry and the last level it read; entries at
    later levels do not influence either.
    """
    con2 = RIDDERS_CON * RIDDERS_CON
    tableau = [[None] * RIDDERS_LEVELS for _ in range(RIDDERS_LEVELS)]
    best = est[0]
    err = np.full(est.shape[1], math.inf)
    last = np.full(est.shape[1], RIDDERS_LEVELS - 1)
    active = np.ones(est.shape[1], dtype=bool)
    for i in range(RIDDERS_LEVELS):
        tableau[0][i] = est[i]
        if i == 0:
            continue
        fac = con2
        for j in range(1, i + 1):
            tableau[j][i] = (tableau[j - 1][i] * fac - tableau[j - 1][i - 1]) \
                / (fac - 1.0)
            fac *= con2
            a = np.abs(tableau[j][i] - tableau[j - 1][i])
            b = np.abs(tableau[j][i] - tableau[j - 1][i - 1])
            errt = np.where(b > a, b, a)   # max(a, b), NaN handled as max does
            better = active & (errt <= err)
            err = np.where(better, errt, err)
            best = np.where(better, tableau[j][i], best)
        stop = active & (np.abs(tableau[i][i] - tableau[i - 1][i - 1]) >= 2.0 * err)
        last[stop] = i
        active &= ~stop
        if not active.any():
            break
    return best, last


def _stencil_values(model, pts):
    """F^2 at each stencil point (a row of `pts`, x then y), from one array
    call over the in-domain rows, and {row: reason} for the rows where a
    point-by-point evaluation would stop: None outside the domain (the screen
    is one array evaluation of the constraints), the EvalError where an
    in-domain point hits a guard.  Those rows read 0.0."""
    n = model.dim
    X, Y = pts.T[:n], pts.T[n:]
    inside = np.ones(len(pts), dtype=bool)
    try:
        for c in model.domain_fns:
            inside &= c(X, Y) > 0.0
    except EvalError:   # a constraint that raises is violated there: point by point
        inside = np.array([model.in_domain(p[:n], p[n:]) for p in pts])
    failed = dict.fromkeys(np.flatnonzero(~inside).tolist())
    values = np.zeros(len(pts))
    rows = np.flatnonzero(inside)
    try:
        values[rows] = model.F2_fn(X[:, rows], Y[:, rows])
    except EvalError:   # some in-domain point hits a guard: find which
        for r in rows.tolist():
            try:
                values[r] = model.F2_fn(pts[r, :n], pts[r, n:])
            except EvalError as e:
                failed[r] = e
    return values, failed


def run_fd_suite(model, s_batch):
    """Cross-check every jet partial of total order <= 3 of F^2 and F against
    central differences.

    Per sample, every stencil point of every multi-index at every Ridders
    level is evaluated in one array call of `model.F2_fn` (F is
    sqrt(max(F^2, 0)) of the same values), and the tableau then runs over
    the precomputed levels.  A stencil that its tableau reaches at a point
    outside the domain is skipped; an EvalError at a reached in-domain point
    propagates."""
    n = model.dim
    energy = ModelEnergy(model)
    levels = [fd_stencils(n, RIDDERS_START_SCALE / RIDDERS_CON**i)
              for i in range(RIDDERS_LEVELS)]
    st = levels[0]
    multi = tuple(st.index)
    n_pts = int(st.start[-1])
    offset = np.concatenate([lv.offset for lv in levels])
    axis = np.tile(st.axis, (RIDDERS_LEVELS, 1))
    denominator = np.stack([lv.denominator for lv in levels])
    # stencil j's points as a row of `gather`, padded with a slot reading 0.0,
    # so each level's weighted values sum in stencil order, one column a step
    counts = np.diff(st.start)
    cols = np.arange(counts.max())
    gather = np.where(cols < counts[:, None], st.start[:-1, None] + cols, n_pts)
    weight = np.append(st.weight, 0.0)[gather]
    stencil_of = np.repeat(np.arange(len(multi)), counts)
    acc = PairAccumulator("jet-vs-fd-oracle", CORE_TOLERANCES["jet-vs-fd-oracle"])
    skipped = 0

    for s in s_batch:
        E = energy.energy_jet(s, 3, 3)
        F2j = 2.0 * E
        Fj = F2j.sqrt()
        point = np.concatenate([s.x, s.y])
        f2, failed = _stencil_values(model, np.where(axis, point + offset, point))
        # first level (RIDDERS_LEVELS if none) at which each stencil has a
        # failed point, and that level's first failed point
        first_fail = np.full(len(multi), RIDDERS_LEVELS)
        reason = {}
        for r in sorted(failed):
            i, j = divmod(r, n_pts)
            j = int(stencil_of[j])
            if i < first_fail[j]:
                first_fail[j], reason[j] = i, failed[r]
        for values, jet in ((f2, F2j), (np.sqrt(np.maximum(f2, 0.0)), Fj)):
            terms = np.append(values.reshape(RIDDERS_LEVELS, n_pts),
                              np.zeros((RIDDERS_LEVELS, 1)), axis=1)[:, gather] * weight
            total = 0.0
            for c in range(gather.shape[1]):
                total = total + terms[:, :, c]
            fd, last = _ridders(total / denominator)
            keep = first_fail > last
            for j in np.flatnonzero(~keep):
                if reason[j] is not None:
                    raise reason[j]
            skipped += int(np.count_nonzero(~keep))
            jv = jet.partials_at(multi)
            scale = np.where(np.abs(jv) > 1.0, np.abs(jv), 1.0)
            acc.add(s, (jv / scale)[keep], (fd / scale)[keep])
    note = f"{skipped} stencil evaluations skipped at the domain boundary" if skipped else ""
    return [acc.result(note)]


# --------------------------------------------------------------------------
# geodesic conservation
# --------------------------------------------------------------------------

def run_geodesic_suite(model, cfg: RunConfig):
    """First-integral drift of base and changed geodesic flows; the change is
    built on the model's phi as given (the base flow does not use phi).

    A start that leaves the domain within 20 floor steps is passed over for
    the next one; when no start runs that long and some stopped for another
    reason, the flow is not resolved and the identity fails, naming it."""
    rng = _rng(cfg.seed, _STREAM_GEODESIC)
    box = _box(model, cfg)
    min_time = 20 * GEODESIC_STEP
    out = []
    for name, energy, predicate in (
        ("geodesic-first-integral-base", model, None),
        ("geodesic-first-integral-hat", HatEnergy(model),
         matsumoto.hat_sample_predicate(model)),
    ):
        batch, _ = sample_batch(model, box, 8, rng, predicate=predicate)
        best = None
        stops = []
        for s in batch:
            traj = connections.integrate_geodesic(energy, s, GEODESIC_TIME, GEODESIC_STEP,
                                                  GEODESIC_TOL)
            elapsed = float(traj.t[-1])
            if elapsed >= min_time:
                best = (s, traj.metric_drift() / elapsed, elapsed, traj.escape_reason)
                break
            stops.append((s, traj.escape_reason))
        if best is None:
            unresolved = [s for s, r in stops if r != "left the domain"]
            if not unresolved:
                out.append(IdentityResult(
                    name=name, kind="skipped",
                    note="no sampled start stayed in the domain long enough"))
                continue
            counts = Counter(r for _, r in stops)
            s = unresolved[0]
            out.append(IdentityResult(
                name=name, kind="identity", residual=None,
                tolerance=CORE_TOLERANCES[name], n_samples=len(stops),
                worst_sample={"x": s.x.tolist(), "y": s.y.tolist(), "residual": None},
                note=f"no sampled start ran to t={min_time!r}: "
                     + ", ".join(f"{r} ({c} of {len(stops)})"
                                 for r, c in sorted(counts.items()))))
            continue
        s, rate, elapsed, reason = best
        out.append(IdentityResult(
            name=name, kind="identity", residual=rate,
            tolerance=CORE_TOLERANCES[name], n_samples=1,
            worst_sample={"x": s.x.tolist(), "y": s.y.tolist(), "residual": rate},
            note=f"drift per unit time over t={elapsed!r}"
                 + (f" ({reason}, partial run)" if reason else "")))
    return out


# --------------------------------------------------------------------------
# full verification
# --------------------------------------------------------------------------

def _sample_for_orientation(model, cfg, stream, count):
    rng = _rng(cfg.seed, stream)
    pred = matsumoto.hat_sample_predicate(model)
    return sample_batch(model, _box(model, cfg), count, rng, predicate=pred)


def run_verification(model, cfg: RunConfig) -> SuiteReport:
    """Run every suite and assemble the one-model verification report; raises
    ValueError when a tolerance override names no entry of the report, or an
    entry that has no tolerance (a skipped one)."""
    extras = {}
    results = []

    rng_core = _rng(cfg.seed, _STREAM_CORE)
    core_batch, rej = sample_batch(model, _box(model, cfg),
                                   min(cfg.samples, 50), rng_core)
    extras["core_batch_rejected"] = rej
    core_results, core_extras = run_core_suite(model, core_batch)
    results += core_results
    extras.update(core_extras)

    # orientation: fixed by config, or read off the concurrency probe's sigma
    if cfg.orientation in ("+1", "-1"):
        orientation = 1.0 if cfg.orientation == "+1" else -1.0
        extras["orientation_mode"] = "fixed"
    else:
        orientation = matsumoto.select_orientation(core_extras["probe_sigma"])
        extras["orientation_mode"] = "auto"
    hat_model = model.oriented(orientation)
    other = -orientation
    other_model = model.oriented(other)

    fd_batch = core_batch[:FD_SAMPLES]
    results += run_fd_suite(model, fd_batch)

    main_batch, rej_main = _sample_for_orientation(
        hat_model, cfg, _STREAM_CHANGE, cfg.samples)
    extras["change_batch_rejected"] = rej_main
    results += matsumoto.change_identity_suite(hat_model, main_batch)

    # tabulate the opposite orientation on a smaller batch so a sign clash in
    # the source formulas is isolated per identity rather than guessed
    other_batch, _ = _sample_for_orientation(
        other_model, cfg, _STREAM_CHANGE_OTHER, max(8, cfg.samples // 4))
    other_results = matsumoto.change_identity_suite(other_model, other_batch,
                                                    with_curvature=False)
    extras["other_orientation"] = f"{other:+.0f}"
    extras["other_orientation_residuals"] = {
        r.name: r.residual for r in other_results if r.residual is not None}

    scan_batch, _ = sample_batch(model, _box(model, cfg),
                                 min(cfg.samples, 50), _rng(cfg.seed, _STREAM_SCAN))
    results += matsumoto.nondegeneracy_scan(hat_model, scan_batch)

    decomp_batch, _ = sample_batch(model, _box(model, cfg),
                                   min(cfg.samples, 30), _rng(cfg.seed, _STREAM_DECOMP))
    results += matsumoto.rational_decomposition_check(hat_model, decomp_batch)

    results += run_geodesic_suite(hat_model, cfg)

    names = [r.name for r in results]
    if len(names) != len(set(names)):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise RuntimeError(f"identity listed twice in the report: {dupes}")
    unknown = sorted(set(cfg.tolerance_overrides) - set(names))
    if unknown:
        raise ValueError(f"tolerance override for no identity in the report: "
                         f"{', '.join(unknown)}")
    untoleranced = [f"{r.name} ({r.kind})" for r in results
                    if r.name in cfg.tolerance_overrides and r.tolerance is None]
    if untoleranced:
        raise ValueError(f"tolerance override for an entry without a tolerance: "
                         f"{', '.join(untoleranced)}")
    for r in results:
        if r.name in cfg.tolerance_overrides:
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
    geo = connections.GeometryJets(model, s, 4, 2)
    md = geo.md
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
        "spray": geo.spray.tolist(),
        "nonlinear_connection": geo.nonlinear.tolist(),
        "berwald": geo.berwald.tolist(),
        "curvature": geo.curvature.tolist(),
        "cartan_hcoeffs": geo.cartan.tolist(),
    }
    hat = HatEnergy(model.oriented(orientation))
    try:
        sc = matsumoto.change_scalars(md, hat.model, s)
        geo_hat = connections.GeometryJets(hat, s, 3, 1)
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
            "ghat": geo_hat.md.g.tolist(),
            "det_ghat": geo_hat.md.det_g,
            "spray_hat": geo_hat.spray.tolist(),
        }
    except Exception as e:  # noqa: BLE001 - inspection should degrade, not die
        out["change"] = {"error": f"{type(e).__name__}: {e}"}
    return out
