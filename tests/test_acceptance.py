"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All tolerances are pinned here, not configurable.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from finslerlab import cli, connections, core, harness, matsumoto, models
from finslerlab.core import metric_data, sample_batch
from finslerlab.matsumoto import HatEnergy

EX = models.builtin_model("matsumoto_example")
EU = models.builtin_model("euclid_concurrent")


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _batch(model, count, stream, orientation=None):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, stream])))
    pred = None if orientation is None else \
        matsumoto.hat_sample_predicate(model.oriented(orientation))
    return sample_batch(model, models.default_box(model), count, rng,
                        predicate=pred)[0]


def test_criterion_01_example_reproduction():
    """Engine components match the closed forms at 50 seeded samples, <= 1e-8."""
    batch = _batch(EX, 50, 101)
    worst = 0.0
    for s in batch:
        comp = models._example_components(s.x, s.y)
        md = metric_data(EX, s)
        G = connections.GeometryJets(EX, s, 2, 1).spray
        gamma = connections.GeometryJets(EX, s, 3, 1).cartan
        pairs = []
        for (i, j) in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
            pairs.append((md.g[i, j], comp[f"g{i+1}{j+1}"]))
            pairs.append((md.ginv[i, j], comp[f"ginv{i+1}{j+1}"]))
        for name in ("C111", "C112", "C122", "C222", "C113", "C123", "C133",
                     "C223", "C233", "C333"):
            i, j, k = (int(c) - 1 for c in name[1:])
            pairs.append((md.cartanC[i, j, k], comp[name]))
        for i in range(3):
            pairs.append((G[i], comp[f"G{i+1}"]))
        pairs.append((gamma[0, 0, 2], comp["Gamma113"]))
        pairs.append((gamma[1, 1, 2], comp["Gamma223"]))
        pairs.append((gamma[2, 2, 2], comp["Gamma333"]))
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(1, worst <= 1e-8,
            f"50 samples, worst component residual {worst:.3e} (tol 1e-8)")


def test_criterion_02_concurrency_probe():
    """sigma = +1 on the example (residual <= 1e-8, phi.C <= 1e-10);
    sigma = -1 exactly on the flat companion (<= 1e-12)."""
    def probe(model, stream):
        return connections.concurrency_probe(model, [
            connections.phi_covariants(connections.GeometryJets(model, s, 4, 2))
            for s in _batch(model, 20, stream)])

    (probe_ex, phic_ex), sigma_ex = probe(EX, 102)
    (probe_eu, _), sigma_eu = probe(EU, 103)
    ok = (abs(sigma_ex - 1.0) <= 1e-8 and probe_ex.residual <= 1e-8
          and phic_ex.residual <= 1e-10 and probe_ex.passed and phic_ex.passed
          and abs(sigma_eu + 1.0) <= 1e-12 and probe_eu.residual <= 1e-12)
    _report(2, ok,
            f"example sigma {sigma_ex!r} resid {probe_ex.residual:.3e} "
            f"phiC {phic_ex.residual:.3e}; flat sigma {sigma_eu!r} "
            f"resid {probe_eu.residual:.3e}")


def test_criterion_03_master_change_suite_flat_model():
    """Every transformation law on the flat companion at the definition-
    consistent orientation, 100 samples with |margin| > 0.1 F, <= 1e-6."""
    batch = _batch(EU, 100, 104, orientation=+1.0)
    results = matsumoto.change_identity_suite(EU.oriented(+1), batch)
    laws = ["supporting-form-change", "angular-metric-change", "metric-change",
            "cartan-torsion-change", "spray-change",
            "nonlinear-connection-change", "berwald-change", "curvature-change"]
    res = {r.name: r.residual for r in results if r.residual is not None}
    worst = max(res[name] for name in laws)
    _report(3, worst <= 1e-6,
            f"100 samples, worst law residual {worst:.3e} (tol 1e-6)")


def test_criterion_04_change_suite_example_with_selected_orientation():
    """Suite on the example under the harness-selected orientation; both
    orientations tabulated so a sign clash is isolated per identity."""
    cfg = harness.RunConfig(samples=60, seed=42)
    rep = harness.run_verification(EX, cfg)
    selected = rep.orientation
    other_tab = rep.extras.get("other_orientation_residuals", {})
    laws = ["supporting-form-change", "angular-metric-change", "metric-change",
            "cartan-torsion-change", "spray-change",
            "nonlinear-connection-change", "berwald-change", "curvature-change"]
    worst = max(rep.find(name).residual for name in laws)
    ok = (selected in ("+1", "-1") and other_tab and worst <= 1e-6
          and rep.extras["orientation_mode"] == "auto")
    detail = (f"selected orientation {selected}, worst law residual {worst:.3e}; "
              f"opposite orientation tabulated over {len(other_tab)} identities")
    if worst > 1e-6:
        bad = [n for n in laws if rep.find(n).residual > 1e-6]
        detail += f"; failing under {selected}: {bad}"
    _report(4, ok, detail)


def test_criterion_05_nondegeneracy_theorem():
    """A margin zero exists on a ray with 0.5 < |x| < 1; |det ghat| collapses
    by >= 1e3 from margin 0.5 to margin 1e-6; over a census batch det ghat
    follows its closed-form law and ghat is positive definite exactly where
    predicted."""
    scan = matsumoto.margin_ray_scan(EU.oriented(+1), [0.8, 0.0])
    ratio = math.inf
    if scan is not None:
        ratio = abs(scan["levels"][1e-6]["det"]) / abs(scan["levels"][0.5]["det"])
    batch = _batch(EU, 50, 105)
    census, signature = matsumoto.nondegeneracy_scan(EU.oriented(+1), batch)
    ok = scan is not None and ratio <= 1e-3 and census.passed and signature.passed
    _report(5, ok,
            f"theta* = {scan['theta_star']:.6f}, det collapse ratio {ratio:.3e} "
            f"(tol 1e-3); census residual {census.residual:.3e} (tol 1e-9); "
            f"signature {signature.status} ({signature.note})")


def test_criterion_06_projective_impossibility():
    """Non-radial part of the spray change stays g-orthogonal to y (> 1e-8)."""
    def projective(model, orient, stream):
        batch = _batch(model, 50, stream, orient)
        return next(r for r in matsumoto.change_identity_suite(model.oriented(orient), batch)
                    if r.name == "projective-impossibility")

    rep_ex, rep_eu = projective(EX, -1.0, 106), projective(EU, +1.0, 107)
    ok = (rep_ex.passed and rep_eu.passed
          and rep_ex.n_samples == 50 and rep_eu.n_samples > 0)
    _report(6, ok,
            f"threshold / min orthogonal ratio: example {rep_ex.residual:.3e}, "
            f"flat {rep_eu.residual:.3e} (must stay below 1)")


def test_criterion_07_lemma_suite():
    """Concurrent-form derivative identities <= 1e-8 over 100 samples."""
    worst = 0.0
    for model, orient, stream in ((EU, +1.0, 108), (EX, -1.0, 109)):
        batch = _batch(model, 100, stream, orient)
        for r in matsumoto.change_identity_suite(model.oriented(orient), batch,
                                                 with_curvature=False):
            if r.name in matsumoto.LEMMA_TOLERANCES:
                worst = max(worst, r.residual)
    _report(7, worst <= 1e-8, f"worst lemma residual {worst:.3e} (tol 1e-8)")


def test_criterion_08_rational_decompositions():
    """theta*a = g and theta_hat*a_hat = ghat, <= 1e-9 at 30 samples."""
    batch = _batch(EX, 30, 110, -1.0)
    res = {r.name: r.residual
           for r in matsumoto.rational_decomposition_check(EX.oriented(-1), batch)}
    worst = max(res.values())
    _report(8, worst <= 1e-9,
            f"base {res['rational-decomposition-base']:.3e}, "
            f"hat {res['rational-decomposition-hat']:.3e} (tol 1e-9)")


def test_criterion_09_numerical_hygiene():
    """Jets vs the FD oracle <= 1e-5 (orders <= 3, 20 samples per model);
    geodesics conserve F and Fhat to <= 1e-6 over unit time at step 1e-3."""
    fd_worst = 0.0
    for model, stream in ((EX, 111), (EU, 112)):
        res = harness.run_fd_suite(model, _batch(model, 20, stream))[0]
        fd_worst = max(fd_worst, res.residual)

    drifts = {}
    p0 = core.make_sample(EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    e0 = core.make_sample(EU, [0.2, 0.1], [1.0, 0.3])
    for name, energy, s0 in (
        ("example-base", EX, p0),
        ("example-hat", HatEnergy(EX.oriented(-1)), p0),
        ("flat-base", EU, e0),
        ("flat-hat", HatEnergy(EU.oriented(+1)), e0),
    ):
        traj = connections.integrate_geodesic(energy, s0, 1.0, 1e-3)
        assert not traj.escaped and traj.t[-1] == pytest.approx(1.0)
        drifts[name] = traj.metric_drift()
    drift_worst = max(drifts.values())
    ok = fd_worst <= 1e-5 and drift_worst <= 1e-6
    _report(9, ok, f"jet-vs-fd worst {fd_worst:.3e} (tol 1e-5); "
                   f"geodesic drift worst {drift_worst:.3e} (tol 1e-6)")


GOLDEN = Path(__file__).parent / "data"


def test_criterion_10_determinism(tmp_path):
    """`verify --seed 42` twice produces byte-identical report bodies, equal to
    the stored golden reports of both models."""
    def body(model, samples, tag):
        out = tmp_path / f"{model}-{tag}.json"
        code = cli.main(["verify", "--model", model, "--seed", "42", "--samples",
                         str(samples), "--format", "json", "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    bodies = [body("euclid_concurrent", 20, k) for k in range(2)]
    golden = {
        "euclid_concurrent": (bodies[0], "verify_euclid_concurrent_seed42_s20.json"),
        "matsumoto_example": (body("matsumoto_example", 8, 0),
                              "verify_matsumoto_example_seed42_s8.json"),
    }
    drifted = [m for m, (got, name) in golden.items()
               if got != (GOLDEN / name).read_bytes()]
    ok = bodies[0] == bodies[1] and not drifted
    _report(10, ok, f"two runs, {len(bodies[0])} bytes each, identical: "
                    f"{bodies[0] == bodies[1]}; differ from golden: {drifted}")
