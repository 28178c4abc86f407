"""The metric change: scalars, predicted laws vs direct recomputation, scans."""

import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest

from finslerlab import connections, core, expr, harness, matsumoto, models, numkit, report
from finslerlab.core import metric_data, sample_batch
from finslerlab.errors import DegenerateMargin, OutsideHatDomain
from finslerlab.matsumoto import HatEnergy
from finslerlab.numkit import fd_derivative

EX = models.builtin_model("matsumoto_example")
EU = models.builtin_model("euclid_concurrent")
P0 = core.make_sample(EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
# negative control: horizontally but not vertically concurrent
RANDERS = models.load_model(
    str(Path(__file__).parent / "data" / "randers_not_concurrent.fmod"))
# phi = 0: the change is the identity, with no obstruction and no projective term
NOPHI = expr.parse("name = nophi\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 0\nphi2 = 0\ndomain = y1^2 + y2^2\n")

# frozen closed-form values at P0, orientation +1 (plain float arithmetic):
# F = sqrt(10), Phi = x3 y3 = 1, p2 = x3^2 = 1, margin = 3 (sqrt(10) - 1)
SQ10 = math.sqrt(10.0)
P0_MARGIN = 3.0 * (SQ10 - 1.0)
P0_F1 = SQ10 * (4.0 - SQ10) / P0_MARGIN
P0_F2 = 2.0 * SQ10**3 / P0_MARGIN
P0_FHAT = 10.0 / (SQ10 - 1.0)


def _scalars(model, s):
    """The checked value-level change scalars off fresh metric data at `s`."""
    return matsumoto.change_scalars(metric_data(model, s), model, s)


def _change_jets(model, s, orientation, y_order, x_order):
    geo = connections.GeometryJets(model.oriented(orientation), s, y_order, x_order)
    return matsumoto.ChangeJets(geo)


def _batch(model, orientation, count, stream):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, stream])))
    return sample_batch(model, models.default_box(model), count, rng,
                        predicate=matsumoto.hat_sample_predicate(model.oriented(orientation)))[0]


def _change_batch(oriented, count):
    """The first `count` samples of `verify`'s change stream at seed 42."""
    return harness._sample_for_orientation(oriented, harness.RunConfig(samples=count),
                                           harness._STREAM_CHANGE, count)[0]


def _entry(results, name):
    """The entry called `name` in a suite's list."""
    return next(r for r in results if r.name == name)


def _obstruction_max(entry):
    """max |O| off the concurrency-obstruction entry's note."""
    return float(entry.note.removeprefix("max |O| = "))


def test_change_scalars_p0():
    sc = _scalars(EX.oriented(+1), P0)
    assert sc.Phi == pytest.approx(1.0, abs=1e-12)
    assert sc.p2 == pytest.approx(1.0, abs=1e-12)
    assert sc.margin == pytest.approx(P0_MARGIN, rel=1e-12)       # ~6.4868
    assert sc.f1 == pytest.approx(P0_F1, rel=1e-12)               # ~0.40838
    assert sc.f2 == pytest.approx(P0_F2, rel=1e-12)               # ~9.7498
    assert sc.Fhat == pytest.approx(P0_FHAT, rel=1e-12)           # ~4.6248
    assert np.allclose(sc.phi_low, [0.0, 0.0, 1.0], atol=1e-12)


def test_change_scalars_euclid_origin_degenerates_to_identity():
    m = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = _scalars(EU.oriented(+1), m)
    assert sc.Phi == 0.0 and sc.p2 == 0.0
    assert sc.margin == pytest.approx(1.0)  # = F
    assert sc.Fhat == pytest.approx(1.0)    # = F


def test_change_scalars_boundary_exclusion():
    s = core.make_sample(EU, [1.0 - 5e-13, 0.0], [1.0, 0.0])
    with pytest.raises(OutsideHatDomain):
        _scalars(EU.oriented(-1), s)  # Phi = +x.y = F - 5e-13


def test_change_scalars_degenerate_margin():
    # margin(theta*) = 0 on the ray |x| = 0.8; build a sample right at it
    theta = math.acos(-0.95)
    s = core.make_sample(EU, [0.8, 0.0], [math.cos(theta), math.sin(theta)])
    with pytest.raises(DegenerateMargin):
        _scalars(EU.oriented(+1), s)


def test_scalar_invariants_pairings():
    for s in _batch(EX, -1.0, 5, 0):
        sc = _scalars(EX.oriented(-1), s)
        md = metric_data(EX, s)
        assert float(sc.phi_low @ s.y) == pytest.approx(sc.Phi, rel=1e-10, abs=1e-12)
        assert float(sc.phi_low @ sc.phi_up) == pytest.approx(sc.p2, rel=1e-10)
        assert float(md.ell @ sc.phi_up) == pytest.approx(sc.Phi / sc.F, rel=1e-10,
                                                          abs=1e-12)


def test_predicted_supporting_form_p0():
    sc = _scalars(EX.oriented(+1), P0)
    assert np.allclose(sc.md.ell, np.array([-3.0, 12.0, 1.0]) / SQ10, atol=1e-12)
    lh = matsumoto.predicted_supporting_form(sc)
    assert float(lh @ P0.y) == pytest.approx(sc.Fhat, rel=1e-12)
    direct = metric_data(HatEnergy(EX.oriented(+1)), P0).ell
    assert np.max(np.abs(lh - direct)) <= 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_predicted_supporting_form_identity_at_vanishing_phi():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = _scalars(EU.oriented(+1), s)
    md = sc.md
    assert np.allclose(matsumoto.predicted_supporting_form(sc), md.ell, atol=1e-14)
    assert np.allclose(matsumoto.predicted_metric(sc), md.g, atol=1e-14)
    assert np.allclose(matsumoto.predicted_angular(sc), md.hbar, atol=1e-14)


def test_predicted_metric_vs_hessian_p0_both_orientations():
    for orient in (+1.0, -1.0):
        sc = _scalars(EX.oriented(orient), P0)
        ghat = matsumoto.predicted_metric(sc)
        direct = metric_data(HatEnergy(EX.oriented(orient)), P0).g
        assert np.max(np.abs(ghat - direct)) <= 1e-7 * max(1.0, np.max(np.abs(direct)))
        hhat = matsumoto.predicted_angular(sc)
        lh = matsumoto.predicted_supporting_form(sc)
        assert np.max(np.abs(hhat - (ghat - np.outer(lh, lh)))) <= 1e-10 * max(
            1.0, np.max(np.abs(ghat)))
        assert np.max(np.abs(hhat @ P0.y)) <= 1e-9 * max(1.0, np.max(np.abs(hhat)))


def test_predicted_metric_vs_hessian_euclid_batch():
    for s in _batch(EU, +1.0, 30, 1):
        sc = _scalars(EU.oriented(+1), s)
        direct = metric_data(HatEnergy(EU.oriented(+1)), s).g
        got = matsumoto.predicted_metric(sc)
        assert np.max(np.abs(got - direct)) <= 1e-7 * max(1.0, np.max(np.abs(direct)))


def test_predicted_cartan_torsion():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = _scalars(EU.oriented(+1), s)
    T = matsumoto.predicted_cartan(sc)
    assert np.allclose(T, 0.0, atol=1e-13)  # flat space, phi = 0 there

    sc = _scalars(EX.oriented(-1), P0)
    T = matsumoto.predicted_cartan(sc)
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.max(np.abs(T - np.transpose(T, perm))) <= 1e-9 * max(
            1.0, np.max(np.abs(T)))
    direct = metric_data(HatEnergy(EX.oriented(-1)), P0).cartanC
    assert np.max(np.abs(T - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_spray_p0_frozen_values_and_direct_oracle():
    # orientation +1 arithmetic (printed-sign scalars)
    sc = _scalars(EX.oriented(+1), P0)
    G = connections.GeometryJets(EX, P0, 2, 1).spray
    got = matsumoto.predicted_spray(sc, G, P0.y)
    want = np.array([0.5 * P0_F1, 1.0 + 0.5 * P0_F1, -4.5 + 0.5 * P0_F1 - 0.5 * P0_F2])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(want, [0.2042, 1.2042, -9.1707], atol=5e-5)
    # the direct cross-check holds under the harness-selected orientation (-1)
    sc = _scalars(EX.oriented(-1), P0)
    pred = matsumoto.predicted_spray(sc, G, P0.y)
    direct = connections.GeometryJets(HatEnergy(EX.oriented(-1)), P0, 2, 1).spray
    assert np.max(np.abs(pred - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_spray_vanishing_phi_reduces_to_radial_shift():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = _scalars(EU.oriented(+1), s)
    got = matsumoto.predicted_spray(sc, np.zeros(2), s.y)
    assert np.allclose(got, 0.5 * sc.f1 * s.y, atol=1e-14)
    assert sc.f1 == pytest.approx(-sc.F, rel=1e-12)  # f1 = F(0-F)/F = -F here


def test_predicted_nonlinear_connection_consistency_and_oracle():
    cj = _change_jets(EX, P0, -1.0, 3, 1)
    nhat = matsumoto.predicted_nonlinear_connection(cj)
    from_spray = np.array([[cj.spray_pred_jets[i].diff_y(j).value
                            for j in range(3)] for i in range(3)])
    assert np.max(np.abs(nhat - from_spray)) <= 1e-9 * max(1.0, np.max(np.abs(nhat)))
    direct = connections.GeometryJets(HatEnergy(EX.oriented(-1)), P0, 3, 1).nonlinear
    assert np.max(np.abs(nhat - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_berwald_and_curvature_euclid_batch():
    for s in _batch(EU, +1.0, 10, 2):
        cj = _change_jets(EU, s, +1.0, 4, 2)
        berw = matsumoto.predicted_berwald(cj)
        curv = matsumoto.predicted_curvature(cj)
        geo = connections.GeometryJets(HatEnergy(EU.oriented(+1)), s, 4, 2)
        bd = geo.berwald
        rd = geo.curvature
        assert np.max(np.abs(berw - bd)) <= 1e-6 * max(1.0, np.max(np.abs(bd)))
        assert np.max(np.abs(curv - rd)) <= 1e-5 * max(1.0, np.max(np.abs(rd)))


def test_orientation_isolation_on_example():
    """Under the printed sign (+1) exactly the horizontal laws fail; under the
    derivative-consistent sign (-1) everything holds."""
    batch = _batch(EX, +1.0, 6, 3)
    res = {r.name: r
           for r in matsumoto.change_identity_suite(EX.oriented(+1), batch)}
    assert res["metric-change"].residual <= 1e-7
    assert res["supporting-form-change"].residual <= 1e-8
    assert res["cartan-torsion-change"].residual <= 1e-6
    assert res["spray-change"].residual > 1e-2
    assert res["nonlinear-connection-change"].residual > 1e-2
    assert res["berwald-change"].residual > 1e-2

    batch = _batch(EX, -1.0, 6, 4)
    res = {r.name: r
           for r in matsumoto.change_identity_suite(EX.oriented(-1), batch)}
    for r in res.values():
        if r.residual is not None:
            assert r.residual <= r.tolerance if r.tolerance else True


def test_select_orientation_picks_definition_consistent_sign():
    """The sign comes off the core suite's concurrency probe: the one under
    which the oriented field has nabla phi = -identity."""
    for model, sigma, want in ((EX, +1.0, -1.0), (EU, -1.0, +1.0), (RANDERS, -1.0, +1.0)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 5])))
        batch, _ = sample_batch(model, models.default_box(model), 6, rng)
        _, extras = harness.run_core_suite(model, batch)
        assert extras["probe_sigma"] == pytest.approx(sigma, abs=1e-6), model.name
        assert matsumoto.select_orientation(extras["probe_sigma"]) == want, model.name
    assert matsumoto.select_orientation(0.0) == -1.0


def test_auto_orientation_runs_only_the_main_and_other_change_suites(monkeypatch):
    batches = []
    suite = matsumoto.change_identity_suite

    def counted(model, s_batch, **kw):
        batches.append(len(s_batch))
        return suite(model, s_batch, **kw)

    monkeypatch.setattr(matsumoto, "change_identity_suite", counted)
    rep = harness.run_verification(EU, harness.RunConfig(samples=8, seed=42))
    assert rep.extras["orientation_mode"] == "auto" and rep.orientation == "+1"
    assert batches == [8, 8]


def test_lemma_suite_euclid_and_example():
    for model, orient, stream in ((EU, +1.0, 9), (EX, -1.0, 10)):
        batch = _batch(model, orient, 10, stream)
        entries = matsumoto.change_identity_suite(model.oriented(orient), batch,
                                                  with_curvature=False)
        lemma = [r for r in entries if r.name in matsumoto.LEMMA_TOLERANCES]
        assert len(lemma) == len(matsumoto.LEMMA_TOLERANCES)
        for r in lemma:
            assert r.residual <= 1e-8, (model.name, r.name, r.residual)


def test_value_reads_differentiate_no_jet(monkeypatch):
    """Berwald, curvature, delta g, the value fields H, H_dy and H_dx, the
    predicted connection laws, the lemma entries and the concurrency
    obstruction read their derivatives off prebuilt jets in one gather each:
    with `Jet.diff` (which `diff_x` and `diff_y` call) raising, they still run."""
    cj = _change_jets(EX, P0, -1.0, 4, 2)
    geo = cj.geo
    sc = matsumoto.change_scalars(geo.md, EX.oriented(-1), P0)
    geo.nonlinear_jets, cj.scalars   # built by differentiation, before the patch

    def no_diff(self, var):
        raise AssertionError("a value read differentiated a jet")

    monkeypatch.setattr(numkit.Jet, "diff", no_diff)
    geo.berwald, geo.curvature, geo.delta_metric
    cj.H, cj.H_dy, cj.H_dx
    matsumoto.predicted_nonlinear_connection(cj)
    matsumoto.predicted_berwald(cj)
    matsumoto.predicted_curvature(cj)
    matsumoto._lemma_pairs(cj, sc)
    matsumoto.concurrency_obstruction(cj)


def test_change_suite_builds_no_constant_jet(monkeypatch):
    """A constant phi component stays a float in the change jets, and a scalar
    over a jet (the spray solve's 1 / pivot) is the reciprocal times the
    scalar: a change suite on either shipped model builds no constant jet."""
    built = []
    constant = numkit.JetSpace.constant
    monkeypatch.setattr(numkit.JetSpace, "constant",
                        lambda self, value: built.append(value) or constant(self, value))
    for model, orient in ((EU, +1.0), (EX, -1.0)):
        oriented = model.oriented(orient)
        entries = matsumoto.change_identity_suite(oriented, _change_batch(oriented, 2))
        assert _entry(entries, "spray-change").n_samples == 2, model.name
    assert built == []


def test_chain_rule_trivial_function():
    """f(F, Phi) = F: its y-derivative is the supporting form, exactly."""
    geo = connections.GeometryJets(EX.oriented(+1), P0, 3, 0)
    cj = matsumoto.ChangeJets(geo)
    md = metric_data(EX, P0)
    got = np.array([cj.scalars.F.diff_y(j).value for j in range(3)])
    assert np.allclose(got, md.ell, atol=1e-14)


def test_obstruction_nonzero_on_example_zero_for_vanishing_phi():
    """Read by the change suite off its own change jets, as `verify` reads it,
    and gated against its Berwald route."""
    entry = _entry(matsumoto.change_identity_suite(EX.oriented(-1), [P0]),
                   "concurrency-obstruction")
    assert entry.kind == "identity" and entry.passed and entry.n_samples == 1
    assert entry.tolerance == matsumoto.OBSTRUCTION_TOLERANCE
    O = matsumoto.concurrency_obstruction(_change_jets(EX, P0, -1.0, 4, 2))
    assert _obstruction_max(entry) == float(np.max(np.abs(O))) > 0.1
    s = core.make_sample(NOPHI, [0.2, 0.1], [1.0, 0.5])
    entry = _entry(matsumoto.change_identity_suite(NOPHI.oriented(+1), [s]),
                   "concurrency-obstruction")
    assert entry.kind == "identity" and entry.passed and entry.n_samples == 1
    assert _obstruction_max(entry) <= 1e-14


def test_obstruction_reads_the_first_eighth_of_a_batch(monkeypatch):
    """O is read at the first max(8, len // 8) samples of the suite's batch."""
    reads = []
    original = matsumoto.concurrency_obstruction

    def counting(cj):
        reads.append(cj.geo.s)
        return original(cj)

    monkeypatch.setattr(matsumoto, "concurrency_obstruction", counting)
    for count in (10, 72):
        batch = _batch(EU, +1.0, count, 32)
        reads.clear()
        suite = matsumoto.change_identity_suite(EU.oriented(+1), batch, False)
        k = max(8, count // 8)
        assert reads == batch[:k]
        assert _entry(suite, "concurrency-obstruction").n_samples == k


def test_obstruction_second_derivatives_match_finite_differences():
    """The f2 second derivatives and the whole of O, read off the change jets
    the suite builds (order (4, 2)), against central differences of the
    value-level scalars."""
    s = core.make_sample(EU, [0.3, -0.1], [1.1, 0.6])
    model = EU.oriented(+1)
    cj = matsumoto.ChangeJets(connections.GeometryJets(model, s, 4, 2))
    ys = range(2, 4)
    jet_d2 = cj.scalars.f2.partials(ys, ys)

    def fd(name, *dirs):
        mi = [0, 0, 0, 0]
        for k in dirs:
            mi[2 + k] += 1
        return fd_derivative(lambda x, y: getattr(_scalars(
            model, core.make_sample(EU, x, y)), name), s.x, s.y, mi)

    for k in range(2):
        for j in range(2):
            assert abs(jet_d2[k, j] - fd("f2", k, j)) <= 1e-4 * max(1.0, abs(jet_d2[k, j]))

    ph = connections.phi_values(model, s.x)
    df1 = np.array([fd("f1", j) for j in range(2)])
    d2f1 = np.array([[fd("f1", k, j) for j in range(2)] for k in range(2)])
    d2f2 = np.array([[fd("f2", k, j) for j in range(2)] for k in range(2)])
    O_fd = (np.outer(ph, df1 - ph @ d2f2) - float(ph @ df1) * np.eye(2)
            + np.outer(s.y, ph @ d2f1))
    O = matsumoto.concurrency_obstruction(cj)
    assert np.max(np.abs(O)) > 0.1
    assert np.max(np.abs(O - O_fd)) <= 1e-4 * max(1.0, np.max(np.abs(O)))


@pytest.mark.parametrize("model, orient", [(EX, -1.0), (EX, +1.0), (EU, +1.0)])
def test_obstruction_is_the_berwald_change_along_phi(model, orient):
    """O^i_k = -2 sigma phi^m (Ghat^i_mk - G^i_mk) - 2 (phi^m df1/dy^m) delta^i_k,
    with sigma = trace(hcov phi)/n and both Berwald connections recomputed:
    phi stays concurrent for Fhat where O = -2 (phi . df1) delta, not O = 0."""
    oriented = model.oriented(orient)
    n = model.dim
    for s in _batch(model, orient, 2, 33 + int(orient > 0)):
        geo = connections.GeometryJets(oriented, s, 4, 1)
        cj = matsumoto.ChangeJets(geo)
        G_hat = connections.GeometryJets(HatEnergy(oriented), s, 4, 1).berwald
        sigma = np.trace(connections.phi_covariants(geo)[0]) / n
        ph = connections.phi_values(oriented, s.x)
        df1 = cj.scalars.f1.partials(range(n, 2 * n))
        predicted = (-2.0 * sigma * np.einsum("m,imk->ik", ph, G_hat - geo.berwald)
                     - 2.0 * float(ph @ df1) * np.eye(n))
        O = matsumoto.concurrency_obstruction(cj)
        assert np.max(np.abs(O)) > 0.1
        assert report.relmax(predicted, O) <= 1e-12


@pytest.mark.parametrize("orient", [-1.0, +1.0])
def test_obstruction_is_the_closed_berwald_change_along_phi(orient):
    """O^i_k = 2 phi^m H_dy[i, m, k] - 2 (phi . df1) delta^i_k: the
    concurrency obstruction is the closed-form Berwald change along phi, at
    either orientation."""
    n = EX.dim
    for s in _batch(EX, orient, 2, 35 + int(orient > 0)):
        cj = _change_jets(EX, s, orient, 4, 1)
        want = (2.0 * np.einsum("m,imk->ik", cj.phi, cj.H_dy)
                - 2.0 * float(cj.phi @ cj.df[0]) * np.eye(n))
        O = matsumoto.concurrency_obstruction(cj)
        assert np.max(np.abs(O)) > 0.1
        assert report.relmax(O, want) <= 1e-14


@pytest.mark.parametrize("method, factor, identity", [
    ("berwald", 1.0 + 1e-3, "berwald-change"),
    ("curvature", -1.0, "curvature-change"),
], ids=["berwald-scaled", "curvature-flipped"])
def test_change_suite_fails_a_mutated_geometry_kernel(method, factor, identity,
                                                      monkeypatch):
    """The predicted Berwald and curvature laws share no kernel with their
    direct routes: `GeometryJets.berwald` scaled by 1 + 1e-3, or
    `GeometryJets.curvature` sign-flipped, fails its change identity on both
    shipped models, at the orientation `verify` picks, on the first 8 samples
    of its change stream."""
    original = getattr(connections.GeometryJets, method)
    monkeypatch.setattr(connections.GeometryJets, method,
                        property(lambda geo: factor * original.func(geo)))
    for model, orient in ((EU, +1.0), (EX, -1.0)):
        oriented = model.oriented(orient)
        entry = _entry(matsumoto.change_identity_suite(oriented, _change_batch(oriented, 8)),
                       identity)
        assert entry.n_samples == 8 and entry.passed is False, model.name


def _obstruction_terms(cj):
    """The three terms of `concurrency_obstruction`, written out again so a
    test can mutate each one."""
    sc, n = cj.scalars, cj.n
    ys = range(n, 2 * n)
    ph = connections.phi_values(cj.geo.energy.model, cj.geo.s.x)
    df1 = sc.f1.partials(ys)
    return (np.outer(ph, df1 - ph @ sc.f2.partials(ys, ys)),
            -float(ph @ df1) * np.eye(n),
            np.outer(cj.geo.s.y, ph @ sc.f1.partials(ys, ys)))


@pytest.mark.parametrize("term", [0, 1, 2], ids=["phi-outer", "trace", "y-outer"])
@pytest.mark.parametrize("factor", [1.0 + 1e-3, -1.0], ids=["scaled", "flipped"])
def test_obstruction_identity_fails_a_mutated_term(term, factor, monkeypatch):
    """Each term of O, scaled by 1 + 1e-3 or sign-flipped, fails the
    concurrency-obstruction entry on both shipped models, at the orientation
    `verify` picks, on the first 8 samples of its change stream."""
    original = matsumoto.concurrency_obstruction
    for model, orient in ((EU, +1.0), (EX, -1.0)):
        oriented = model.oriented(orient)
        batch = _change_batch(oriented, 8)
        cj = _change_jets(model, batch[0], orient, 4, 1)
        assert np.array_equal(sum(_obstruction_terms(cj)), original(cj))
        monkeypatch.setattr(matsumoto, "concurrency_obstruction", lambda cj: sum(
            factor * t if k == term else t for k, t in enumerate(_obstruction_terms(cj))))
        entry = _entry(matsumoto.change_identity_suite(oriented, batch, False),
                       "concurrency-obstruction")
        assert entry.n_samples == 8 and entry.passed is False, model.name


def _connection_change_terms(cj):
    """The terms of `ChangeJets.H`, `.H_dy` and `.H_dx`, written out again so
    a test can mutate each one."""
    sc, n, ys, xs = cj.scalars, cj.n, cj.ys, range(cj.n)
    y, ph, eye, (df1, df2) = cj.geo.s.y, cj.phi, np.eye(n), cj.df
    return {
        "H": (0.5 * np.outer(y, df1), -0.5 * np.outer(ph, df2), 0.5 * sc.f1.value * eye),
        "H_dy": (0.5 * np.einsum("ij,k->ijk", eye, df1),
                 0.5 * np.einsum("ik,j->ijk", eye, df1),
                 0.5 * np.einsum("i,jk->ijk", y, sc.f1.partials(ys, ys)),
                 -0.5 * np.einsum("i,jk->ijk", ph, sc.f2.partials(ys, ys))),
        "H_dx": (0.5 * np.einsum("ij,k->ijk", eye, sc.f1.partials(xs)),
                 0.5 * np.einsum("i,jk->ijk", y, sc.f1.partials(ys, xs)),
                 -0.5 * np.einsum("ik,j->ijk", cj.geo.phi_jacobian, df2),
                 -0.5 * np.einsum("i,jk->ijk", ph, sc.f2.partials(ys, xs))),
    }


@pytest.fixture(scope="module")
def change_batches():
    """Both shipped models at the orientation `verify` picks, each with the
    first 8 samples of its change stream."""
    return [(oriented, _change_batch(oriented, 8))
            for oriented in (EU.oriented(+1.0), EX.oriented(-1.0))]


def test_connection_change_terms_sum_to_the_fields(change_batches):
    """The written-out terms add up to each field's bits, so a mutant below
    changes one term and nothing else."""
    for oriented, batch in change_batches:
        cj = matsumoto.ChangeJets(connections.GeometryJets(oriented, batch[0], 4, 2))
        for field, terms in _connection_change_terms(cj).items():
            assert np.array_equal(sum(terms), getattr(cj, field)), (oriented.name, field)


_NONLINEAR = {"nonlinear-connection-change", "nonlinear-connection-internal"}


@pytest.mark.parametrize("field, term, fails", [
    ("H", 0, _NONLINEAR | {"curvature-change"}),
    ("H", 1, _NONLINEAR | {"curvature-change"}),
    ("H", 2, _NONLINEAR),   # a multiple of delta cancels in H^m_k Ghat^i_jm - (j <-> k)
    *[("H_dy", k, {"berwald-change", "curvature-change"}) for k in range(4)],
    *[("H_dx", k, {"curvature-change"}) for k in range(4)],
], ids=["H-y-df1", "H-phi-df2", "H-f1-delta",
        "H_dy-delta-df1", "H_dy-df1-delta", "H_dy-y-d2f1", "H_dy-phi-d2f2",
        "H_dx-delta-dxf1", "H_dx-y-dydxf1", "H_dx-dphi-df2", "H_dx-phi-dydxf2"])
@pytest.mark.parametrize("factor", [1.0 + 1e-3, -1.0], ids=["scaled", "flipped"])
def test_change_suite_fails_a_mutated_connection_change_term(field, term, fails, factor,
                                                             change_batches, monkeypatch):
    """Each term of H = Nhat - N and of its y- and x-derivatives, scaled by
    1 + 1e-3 or sign-flipped, fails exactly the change entries that read it
    on both shipped models, at the orientation `verify` picks, on the first
    8 samples of its change stream."""
    monkeypatch.setattr(matsumoto.ChangeJets, field, property(lambda cj: sum(
        factor * t if k == term else t
        for k, t in enumerate(_connection_change_terms(cj)[field]))))
    for oriented, batch in change_batches:
        entries = matsumoto.change_identity_suite(oriented, batch)
        failed = {r.name for r in entries if r.passed is False}
        assert failed == fails, oriented.name
        assert all(_entry(entries, name).n_samples == 8 for name in fails), oriented.name


def test_nondegeneracy_scan_flags_nothing_healthy():
    """The determinant law and the signature hold on a batch drawn as
    `verify` draws its census."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 20])))
    batch, _ = sample_batch(EU, models.default_box(EU), 40, rng)
    scan, signature = matsumoto.nondegeneracy_scan(EU.oriented(+1), batch)
    assert scan.name == "nondegeneracy-margin-scan"
    assert scan.passed and scan.residual <= 1e-12 and scan.n_samples > 0
    assert signature.name == "nondegeneracy-signature"
    assert signature.passed and signature.n_samples == scan.n_samples


def test_nondegeneracy_scan_ignores_phi_free_variant():
    """phi = 0: ghat = g, the law reduces to det g (1 for this metric), and
    no sample is predicted indefinite."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 21])))
    batch, _ = sample_batch(NOPHI, models.default_box(EU), 20, rng)
    scan, signature = matsumoto.nondegeneracy_scan(NOPHI.oriented(+1), batch)
    assert scan.passed and scan.n_samples == 20 and scan.residual <= 1e-14
    assert scan.predicted_worst == pytest.approx([1.0], abs=1e-14)
    assert scan.direct_worst == pytest.approx([1.0], abs=1e-14)
    assert signature.passed and signature.n_samples == 20
    assert signature.note == ("samples predicted indefinite: 0 with margin <= 0, "
                              "0 with F <= 2 Phi (n >= 3)")


@pytest.mark.parametrize("mutant", [
    lambda sc: 1.0 + 1e-3,          # the whole law scaled
    lambda sc: -1.0,                # its sign flipped
    lambda sc: sc.a,                # a^(n-1) for a^(n-2)
    lambda sc: sc.F**-5,            # F^5 dropped
    lambda sc: sc.F - sc.Phi,       # (F - Phi)^5 for (F - Phi)^6
], ids=["scaled", "sign", "a-power", "no-F5", "F-Phi-power"])
@pytest.mark.parametrize("model, orient", [(EX, -1.0), (EU, +1.0)], ids=["example", "flat"])
def test_nondegeneracy_scan_fails_a_mutated_determinant_law(mutant, model, orient,
                                                           monkeypatch):
    """Each factor of predicted_metric_determinant is read by the census: a
    mutant of it fails on both shipped models, at the orientation verify picks."""
    original = matsumoto.predicted_metric_determinant
    monkeypatch.setattr(matsumoto, "predicted_metric_determinant",
                        lambda sc: mutant(sc) * original(sc))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 35])))
    batch, _ = sample_batch(model, models.default_box(model), 8, rng)
    scan, _ = matsumoto.nondegeneracy_scan(model.oriented(orient), batch)
    assert scan.n_samples > 0 and scan.passed is False


@pytest.mark.parametrize("mutant, model", [
    (lambda sc: sc.margin > 0, EX),
    (lambda sc: len(sc.phi_low) == 2 or sc.F > 2 * sc.Phi, EU),
], ids=["no-F-2Phi-clause", "no-margin-clause"])
def test_nondegeneracy_scan_fails_a_mutated_signature_law(mutant, model, monkeypatch):
    """Each clause of predicted_positive_definite is read by the census at
    orientation +1: without F > 2 Phi it misses the indefinite samples of
    matsumoto_example, without margin > 0 those of euclid_concurrent."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 35])))
    batch, _ = sample_batch(model, models.default_box(model), 8, rng)
    assert matsumoto.nondegeneracy_scan(model.oriented(+1), batch)[1].passed
    monkeypatch.setattr(matsumoto, "predicted_positive_definite", mutant)
    scan, signature = matsumoto.nondegeneracy_scan(model.oriented(+1), batch)
    assert scan.passed and signature.n_samples > 0 and signature.passed is False


def test_margin_ray_scan_finds_root_and_collapsing_determinant():
    scan = matsumoto.margin_ray_scan(EU.oriented(+1), [0.8, 0.0])
    assert scan is not None
    # margin(theta) = 2.28 + 2.4 cos(theta): root at acos(-0.95)
    assert scan["theta_star"] == pytest.approx(math.acos(-0.95), abs=1e-6)
    assert abs(scan["margin_at_star"]) <= 1e-9
    det_small = abs(scan["levels"][1e-6]["det"])
    det_big = abs(scan["levels"][0.5]["det"])
    assert det_small <= 1e-3 * det_big


def test_determinant_decreases_monotonically_with_margin(monkeypatch):
    """|det ghat| shrinks monotonically over the last decades of |margin|
    (sampled on the contiguous branch next to the root)."""
    targets = (5e-3, 5e-4, 5e-5, 5e-6, 1e-6)
    monkeypatch.setattr(matsumoto, "RAY_DET_TARGETS", targets)
    scan = matsumoto.margin_ray_scan(EU.oriented(+1), [0.8, 0.0])
    dets = [abs(scan["levels"][t]["det"]) for t in targets]
    assert all(a > b for a, b in zip(dets, dets[1:]))
    # the collapse is linear in the margin: one decade of margin loses about
    # one decade of determinant
    assert dets[0] / dets[1] == pytest.approx(10.0, rel=0.3)


def test_margin_ray_scan_none_when_margin_positive():
    scan = matsumoto.margin_ray_scan(EU.oriented(+1), [0.2, 0.0])
    assert scan is None  # 1 + 2|x|^2 > 3|x| for |x| < 1/2
    with pytest.raises(ValueError):
        matsumoto.margin_ray_scan(EX.oriented(-1), [1.0, 0.0, 1.0])


def test_projective_check_example_and_parallel_construction():
    """Read by the change suite at every sample, as `verify` reads it."""
    batch = _batch(EX, -1.0, 10, 22)
    rep = _entry(matsumoto.change_identity_suite(EX.oriented(-1), batch),
                 "projective-impossibility")
    assert rep.passed and rep.n_samples == 10 and 0.0 < rep.residual < 1.0

    # phi parallel to y: flagged as parallel, not as a violation
    s = core.make_sample(EU, [0.5, 0.0], [2.0, 0.0])
    rep = _entry(matsumoto.change_identity_suite(EU.oriented(+1), [s]),
                 "projective-impossibility")
    assert rep.n_samples == 0 and rep.passed
    assert "1 parallel and 0 degenerate" in rep.note

    s = core.make_sample(NOPHI, [0.2, 0.1], [1.0, 0.5])
    assert matsumoto.projective_check(_scalars(NOPHI, s), s.y) is None
    rep = _entry(matsumoto.change_identity_suite(NOPHI.oriented(+1), [s]),
                 "projective-impossibility")
    assert rep.n_samples == 0 and rep.passed
    assert "0 parallel and 1 degenerate" in rep.note


def test_rational_decomposition_example_p0_and_batch():
    theta, a = models.decomposition_forms(EX)(P0.x, P0.y)
    assert theta == 1.0 and a[0, 0] == 7.0
    assert theta * a[2, 2] == 1.0
    md = metric_data(EX, P0)
    assert np.allclose(theta * a, md.g, atol=1e-12)

    batch = _batch(EX, -1.0, 30, 23)
    res = {r.name: r for r in matsumoto.rational_decomposition_check(EX.oriented(-1), batch)}
    assert res["rational-decomposition-base"].residual <= 1e-9
    assert res["rational-decomposition-hat"].residual <= 1e-9


def test_rational_decomposition_skipped_without_closed_forms():
    """Without shipped closed forms only the base half is skipped: the hat
    factorization needs metric data alone."""
    batch = _batch(EU, +1.0, 20, 30)
    base, hat = matsumoto.rational_decomposition_check(EU.oriented(+1), batch)
    assert base.name == "rational-decomposition-base" and base.kind == "skipped"
    assert hat.name == "rational-decomposition-hat" and hat.passed
    assert hat.n_samples == 20 and hat.residual <= 1e-12


@pytest.mark.parametrize("orient", [+1.0, -1.0])
def test_negative_control_fails_hat_decomposition(orient):
    """The hat factorization assumes phi^k C_kij = 0, like the Cartan law."""
    batch = _batch(RANDERS, orient, 8, 31 + int(orient > 0))
    _, hat = matsumoto.rational_decomposition_check(RANDERS.oriented(orient), batch)
    assert hat.passed is False


def test_master_change_suite_euclid():
    """Every transformation law at once, definition-consistent orientation."""
    batch = _batch(EU, +1.0, 40, 24)
    for r in matsumoto.change_identity_suite(EU.oriented(+1), batch):
        if r.kind == "identity":
            assert r.residual <= min(r.tolerance, 1e-6), (r.name, r.residual)


def test_negative_control_fails_vertical_concurrency():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 26])))
    batch, _ = sample_batch(RANDERS, models.default_box(RANDERS), 8, rng)
    results, _ = harness.run_core_suite(RANDERS, batch)
    res = {r.name: r for r in results}
    assert res["concurrency-vertical-contraction"].passed is False


@pytest.mark.parametrize("orient", [+1.0, -1.0])
def test_negative_control_fails_cartan_law(orient):
    """The closed-form Cartan law assumes phi^k C_kij = 0; without it the law fails."""
    batch = _batch(RANDERS, orient, 8, 27 + int(orient > 0))
    res = {r.name: r for r in
           matsumoto.change_identity_suite(RANDERS.oriented(orient), batch)}
    assert res["cartan-torsion-change"].passed is False


@pytest.mark.parametrize("helper, identity", [
    ("predicted_supporting_form", "supporting-form-change"),
    ("predicted_metric", "metric-change"),
    ("predicted_angular", "angular-metric-change"),
    ("predicted_cartan", "cartan-torsion-change"),
    ("predicted_spray", "spray-change"),
    ("predicted_nonlinear_connection", "nonlinear-connection-change"),
    ("predicted_berwald", "berwald-change"),
    ("predicted_curvature", "curvature-change"),
])
def test_change_suite_fails_a_mutated_law(helper, identity, monkeypatch):
    """Each predicted law feeds its identity: scaled by 1 + 1e-3, it fails."""
    original = getattr(matsumoto, helper)
    monkeypatch.setattr(matsumoto, helper, lambda *a: (1.0 + 1e-3) * original(*a))
    batch = _batch(EX, -1.0, 8, 29)
    res = {r.name: r
           for r in matsumoto.change_identity_suite(EX.oriented(-1), batch)}
    assert res[identity].passed is False
    if helper == "predicted_spray":
        # the spray jets N is differentiated from are the same law on jets
        assert res["nonlinear-connection-internal"].passed is False


def test_change_suite_fails_a_mutated_factor_a(monkeypatch):
    """ghat, hhat and Chat read their factor a of g, hbar and C off
    ChangeScalars.a; scaled by 1 + 1e-3, all three laws fail."""
    original = vars(matsumoto.ChangeScalars)["a"].func
    monkeypatch.setattr(matsumoto.ChangeScalars, "a",
                        property(lambda sc: (1.0 + 1e-3) * original(sc)))
    batch = _batch(EX, -1.0, 8, 29)
    failed = {r.name for r in matsumoto.change_identity_suite(EX.oriented(-1), batch)
              if r.passed is False}
    assert {"metric-change", "angular-metric-change", "cartan-torsion-change"} <= failed


@pytest.mark.parametrize("name", ["margin", "f1", "f2"])
def test_shared_change_scalars_fail_a_mutated_formula(name, monkeypatch):
    """The value and jet routes share the ChangeScalars formulas; scaled by
    1 + 1e-3, each still fails the recomputation on Fhat and its chain rule."""
    batch = _batch(EX, -1.0, 8, 29)
    original = vars(matsumoto.ChangeScalars)[name].func
    monkeypatch.setattr(matsumoto.ChangeScalars, name,
                        property(lambda sc: (1.0 + 1e-3) * original(sc)))
    failed = {r.name for r in matsumoto.change_identity_suite(EX.oriented(-1), batch)
              if r.passed is False}
    assert "spray-change" in failed
    assert failed & {"chain-rule-f1", "chain-rule-f2"}


def _count_calls(monkeypatch):
    """Counts energy jets per provider and metric_data builds, wherever bound."""
    calls = collections.Counter()

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for cls in (core.ModelEnergy, HatEnergy):
        monkeypatch.setattr(cls, "energy_jet",
                            counting(f"{cls.__name__}.energy_jet", cls.energy_jet))
    original = core.metric_data
    for mod in (core, connections, matsumoto, harness):
        if getattr(mod, "metric_data", None) is original:
            monkeypatch.setattr(mod, "metric_data", counting("metric_data", original))
    return calls


def _count_jet_evaluations(model, monkeypatch):
    """Spaces of the model's F^2 evaluations on jets, as they happen."""
    spaces = []
    f2 = model.F2_fn

    def counted(xs, ys):
        if isinstance(xs[0], numkit.Jet):
            spaces.append(xs[0].space)
        return f2(xs, ys)

    monkeypatch.setattr(model, "F2_fn", counted)
    return spaces


@pytest.mark.parametrize("with_curvature", [True, False])
def test_change_suite_builds_two_geometries_per_sample(with_curvature, monkeypatch):
    """One base and one changed-metric GeometryJets per change sample, one
    energy jet request each, and the metric data read off them.  Both jets
    come from one evaluation of F^2 on jets: the hat geometry is built first,
    and the base geometry's request is served from the base jet the hat's
    provider built one y-order higher.  The base geometry takes one square
    root of its energy jet for ell and the change scalars; the changed metric
    takes one for Fhat and one for its own ell.  The lemma entries, the
    projective witness and the concurrency obstruction are read off the same
    base geometry and its value scalars, with no third build."""
    built = []
    init = connections.GeometryJets.__init__

    def counting_init(self, energy, s, y_order, x_order):
        built.append((y_order, x_order))
        init(self, energy, s, y_order, x_order)

    roots = []
    sqrt = numkit.Jet.sqrt

    def counting_sqrt(self):
        roots.append(self.space)
        return sqrt(self)

    batch = [P0, *_batch(EX, -1.0, 3, 30)]
    model = EX.oriented(-1)
    monkeypatch.setattr(connections.GeometryJets, "__init__", counting_init)
    monkeypatch.setattr(numkit.Jet, "sqrt", counting_sqrt)
    calls = _count_calls(monkeypatch)
    evaluations = _count_jet_evaluations(model, monkeypatch)
    results = matsumoto.change_identity_suite(model, batch, with_curvature)
    laws = {**matsumoto.CHANGE_TOLERANCES, **matsumoto.LEMMA_TOLERANCES}
    assert all(r.note == "" for r in results if r.name in laws)   # none skipped
    x_order = 2 if with_curvature else 1
    assert built == [(4, x_order)] * (2 * len(batch))
    assert calls == {"ModelEnergy.energy_jet": 2 * len(batch),
                     "HatEnergy.energy_jet": len(batch)}
    assert evaluations == [numkit.jet_space(3, 5, x_order)] * len(batch)
    assert len(roots) == 3 * len(batch)
    assert set(matsumoto.LEMMA_TOLERANCES) <= {r.name for r in results}
    # the projective witness and the obstruction are read in the same pass
    projective = _entry(results, "projective-impossibility")
    assert projective.n_samples == len(batch) and projective.passed
    obstruction = _entry(results, "concurrency-obstruction")
    assert obstruction.n_samples == len(batch) and obstruction.passed
    assert _obstruction_max(obstruction) > 0.0


def _reference_lemma(model, s_batch):
    """Lemma entries read off a separate (3, 1) base geometry per sample."""
    accs, skipped = {}, 0
    for s in s_batch:
        geo = connections.GeometryJets(model, s, 3, 1)
        try:
            sc = matsumoto.change_scalars(geo.md, model, s)
        except (OutsideHatDomain, DegenerateMargin):
            skipped += 1
            continue
        pairs = matsumoto._lemma_pairs(matsumoto.ChangeJets(geo), sc)
        for name, (pred, direct) in pairs.items():
            if name not in accs:
                accs[name] = report.PairAccumulator(name, matsumoto.LEMMA_TOLERANCES[name])
            accs[name].add(s, pred, direct)
    note = f"{skipped} samples skipped (outside hat domain or degenerate margin)" \
        if skipped else ""
    return [accs[k].result(note) for k in sorted(accs)]


@pytest.mark.parametrize("orient", [+1.0, -1.0])
@pytest.mark.parametrize("model, point", [
    (EX, P0), (EU, core.make_sample(EU, [0.3, -0.2], [1.1, 0.7]))], ids=["example", "flat"])
def test_lemma_entries_match_a_separate_3_1_geometry(model, point, orient):
    """The change suite's (4, 2) and (4, 1) base geometries give every lemma
    entry the bits of a (3, 1) geometry built for it alone."""
    oriented = model.oriented(orient)
    for batch in ([point], _batch(model, orient, 4, 31 + int(orient > 0))):
        ref = [json.dumps(r.to_dict(), sort_keys=True)
               for r in _reference_lemma(oriented, batch)]
        assert len(ref) == len(matsumoto.LEMMA_TOLERANCES)
        for with_curvature in (True, False):
            got = [json.dumps(r.to_dict(), sort_keys=True)
                   for r in matsumoto.change_identity_suite(
                       oriented, batch, with_curvature)
                   if r.name in matsumoto.LEMMA_TOLERANCES]
            assert got == ref


@pytest.mark.parametrize("tol", [None, harness.GEODESIC_TOL],
                         ids=["fixed-step", "step-control"])
def test_hat_geodesic_near_degeneracy_halts_finitely(tol):
    """A changed-metric geodesic aimed at the margin-zero cone must flag a
    breakdown instead of diverging or raising raw overflow errors."""
    theta = math.acos(-0.95) - 0.01  # margin ~ 0.008 at the start
    s0 = core.make_sample(EU, [0.8, 0.0], [math.cos(theta), math.sin(theta)])
    traj = connections.integrate_geodesic(HatEnergy(EU.oriented(+1)), s0, 1.0, 1e-3, tol)
    assert traj.escaped and traj.exit_time is not None
    assert np.all(np.isfinite(traj.F)) and np.all(np.isfinite(traj.x))


def test_hat_geodesic_stop_reason_is_first_integral_jump():
    """At seed 7 the hat run stops on the single-step F-jump guard, which is
    checked only once the step passed the model domain and the hat fence; the
    suite's note names the guard rather than the domain."""
    model = EX.oriented(+1)
    res = {r.name: r for r in harness.run_geodesic_suite(model, harness.RunConfig(seed=7))}
    hat = res["geodesic-first-integral-hat"]
    assert hat.note.endswith("(first-integral jump, partial run)")
    s0 = core.make_sample(EX, hat.worst_sample["x"], hat.worst_sample["y"])
    traj = connections.integrate_geodesic(HatEnergy(model), s0, 1.0, 1e-3)
    assert traj.escape_reason == "first-integral jump"
    assert traj.exit_time == pytest.approx(0.385)


def _scale_acceleration(monkeypatch, factor):
    """Scale the acceleration half of every spray evaluation: a wrong spray."""
    spray_rhs = connections._spray_rhs

    def scaled(energy, x, y):
        out = spray_rhs(energy, x, y)
        out[len(x):] *= factor
        return out

    monkeypatch.setattr(connections, "_spray_rhs", scaled)


def test_geodesic_suite_fails_a_flow_no_start_can_follow(monkeypatch):
    """A spray off by 1e-4 trips the first-integral guard on the first step of
    every start; the suite fails those flows and names the guard instead of
    skipping them as if every start had left the domain.  The flat base
    spray is zero, so scaling leaves it right."""
    _scale_acceleration(monkeypatch, 1 + 1e-4)
    for model, failing in ((EX.oriented(-1), ("base", "hat")), (EU.oriented(+1), ("hat",))):
        res = {r.name: r for r in harness.run_geodesic_suite(model, harness.RunConfig(seed=42))}
        assert res["geodesic-first-integral-base"].passed is ("base" not in failing)
        for which in failing:
            r = res[f"geodesic-first-integral-{which}"]
            assert r.kind == "identity" and r.passed is False and r.residual is None
            assert r.note == "no sampled start ran to t=0.02: first-integral jump (8 of 8)"


@pytest.mark.parametrize("tol", [None, harness.GEODESIC_TOL],
                         ids=["fixed-step", "step-control"])
def test_geodesic_suite_fails_a_spray_off_by_1e5_in_both_modes(tol, monkeypatch):
    """The step-controlled check is no weaker at its gate: a spray off by
    1e-5 fails the same flows with the same drift as with fixed steps."""
    monkeypatch.setattr(harness, "GEODESIC_TOL", tol)
    _scale_acceleration(monkeypatch, 1 + 1e-5)
    expected = {("matsumoto_example", "base"): 9.57e-6,
                ("matsumoto_example", "hat"): 1.36e-6,
                ("euclid_concurrent", "hat"): 6.67e-6}
    for model in (EX.oriented(-1), EU.oriented(+1)):
        for r in harness.run_geodesic_suite(model, harness.RunConfig(seed=42)):
            want = expected.get((model.name, r.name.rsplit("-", 1)[1]))
            if want is None:
                assert r.passed and r.residual == 0.0
            else:
                assert r.passed is False and r.residual == pytest.approx(want, rel=1e-2)


def test_hat_geodesic_builds_no_metric_data(monkeypatch):
    """The hat value path reads F and Phi off the energy jet that the next RK4
    step's first stage asks for, and builds no metric data.  That stage is
    served the jet the value path built, so each accepted state and each of
    the last three stages of a step asks the base for one energy jet, and F^2
    is evaluated on jets four times per step plus once at the start."""
    model = EX.oriented(-1)
    calls = _count_calls(monkeypatch)
    evaluations = _count_jet_evaluations(model, monkeypatch)
    traj = connections.integrate_geodesic(HatEnergy(model), P0, 0.1, 1e-3)
    assert traj.t.shape[0] == 101 and not traj.escaped
    assert calls["metric_data"] == 0
    assert calls["HatEnergy.energy_jet"] == 4 * 100
    assert calls["ModelEnergy.energy_jet"] == 3 * 100 + 101
    y_order, x_order = connections.SPRAY_ORDERS
    assert evaluations == [numkit.jet_space(3, y_order + 1, x_order)] * (4 * 100 + 1)


def test_step_controlled_hat_geodesic_evaluates_the_spray_once_per_state(monkeypatch):
    """A Dormand-Prince step evaluates the spray at six new states: its first
    stage is the last stage of the step before, or the one its rejected
    attempt already had.  A floor step evaluates three RK4 stages, and the
    next step's first stage is evaluated at its end.  So a flow of `a`
    attempted pair steps and `f` floor steps makes 6 a + 4 f + 1 spray calls,
    one fewer when it ends on a floor step, all at distinct states.  F at a
    pair step's update is read off the jet its last stage built, so `F^2` is
    evaluated on jets six times per pair step, four times per floor step and
    once at the start, and no metric data is built.  The seed-42 start at +1
    runs toward the degeneracy, so this flow has rejections and floor steps."""
    model = EX.oriented(+1)
    s0 = core.make_sample(EX, [0.5157737551187723, 0.9799626422102767, 1.3376096710950822],
                          [0.505451882186293, 0.6758014313418661, 1.8937552173927672])
    calls = _count_calls(monkeypatch)
    evaluations = _count_jet_evaluations(model, monkeypatch)
    states, steps = [], []
    spray_rhs, dopri_step, rk4_step = (connections._spray_rhs, connections._dopri_step,
                                       connections._rk4_step)

    def spray(energy, x, y):
        states.append((x.tobytes(), y.tobytes()))
        return spray_rhs(energy, x, y)

    def counted(kind, step_fn):
        def wrapper(*args):
            steps.append(kind)
            return step_fn(*args)
        return wrapper

    monkeypatch.setattr(connections, "_spray_rhs", spray)
    monkeypatch.setattr(connections, "_dopri_step", counted("pair", dopri_step))
    monkeypatch.setattr(connections, "_rk4_step", counted("floor", rk4_step))
    traj = connections.integrate_geodesic(HatEnergy(model), s0, 0.98, 1e-3, tol=1e-9)
    assert not traj.escaped and traj.t[-1] == 0.98
    pair, floor = steps.count("pair"), steps.count("floor")
    assert floor > 1 and pair > traj.t.shape[0] - 1 - floor   # floor steps and rejections
    assert len(states) == 6 * pair + 4 * floor + 1 - (steps[-1] == "floor")
    assert len(set(states)) == len(states)
    assert calls["metric_data"] == 0
    assert calls["HatEnergy.energy_jet"] == len(states)
    y_order, x_order = connections.SPRAY_ORDERS
    assert evaluations == [numkit.jet_space(3, y_order + 1, x_order)] * (6 * pair + 4 * floor + 1)
    assert calls["ModelEnergy.energy_jet"] == len(evaluations)


def test_hat_provider_keeps_its_last_answer(monkeypatch):
    """The value path's jet is handed to the spray stage at the same point
    bytes and orders; other orders build anew.  Past the fence the kept
    answer is None for the value and OutsideHatDomain for the jet."""
    model = EX.oriented(-1)
    evaluations = _count_jet_evaluations(model, monkeypatch)
    hat = HatEnergy(model)
    assert hat.f_value(P0.x, P0.y) == pytest.approx(10.0 / (SQ10 + 1.0), rel=1e-14)
    E = hat.energy_jet(P0, *connections.SPRAY_ORDERS)
    assert hat.energy_jet(P0, *connections.SPRAY_ORDERS) is E
    assert len(evaluations) == 1
    hat.energy_jet(P0, 4, 1)
    assert len(evaluations) == 2

    flat = EU.oriented(-1)
    fenced = HatEnergy(flat)
    s = core.make_sample(EU, [1.0 - 5e-13, 0.0], [1.0, 0.0])   # Phi = F - 5e-13
    assert fenced.f_value(s.x, s.y) is None
    monkeypatch.setattr(flat, "F2_fn", None)   # a second build would fail
    with pytest.raises(OutsideHatDomain):
        fenced.energy_jet(s, *connections.SPRAY_ORDERS)


@pytest.mark.parametrize("orders", [(4, 2), (4, 1), (2, 1), (2, 0)])
def test_hat_energy_jet_keeps_the_bits_of_the_root_at_the_base_orders(orders):
    """The changed metric takes F's square root valid to the orders it returns,
    not to its base jet's: the hat energy jet has the bits, every slot
    included, of the route that roots at the base jet's orders."""
    model = EX.oriented(-1)
    y_order, x_order = orders
    for s in [P0, *_batch(EX, -1.0, 4, 31)]:
        E = core.ModelEnergy(model).energy_jet(s, y_order + 1, x_order)
        xs = E.space.lift(s.x, s.y)[:3]
        Phi = matsumoto.concurrent_form([p(xs, None) for p in model.phi_fns], E)
        Fhat = (2.0 * E) / ((2.0 * E).sqrt() - Phi)
        want = 0.5 * Fhat * Fhat
        got = HatEnergy(model).energy_jet(s, y_order, x_order)
        assert got.space is want.space
        assert (got.y_valid, got.x_valid) == (want.y_valid, want.x_valid) == orders
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_vertical_derivative_operator_is_shared():
    """Structural invariance: base and changed pipelines differentiate
    vertically with the literally same operator."""
    base = connections.GeometryJets(EU, core.make_sample(EU, [0.1, 0.0], [1.0, 0.2]),
                                    2, 0)
    hat = connections.GeometryJets(HatEnergy(EU.oriented(+1)),
                                   core.make_sample(EU, [0.1, 0.0], [1.0, 0.2]), 2, 0)
    assert type(base.E).diff_y is type(hat.E).diff_y


def test_report_self_audit():
    batch = _batch(EU, +1.0, 5, 25)
    for r in matsumoto.change_identity_suite(EU.oriented(+1), batch):
        if r.predicted_worst is not None:
            assert report.relmax(r.predicted_worst, r.direct_worst) == pytest.approx(
                r.residual, rel=1e-12)
