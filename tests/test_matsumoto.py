"""The metric change: scalars, predicted laws vs direct recomputation, scans."""

import math

import numpy as np
import pytest

from finslerlab import connections, core, expr, matsumoto, models
from finslerlab.core import metric_data, sample_batch
from finslerlab.errors import DegenerateMargin, OutsideHatDomain
from finslerlab.matsumoto import HatEnergy, change_scalars
from finslerlab.numkit import fd_derivative

EX = models.builtin_model("matsumoto_example")
EU = models.builtin_model("euclid_concurrent")
P0 = core.make_sample(EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])

# frozen closed-form values at P0, orientation +1 (plain float arithmetic):
# F = sqrt(10), Phi = x3 y3 = 1, p2 = x3^2 = 1, margin = 3 (sqrt(10) - 1)
SQ10 = math.sqrt(10.0)
P0_MARGIN = 3.0 * (SQ10 - 1.0)
P0_F1 = SQ10 * (4.0 - SQ10) / P0_MARGIN
P0_F2 = 2.0 * SQ10**3 / P0_MARGIN
P0_FHAT = 10.0 / (SQ10 - 1.0)


def _change_jets(model, s, orientation, y_order, x_order):
    geo = connections.GeometryJets(model, s, y_order, x_order)
    return matsumoto.ChangeJets(geo, orientation)


def _batch(model, orientation, count, stream):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, stream])))
    return sample_batch(model, models.default_box(model), count, rng,
                        predicate=matsumoto.hat_sample_predicate(model, orientation))[0]


def test_change_scalars_p0():
    sc = change_scalars(EX, P0, +1.0)
    assert sc.Phi == pytest.approx(1.0, abs=1e-12)
    assert sc.p2 == pytest.approx(1.0, abs=1e-12)
    assert sc.margin == pytest.approx(P0_MARGIN, rel=1e-12)       # ~6.4868
    assert sc.f1 == pytest.approx(P0_F1, rel=1e-12)               # ~0.40838
    assert sc.f2 == pytest.approx(P0_F2, rel=1e-12)               # ~9.7498
    assert sc.Fhat == pytest.approx(P0_FHAT, rel=1e-12)           # ~4.6248
    assert np.allclose(sc.phi_low, [0.0, 0.0, 1.0], atol=1e-12)


def test_change_scalars_euclid_origin_degenerates_to_identity():
    m = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = change_scalars(EU, m, +1.0)
    assert sc.Phi == 0.0 and sc.p2 == 0.0
    assert sc.margin == pytest.approx(1.0)  # = F
    assert sc.Fhat == pytest.approx(1.0)    # = F


def test_change_scalars_boundary_exclusion():
    s = core.make_sample(EU, [1.0 - 5e-13, 0.0], [1.0, 0.0])
    with pytest.raises(OutsideHatDomain):
        change_scalars(EU, s, -1.0)  # Phi = +x.y = F - 5e-13


def test_change_scalars_degenerate_margin():
    # margin(theta*) = 0 on the ray |x| = 0.8; build a sample right at it
    theta = math.acos(-0.95)
    s = core.make_sample(EU, [0.8, 0.0], [math.cos(theta), math.sin(theta)])
    with pytest.raises(DegenerateMargin):
        change_scalars(EU, s, +1.0)


def test_scalar_invariants_pairings():
    for s in _batch(EX, -1.0, 5, 0):
        sc = change_scalars(EX, s, -1.0)
        md = metric_data(EX, s)
        assert float(sc.phi_low @ s.y) == pytest.approx(sc.Phi, rel=1e-10, abs=1e-12)
        assert float(sc.phi_low @ sc.phi_up) == pytest.approx(sc.p2, rel=1e-10)
        assert float(md.ell @ sc.phi_up) == pytest.approx(sc.Phi / sc.F, rel=1e-10,
                                                          abs=1e-12)


def test_predicted_supporting_form_p0():
    sc = change_scalars(EX, P0, +1.0)
    md = metric_data(EX, P0)
    assert np.allclose(md.ell, np.array([-3.0, 12.0, 1.0]) / SQ10, atol=1e-12)
    lh = matsumoto.predicted_supporting_form(sc, md)
    assert float(lh @ P0.y) == pytest.approx(sc.Fhat, rel=1e-12)
    direct = metric_data(HatEnergy(EX, +1.0), P0).ell
    assert np.max(np.abs(lh - direct)) <= 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_predicted_supporting_form_identity_at_vanishing_phi():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = change_scalars(EU, s, +1.0)
    md = metric_data(EU, s)
    assert np.allclose(matsumoto.predicted_supporting_form(sc, md), md.ell, atol=1e-14)
    assert np.allclose(matsumoto.predicted_metric(sc, md), md.g, atol=1e-14)
    assert np.allclose(matsumoto.predicted_angular(sc, md), md.hbar, atol=1e-14)


def test_predicted_metric_vs_hessian_p0_both_orientations():
    md = metric_data(EX, P0)
    for orient in (+1.0, -1.0):
        sc = change_scalars(EX, P0, orient)
        ghat = matsumoto.predicted_metric(sc, md)
        direct = metric_data(HatEnergy(EX, orient), P0).g
        assert np.max(np.abs(ghat - direct)) <= 1e-7 * max(1.0, np.max(np.abs(direct)))
        hhat = matsumoto.predicted_angular(sc, md)
        lh = matsumoto.predicted_supporting_form(sc, md)
        assert np.max(np.abs(hhat - (ghat - np.outer(lh, lh)))) <= 1e-10 * max(
            1.0, np.max(np.abs(ghat)))
        assert np.max(np.abs(hhat @ P0.y)) <= 1e-9 * max(1.0, np.max(np.abs(hhat)))


def test_predicted_metric_vs_hessian_euclid_batch():
    for s in _batch(EU, +1.0, 30, 1):
        sc = change_scalars(EU, s, +1.0)
        md = metric_data(EU, s)
        direct = metric_data(HatEnergy(EU, +1.0), s).g
        got = matsumoto.predicted_metric(sc, md)
        assert np.max(np.abs(got - direct)) <= 1e-7 * max(1.0, np.max(np.abs(direct)))


def test_predicted_cartan_torsion():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    T = matsumoto.predicted_cartan(_change_jets(EU, s, +1.0, 3, 0))
    assert np.allclose(T, 0.0, atol=1e-13)  # flat space, phi = 0 there

    T = matsumoto.predicted_cartan(_change_jets(EX, P0, -1.0, 3, 0))
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.max(np.abs(T - np.transpose(T, perm))) <= 1e-9 * max(
            1.0, np.max(np.abs(T)))
    direct = metric_data(HatEnergy(EX, -1.0), P0).cartanC
    assert np.max(np.abs(T - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_spray_p0_frozen_values_and_direct_oracle():
    # orientation +1 arithmetic (printed-sign scalars)
    sc = change_scalars(EX, P0, +1.0)
    G = connections.spray(EX, P0)
    got = matsumoto.predicted_spray(sc, G, P0.y)
    want = np.array([0.5 * P0_F1, 1.0 + 0.5 * P0_F1, -4.5 + 0.5 * P0_F1 - 0.5 * P0_F2])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(want, [0.2042, 1.2042, -9.1707], atol=5e-5)
    # the direct cross-check holds under the harness-selected orientation (-1)
    sc = change_scalars(EX, P0, -1.0)
    pred = matsumoto.predicted_spray(sc, G, P0.y)
    direct = connections.spray(HatEnergy(EX, -1.0), P0)
    assert np.max(np.abs(pred - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_spray_vanishing_phi_reduces_to_radial_shift():
    s = core.make_sample(EU, [0.0, 0.0], [0.6, 0.8])
    sc = change_scalars(EU, s, +1.0)
    got = matsumoto.predicted_spray(sc, np.zeros(2), s.y)
    assert np.allclose(got, 0.5 * sc.f1 * s.y, atol=1e-14)
    assert sc.f1 == pytest.approx(-sc.F, rel=1e-12)  # f1 = F(0-F)/F = -F here


def test_predicted_nonlinear_connection_consistency_and_oracle():
    cj = _change_jets(EX, P0, -1.0, 3, 1)
    nhat = matsumoto.predicted_nonlinear_connection(cj)
    from_spray = np.array([[cj.spray_pred_jets[i].diff_y(j).value
                            for j in range(3)] for i in range(3)])
    assert np.max(np.abs(nhat - from_spray)) <= 1e-9 * max(1.0, np.max(np.abs(nhat)))
    direct = connections.nonlinear_connection(HatEnergy(EX, -1.0), P0)
    assert np.max(np.abs(nhat - direct)) <= 1e-6 * max(1.0, np.max(np.abs(direct)))


def test_predicted_berwald_and_curvature_euclid_batch():
    for s in _batch(EU, +1.0, 10, 2):
        cj = _change_jets(EU, s, +1.0, 4, 2)
        berw = matsumoto.predicted_berwald(cj)
        curv = connections.curvature_from_njets(cj.nhat_pred_jets)
        geo = connections.GeometryJets(HatEnergy(EU, +1.0), s, 4, 2)
        bd = geo.berwald()
        rd = geo.curvature()
        assert np.max(np.abs(berw - bd)) <= 1e-6 * max(1.0, np.max(np.abs(bd)))
        assert np.max(np.abs(curv - rd)) <= 1e-5 * max(1.0, np.max(np.abs(rd)))


def test_orientation_isolation_on_example():
    """Under the printed sign (+1) exactly the horizontal laws fail; under the
    derivative-consistent sign (-1) everything holds."""
    batch = _batch(EX, +1.0, 6, 3)
    res = {r.name: r for r in matsumoto.change_identity_suite(EX, batch, +1.0)}
    assert res["metric-change"].residual <= 1e-7
    assert res["supporting-form-change"].residual <= 1e-8
    assert res["cartan-torsion-change"].residual <= 1e-6
    assert res["spray-change"].residual > 1e-2
    assert res["nonlinear-connection-change"].residual > 1e-2
    assert res["berwald-change"].residual > 1e-2

    batch = _batch(EX, -1.0, 6, 4)
    res = {r.name: r for r in matsumoto.change_identity_suite(EX, batch, -1.0)}
    for r in res.values():
        if r.residual is not None:
            assert r.residual <= r.tolerance if r.tolerance else True


def test_select_orientation_picks_definition_consistent_sign():
    probes = {o: _batch(EX, o, 6, 5 + int(o > 0)) for o in (+1.0, -1.0)}
    best, totals = matsumoto.select_orientation(EX, probes)
    assert best == -1.0
    assert totals[-1.0] < 1e-8 < totals[1.0]

    probes = {o: _batch(EU, o, 6, 7 + int(o > 0)) for o in (+1.0, -1.0)}
    best, totals = matsumoto.select_orientation(EU, probes)
    assert best == +1.0


def test_lemma_suite_euclid_and_example():
    for model, orient, stream in ((EU, +1.0, 9), (EX, -1.0, 10)):
        batch = _batch(model, orient, 10, stream)
        for r in matsumoto.lemma_identity_suite(model, batch, orient):
            assert r.residual <= 1e-8, (model.name, r.name, r.residual)


def test_chain_rule_trivial_function():
    """f(F, Phi) = F: its y-derivative is the supporting form, exactly."""
    geo = connections.GeometryJets(EX, P0, 3, 0)
    cj = matsumoto.ChangeJets(geo, +1.0)
    md = metric_data(EX, P0)
    got = np.array([cj.F_jet.diff_y(j).value for j in range(3)])
    assert np.allclose(got, md.ell, atol=1e-14)


def test_obstruction_nonzero_on_example_zero_for_vanishing_phi():
    O = matsumoto.concurrency_obstruction(EX, P0, -1.0)
    assert np.max(np.abs(O)) > 0.1
    m = expr.parse("name = nophi\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 0\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    s = core.make_sample(m, [0.2, 0.1], [1.0, 0.5])
    O = matsumoto.concurrency_obstruction(m, s, +1.0)
    assert np.allclose(O, 0.0, atol=1e-14)


def test_obstruction_second_derivatives_match_finite_differences():
    s = core.make_sample(EU, [0.3, -0.1], [1.1, 0.6])
    geo = connections.GeometryJets(EU, s, 4, 0)
    cj = matsumoto.ChangeJets(geo, +1.0)
    jet_d2 = np.array([[cj.f2_jet.diff_y(k).diff_y(j).value for j in range(2)]
                       for k in range(2)])

    def f2_of(x, y):
        sc = change_scalars(EU, core.make_sample(EU, x, y), +1.0)
        return sc.f2

    for k in range(2):
        for j in range(2):
            mi = [0, 0, 0, 0]
            mi[2 + k] += 1
            mi[2 + j] += 1
            fd = fd_derivative(f2_of, s.x, s.y, mi)
            assert abs(jet_d2[k, j] - fd) <= 1e-4 * max(1.0, abs(jet_d2[k, j]))


def test_nondegeneracy_scan_flags_nothing_healthy():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 20])))
    batch, _ = sample_batch(EU, models.default_box(EU), 40, rng)
    scan = matsumoto.nondegeneracy_scan(EU, batch, +1.0)
    assert scan.ok and scan.n_samples > 0


def test_nondegeneracy_scan_ignores_phi_free_variant():
    m = expr.parse("name = nophi\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 0\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 21])))
    batch, _ = sample_batch(m, models.default_box(EU), 20, rng)
    scan = matsumoto.nondegeneracy_scan(m, batch, +1.0)
    assert scan.ok
    # margin = F > 0 everywhere, ghat = g: nothing near degeneracy
    assert scan.min_abs_margin > 0.1


def test_margin_ray_scan_finds_root_and_collapsing_determinant():
    scan = matsumoto.margin_ray_scan(EU, [0.8, 0.0], +1.0)
    assert scan is not None
    # margin(theta) = 2.28 + 2.4 cos(theta): root at acos(-0.95)
    assert scan["theta_star"] == pytest.approx(math.acos(-0.95), abs=1e-6)
    assert abs(scan["margin_at_star"]) <= 1e-9
    det_small = abs(scan["levels"][1e-6]["det"])
    det_big = abs(scan["levels"][0.5]["det"])
    assert det_small <= 1e-3 * det_big


def test_determinant_decreases_monotonically_with_margin():
    """|det ghat| shrinks monotonically over the last decades of |margin|
    (sampled on the contiguous branch next to the root)."""
    targets = (5e-3, 5e-4, 5e-5, 5e-6, 1e-6)
    scan = matsumoto.margin_ray_scan(EU, [0.8, 0.0], +1.0, det_targets=targets)
    dets = [abs(scan["levels"][t]["det"]) for t in targets]
    assert all(a > b for a, b in zip(dets, dets[1:]))
    # the collapse is linear in the margin: one decade of margin loses about
    # one decade of determinant
    assert dets[0] / dets[1] == pytest.approx(10.0, rel=0.3)


def test_margin_ray_scan_none_when_margin_positive():
    scan = matsumoto.margin_ray_scan(EU, [0.2, 0.0], +1.0)
    assert scan is None  # 1 + 2|x|^2 > 3|x| for |x| < 1/2
    with pytest.raises(ValueError):
        matsumoto.margin_ray_scan(EX, [1.0, 0.0, 1.0], -1.0)


def test_projective_check_example_and_parallel_construction():
    batch = _batch(EX, -1.0, 10, 22)
    rep = matsumoto.projective_check(EX, batch, -1.0)
    assert rep.ok and rep.n_checked == 10 and rep.min_ratio > 1e-8

    # phi parallel to y: flagged as parallel, not as a violation
    s = core.make_sample(EU, [0.5, 0.0], [2.0, 0.0])
    rep = matsumoto.projective_check(EU, [s], +1.0)
    assert rep.n_parallel == 1 and rep.n_checked == 0 and rep.ok

    m = expr.parse("name = nophi\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 0\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    s = core.make_sample(m, [0.2, 0.1], [1.0, 0.5])
    rep = matsumoto.projective_check(m, [s], +1.0)
    assert rep.n_degenerate == 1 and rep.ok


def test_rational_decomposition_example_p0_and_batch():
    theta, a = models.decomposition_forms(EX)(P0.x, P0.y)
    assert theta == 1.0 and a[0, 0] == 7.0
    assert theta * a[2, 2] == 1.0
    md = metric_data(EX, P0)
    assert np.allclose(theta * a, md.g, atol=1e-12)

    batch = _batch(EX, -1.0, 30, 23)
    res = {r.name: r for r in matsumoto.rational_decomposition_check(EX, batch, -1.0)}
    assert res["rational-decomposition-base"].residual <= 1e-9
    assert res["rational-decomposition-hat"].residual <= 1e-9


def test_rational_decomposition_skipped_without_closed_forms():
    res = matsumoto.rational_decomposition_check(EU, [], +1.0)
    assert all(r.kind == "skipped" for r in res)


def test_master_change_suite_euclid():
    """Every transformation law at once, definition-consistent orientation."""
    batch = _batch(EU, +1.0, 40, 24)
    for r in matsumoto.change_identity_suite(EU, batch, +1.0):
        if r.kind == "identity":
            assert r.residual <= min(r.tolerance, 1e-6), (r.name, r.residual)


def test_hat_geodesic_near_degeneracy_halts_finitely():
    """A changed-metric geodesic aimed at the margin-zero cone must flag a
    breakdown instead of diverging or raising raw overflow errors."""
    theta = math.acos(-0.95) - 0.01  # margin ~ 0.008 at the start
    s0 = core.make_sample(EU, [0.8, 0.0], [math.cos(theta), math.sin(theta)])
    traj = connections.integrate_geodesic(HatEnergy(EU, +1.0), s0, 1.0, 1e-3)
    assert traj.escaped and traj.exit_time is not None
    assert np.all(np.isfinite(traj.F)) and np.all(np.isfinite(traj.x))


def test_vertical_derivative_operator_is_shared():
    """Structural invariance: base and changed pipelines differentiate
    vertically with the literally same operator."""
    base = connections.GeometryJets(EU, core.make_sample(EU, [0.1, 0.0], [1.0, 0.2]),
                                    2, 0)
    hat = connections.GeometryJets(HatEnergy(EU, +1.0),
                                   core.make_sample(EU, [0.1, 0.0], [1.0, 0.2]), 2, 0)
    assert type(base.E).diff_y is type(hat.E).diff_y


def test_report_self_audit():
    batch = _batch(EU, +1.0, 5, 25)
    for r in matsumoto.change_identity_suite(EU, batch, +1.0):
        if r.predicted_worst is not None:
            assert r.recomputed_residual() == pytest.approx(r.residual, rel=1e-12)
