"""Spray, connections, curvature, the concurrency probe, geodesics."""

import math

import numpy as np
import pytest

from finslerlab import connections, core, expr, models
from finslerlab.errors import DomainEscape
from finslerlab.numkit import fd_derivative

EX = models.builtin_model("matsumoto_example")
EU = models.builtin_model("euclid_concurrent")
P0 = core.make_sample(EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
PA = core.make_sample(EX, [0.7, 0.3, 1.4], [1.2, 0.8, 0.5])


def _closed_form_spray(x, y):
    x1, _, x3 = x
    y1, y2, y3 = y
    return np.array([
        (x1 * y3 - x3 * y1) * y1 / (x1 * x3),
        y2 * y3 / x3,
        -x3 * y2**2 * (x1**4 * y2**2 + 4 * x1**2 * y1 * y2 + 4 * y1**2) / (2 * y1**2),
    ])


def test_spray_example_p0_and_generic_point():
    assert np.allclose(connections.spray(EX, P0), [0.0, 1.0, -4.5], atol=1e-12)
    for s in (P0, PA):
        got = connections.spray(EX, s)
        want = _closed_form_spray(s.x, s.y)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_spray_euclidean_vanishes():
    s = core.make_sample(EU, [0.4, -0.2], [1.0, 0.7])
    assert np.allclose(connections.spray(EU, s), 0.0, atol=1e-14)


def test_spray_degree_two_homogeneity():
    s2 = core.make_sample(EX, P0.x, 2.0 * P0.y)
    G1 = connections.spray(EX, P0)
    G2 = connections.spray(EX, s2)
    assert np.max(np.abs(G2 - 4.0 * G1)) <= 1e-9 * max(1.0, np.max(np.abs(G2)))


def test_spray_defining_linear_system():
    md = core.metric_data(EX, PA)
    geo = connections.GeometryJets(EX, PA, 2, 1)
    rhs = connections.spray_system(geo.E, PA.y)
    lhs = md.g @ (2.0 * connections.spray(EX, PA))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_nonlinear_connection_euler_and_sparsity():
    N = connections.nonlinear_connection(EX, P0)
    G = connections.spray(EX, P0)
    assert np.allclose(N @ P0.y, 2.0 * G, atol=1e-9)
    assert np.allclose(N @ P0.y, [0.0, 2.0, -9.0], atol=1e-9)
    assert N[2, 2] == pytest.approx(0.0, abs=1e-12)  # G3 has no y3 dependence
    s = core.make_sample(EU, [0.3, 0.0], [1.0, 0.2])
    assert np.allclose(connections.nonlinear_connection(EU, s), 0.0, atol=1e-14)


def test_berwald_symmetry_and_contraction():
    Bw = connections.berwald_coeffs(EX, P0)
    assert np.max(np.abs(Bw - np.transpose(Bw, (0, 2, 1)))) <= 1e-10
    N = connections.nonlinear_connection(EX, P0)
    assert np.max(np.abs(np.einsum("ijk,k->ij", Bw, P0.y) - N)) \
        <= 1e-9 * max(1.0, np.max(np.abs(N)))
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.berwald_coeffs(EU, s), 0.0, atol=1e-14)


def test_curvature_antisymmetry_and_flat_space():
    R = connections.barthel_curvature(EX, P0)
    assert np.max(np.abs(R + np.transpose(R, (0, 2, 1)))) <= 1e-10 * max(
        1.0, np.max(np.abs(R)))
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.barthel_curvature(EU, s), 0.0, atol=1e-13)


def test_horizontal_derivative_of_n_against_finite_differences():
    """dN^i_k/dx^j from jets vs central differences of the N pipeline."""
    geo = connections.GeometryJets(EX, PA, 4, 2)
    n = 3
    dxN = np.array([[[geo.nonlinear_jets[i][k].diff_x(j).value
                      for j in range(n)] for k in range(n)] for i in range(n)])

    def N_component(i, k, j):
        def f(x, y):
            s = core.make_sample(EX, x, y)
            return connections.nonlinear_connection(EX, s)[i, k]
        mi = [0] * 6
        mi[j] = 1
        return fd_derivative(f, PA.x, PA.y, mi, step_scale=0.1)

    scale = max(1.0, np.max(np.abs(dxN)))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                assert abs(dxN[i, k, j] - N_component(i, k, j)) <= 1e-4 * scale


def test_cartan_coefficients_fixtures_and_compatibility():
    for s in (P0, PA):
        gamma = connections.cartan_hcoeffs(EX, s)
        x3 = s.x[2]
        assert gamma[0, 0, 2] == pytest.approx(1.0 / x3, rel=1e-10)
        assert gamma[1, 1, 2] == pytest.approx(1.0 / x3, rel=1e-10)
        assert gamma[2, 2, 2] == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) <= 1e-10
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.cartan_hcoeffs(EU, s), 0.0, atol=1e-14)


def test_cartan_metric_compatibility():
    md = core.metric_data(EX, PA)
    geo = connections.GeometryJets(EX, PA, 3, 1)
    gamma = geo.cartan()
    dg = geo.delta_metric()
    resid = dg - np.einsum("lik,lj->kij", gamma, md.g) \
        - np.einsum("ljk,il->kij", gamma, md.g)
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(dg)))


def test_concurrency_probe_example_sigma_plus_one():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 0])))
    batch, _ = core.sample_batch(EX, models.default_box(EX), 20, rng)
    rep = connections.concurrency_probe(EX, batch)
    assert rep.sigma == pytest.approx(1.0, abs=1e-10)
    assert rep.residual <= 1e-8
    assert rep.vcov_max <= 1e-10
    assert rep.defect <= 1e-8


def test_concurrency_probe_euclid_sigma_minus_one_exact():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 1])))
    batch, _ = core.sample_batch(EU, models.default_box(EU), 10, rng)
    rep = connections.concurrency_probe(EU, batch)
    assert abs(rep.sigma + 1.0) <= 1e-12
    assert rep.residual <= 1e-12


def test_concurrency_probe_constant_field_is_not_concurrent():
    m = expr.parse("name = flat\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 1\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 2])))
    batch, _ = core.sample_batch(m, models.default_box(EU), 10, rng)
    rep = connections.concurrency_probe(m, batch)
    assert rep.defect == pytest.approx(1.0, abs=1e-12)


def test_geodesic_euclid_straight_line():
    s0 = core.make_sample(EU, [0.0, 0.0], [1.0, 0.0])
    traj = connections.integrate_geodesic(EU, s0, 1.0, 1e-2)
    assert not traj.escaped
    assert np.allclose(traj.x[-1], [1.0, 0.0], atol=1e-12)
    assert traj.metric_drift() <= 1e-14


def test_geodesic_example_conserves_metric():
    traj = connections.integrate_geodesic(EX, P0, 0.1, 1e-3)
    assert not traj.escaped
    assert traj.metric_drift() <= 1e-6 * 0.1
    assert np.allclose(traj.F, math.sqrt(10), rtol=1e-6)


def test_geodesic_preconditions_and_escape():
    with pytest.raises(ValueError):
        connections.integrate_geodesic(EU, core.make_sample(EU, [0, 0], [1, 0]),
                                       1.0, 0.0)
    bad = core.make_sample(EX, [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DomainEscape):
        connections.integrate_geodesic(EX, bad, 1.0, 1e-3)
    # flat model with a wall at x1 = 1: the straight line hits it at t = 1
    m = expr.parse("name = walled\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = -x1\nphi2 = -x2\ndomain = y1^2 + y2^2\n"
                   "domain = 1 - x1\n")
    s0 = core.make_sample(m, [0.0, 0.0], [1.0, 0.0])
    traj = connections.integrate_geodesic(m, s0, 2.0, 1e-3)
    assert traj.escaped and traj.exit_time == pytest.approx(1.0, abs=2e-3)
    assert traj.t[-1] < 2.0


def test_trajectory_csv_columns():
    import io
    s0 = core.make_sample(EU, [0.0, 0.0], [1.0, 0.0])
    traj = connections.integrate_geodesic(EU, s0, 0.05, 1e-2)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == traj.t.shape[0] + 1
