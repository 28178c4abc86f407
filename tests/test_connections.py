"""Spray, connections, curvature, the concurrency probe, geodesics."""

import math

import numpy as np
import pytest

from finslerlab import connections, core, expr, harness, models
from finslerlab.errors import DomainEscape
from finslerlab.matsumoto import HatEnergy
from finslerlab.numkit import Jet, fd_derivative, jet_space

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
    assert np.allclose(connections.GeometryJets(EX, P0, 2, 1).spray, [0.0, 1.0, -4.5],
                       atol=1e-12)
    for s in (P0, PA):
        got = connections.GeometryJets(EX, s, 2, 1).spray
        want = _closed_form_spray(s.x, s.y)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_spray_euclidean_vanishes():
    s = core.make_sample(EU, [0.4, -0.2], [1.0, 0.7])
    assert np.allclose(connections.GeometryJets(EU, s, 2, 1).spray, 0.0, atol=1e-14)


def test_spray_degree_two_homogeneity():
    s2 = core.make_sample(EX, P0.x, 2.0 * P0.y)
    G1 = connections.GeometryJets(EX, P0, 2, 1).spray
    G2 = connections.GeometryJets(EX, s2, 2, 1).spray
    assert np.max(np.abs(G2 - 4.0 * G1)) <= 1e-9 * max(1.0, np.max(np.abs(G2)))


def test_spray_defining_linear_system():
    md = core.metric_data(EX, PA)
    geo = connections.GeometryJets(EX, PA, 2, 1)
    rhs = connections.spray_system(geo.E, PA.y)
    lhs = md.g @ (2.0 * connections.GeometryJets(EX, PA, 2, 1).spray)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_nonlinear_connection_euler_and_sparsity():
    N = connections.GeometryJets(EX, P0, 3, 1).nonlinear
    G = connections.GeometryJets(EX, P0, 2, 1).spray
    assert np.allclose(N @ P0.y, 2.0 * G, atol=1e-9)
    assert np.allclose(N @ P0.y, [0.0, 2.0, -9.0], atol=1e-9)
    assert N[2, 2] == pytest.approx(0.0, abs=1e-12)  # G3 has no y3 dependence
    s = core.make_sample(EU, [0.3, 0.0], [1.0, 0.2])
    assert np.allclose(connections.GeometryJets(EU, s, 3, 1).nonlinear, 0.0, atol=1e-14)


def test_berwald_symmetry_and_contraction():
    Bw = connections.GeometryJets(EX, P0, 4, 1).berwald
    assert np.max(np.abs(Bw - np.transpose(Bw, (0, 2, 1)))) <= 1e-10
    N = connections.GeometryJets(EX, P0, 3, 1).nonlinear
    assert np.max(np.abs(np.einsum("ijk,k->ij", Bw, P0.y) - N)) \
        <= 1e-9 * max(1.0, np.max(np.abs(N)))
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.GeometryJets(EU, s, 4, 1).berwald, 0.0, atol=1e-14)


def test_curvature_antisymmetry_and_flat_space():
    R = connections.GeometryJets(EX, P0, 4, 2).curvature
    assert np.max(np.abs(R + np.transpose(R, (0, 2, 1)))) <= 1e-10 * max(
        1.0, np.max(np.abs(R)))
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.GeometryJets(EU, s, 4, 2).curvature, 0.0, atol=1e-13)


def test_horizontal_derivative_of_n_against_finite_differences():
    """dN^i_k/dx^j from jets vs central differences of the N pipeline."""
    geo = connections.GeometryJets(EX, PA, 4, 2)
    n = 3
    dxN = np.array([[[geo.nonlinear_jets[i][k].diff_x(j).value
                      for j in range(n)] for k in range(n)] for i in range(n)])

    def N_component(i, k, j):
        def f(x, y):
            s = core.make_sample(EX, x, y)
            return connections.GeometryJets(EX, s, 3, 1).nonlinear[i, k]
        mi = [0] * 6
        mi[j] = 1
        return fd_derivative(f, PA.x, PA.y, mi, step_scale=0.1)

    scale = max(1.0, np.max(np.abs(dxN)))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                assert abs(dxN[i, k, j] - N_component(i, k, j)) <= 1e-4 * scale


@pytest.mark.parametrize("model, x, y", [
    (EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]),
    (EU, [0.3, -0.2], [1.1, 0.7]),
], ids=["matsumoto_example", "euclid_concurrent"])
@pytest.mark.parametrize("which", ["base", "hat"])
def test_partials_reads_equal_the_diff_chain_reads(model, x, y, which):
    """Every derivative the geometry reads with one `Jet.partials` gather has
    the bits of differentiating with `Jet.diff` and reading the value: first
    y, first x, second y, and the mixed (1 x, 2 y) read of `delta_metric`."""
    s = core.make_sample(model, x, y)
    energy = model if which == "base" else HatEnergy(model.oriented(-1))
    geo = connections.GeometryJets(energy, s, 4, 2)
    n = geo.n
    xs, ys = range(n), range(n, 2 * n)

    def same(got, want):
        assert got.tobytes() == np.array(want, dtype=float).tobytes()

    for J in [Nik for row in geo.nonlinear_jets for Nik in row]:
        same(J.partials(ys), [J.diff_y(j).value for j in range(n)])
        same(J.partials(xs), [J.diff_x(j).value for j in range(n)])
    for J in [geo.F_jet, *geo.spray_jets]:
        same(J.partials(ys, ys), [[J.diff_y(i).diff_y(j).value for j in range(n)]
                                  for i in range(n)])
    dxg = np.array([core.metric_tensor(geo.E.diff_x(k)) for k in range(n)])
    same(geo.E.partials(xs, ys, ys), dxg)
    same(geo.delta_metric,
         dxg - 2.0 * np.einsum("mk,mij->kij", geo.nonlinear, geo.cartan_torsion))


def test_cartan_coefficients_fixtures_and_compatibility():
    for s in (P0, PA):
        gamma = connections.GeometryJets(EX, s, 3, 1).cartan
        x3 = s.x[2]
        assert gamma[0, 0, 2] == pytest.approx(1.0 / x3, rel=1e-10)
        assert gamma[1, 1, 2] == pytest.approx(1.0 / x3, rel=1e-10)
        assert gamma[2, 2, 2] == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) <= 1e-10
    s = core.make_sample(EU, [0.1, 0.2], [0.8, 0.6])
    assert np.allclose(connections.GeometryJets(EU, s, 3, 1).cartan, 0.0, atol=1e-14)


def test_cartan_metric_compatibility():
    md = core.metric_data(EX, PA)
    geo = connections.GeometryJets(EX, PA, 3, 1)
    gamma = geo.cartan
    dg = geo.delta_metric
    resid = dg - np.einsum("lik,lj->kij", gamma, md.g) \
        - np.einsum("ljk,il->kij", gamma, md.g)
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(dg)))


@pytest.mark.parametrize("name", [
    "metric", "metric_inverse", "cartan_torsion", "spray", "nonlinear", "berwald",
    "curvature", "delta_metric", "cartan", "phi"])
def test_every_value_read_is_computed_once(name):
    geo = connections.GeometryJets(EX, P0, 4, 2)
    assert getattr(geo, name) is getattr(geo, name)


def test_core_suite_reads_the_cartan_torsion_once_per_sample(monkeypatch):
    """`cartan`, `delta_metric` and the concurrency covariants share one
    Cartan torsion per core sample."""
    calls = []
    cartan_tensor = connections.cartan_tensor
    monkeypatch.setattr(connections, "cartan_tensor",
                        lambda E: calls.append(E) or cartan_tensor(E))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 1])))
    batch, _ = core.sample_batch(EU, models.default_box(EU), 10, rng)
    harness.run_core_suite(EU, batch)
    assert len(calls) == 10


def test_jet_solve_skips_a_row_whose_valid_slots_are_zero():
    c = jet_space(1, 2, 0).constant
    # valid to y-order 1, where it is zero; its y-order-2 slot is not
    f = Jet(c(0.0).space, np.array([0.0, 0.0, 5.0]), 1, 0)
    x = connections._jet_solve([[c(2.0), c(0.0)], [f, c(4.0)]], [c(1.0), c(1.0)])
    assert [e.value for e in x] == [0.5, 0.25]
    # a row op would have lowered row 1 to f's validity
    assert (x[1].y_valid, x[1].x_valid) == (2, 0)


@pytest.mark.parametrize("model, x, y", [
    (EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]),
    (EU, [0.3, -0.2], [1.1, 0.7]),
], ids=["matsumoto_example", "euclid_concurrent"])
@pytest.mark.parametrize("which", ["base", "hat"])
def test_spray_jets_solve_the_defining_system_on_every_valid_slot(model, x, y, which):
    """sum_j g_ij (2 G^j) = y^k d^2E/dy^i dx^k - dE/dx^i as jets, not only at
    the value slot, on the (2, 1) orders a (4, 2) geometry's spray is valid to;
    `ginv_jets` inverts g on the same slots."""
    s = core.make_sample(model, x, y)
    energy = model if which == "base" else HatEnergy(model.oriented(-1))
    geo = connections.GeometryJets(energy, s, 4, 2)
    n, E, g = geo.n, geo.E, geo.g_jets
    for i in range(n):
        S_i = sum((geo.coords[n + k] * E.diff_y(i).diff_x(k) for k in range(n)),
                  -E.diff_x(i))
        lhs = sum((g[i][j] * (2.0 * geo.spray_jets[j]) for j in range(1, n)),
                  g[i][0] * (2.0 * geo.spray_jets[0]))
        resid = lhs - S_i
        valid = geo.space._valid_slots(resid.y_valid, resid.x_valid)
        assert (resid.y_valid, resid.x_valid) == (2, 1)
        assert np.max(np.abs(resid.coeffs[valid])) <= 1e-12 * max(
            1.0, np.max(np.abs(S_i.coeffs[valid])))
        for j in range(n):
            e_ij = sum((geo.ginv_jets[i][m] * g[m][j] for m in range(1, n)),
                       geo.ginv_jets[i][0] * g[0][j]) - float(i == j)
            valid = geo.space._valid_slots(e_ij.y_valid, e_ij.x_valid)
            assert np.max(np.abs(e_ij.coeffs[valid])) <= 1e-12


def test_spray_jets_build_makes_at_most_26_jet_products(monkeypatch):
    """One (4, 2) spray build at the example's P0 eliminates only right of each
    pivot, on g and the right-hand side, and multiplies no inverse by it."""
    geo = connections.GeometryJets(EX, P0, 4, 2)
    geo.g_jets
    calls = [0]
    mul = Jet.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    geo.spray_jets
    assert calls[0] <= 26


def _probe(model, batch):
    """The probe over (4,2) geometries, as the core suite builds them."""
    return connections.concurrency_probe(model, [
        connections.phi_covariants(connections.GeometryJets(model, s, 4, 2))
        for s in batch])


def test_concurrency_probe_example_sigma_plus_one():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 0])))
    batch, _ = core.sample_batch(EX, models.default_box(EX), 20, rng)
    (probe, phic), sigma = _probe(EX, batch)
    assert sigma == pytest.approx(1.0, abs=1e-10)
    assert probe.name == "concurrency-probe" and probe.passed
    assert probe.residual <= 1e-8 and probe.n_samples == 20
    assert phic.name == "concurrency-vertical-contraction" and phic.passed
    assert phic.residual <= 1e-10


def test_concurrency_probe_euclid_sigma_minus_one_exact():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 1])))
    batch, _ = core.sample_batch(EU, models.default_box(EU), 10, rng)
    (probe, _), sigma = _probe(EU, batch)
    assert abs(sigma + 1.0) <= 1e-12
    assert probe.residual <= 1e-12


def test_concurrency_probe_constant_field_is_not_concurrent():
    m = expr.parse("name = flat\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = 1\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 2])))
    batch, _ = core.sample_batch(m, models.default_box(EU), 10, rng)
    (probe, phic), sigma = _probe(m, batch)
    # hcov = 0 fits sigma = 0 exactly; the probe measures against +-identity
    assert sigma == 0.0
    assert probe.passed is False
    assert probe.residual == pytest.approx(1.0, abs=1e-12)
    assert phic.passed  # phi^k C_kij = 0 holds for any field on a flat metric


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
    assert traj.escape_reason == "left the domain"
    assert traj.escaped and traj.exit_time == pytest.approx(1.0, abs=2e-3)
    assert traj.t[-1] < 2.0


@pytest.mark.parametrize("tol", [-1e-9, 0.0, math.nan, math.inf])
def test_geodesic_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    """A negative tolerance would accept every step and a NaN one reject every
    step; both are refused, as a zero or infinite one."""
    with pytest.raises(ValueError, match="tol must be"):
        connections.integrate_geodesic(HatEnergy(EX.oriented(-1)), P0, 0.05, 1e-3, tol=tol)


def test_trajectory_csv_columns():
    import io
    s0 = core.make_sample(EU, [0.0, 0.0], [1.0, 0.0])
    traj = connections.integrate_geodesic(EU, s0, 0.05, 1e-2)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == traj.t.shape[0] + 1


def _count_spray_calls(monkeypatch):
    calls = [0]
    spray_rhs = connections._spray_rhs

    def counting(*args):
        calls[0] += 1
        return spray_rhs(*args)

    monkeypatch.setattr(connections, "_spray_rhs", counting)
    return calls


# the criterion-9 starts: P0 with phi negated, and a generic flat start
@pytest.mark.parametrize("energy, s0, share", [
    pytest.param(HatEnergy(EX.oriented(-1)), P0, 1 / 10, id="example-hat-P0"),
    pytest.param(HatEnergy(EU.oriented(+1)),
                 core.make_sample(EU, [0.2, 0.1], [1.0, 0.3]), 1 / 20, id="flat-hat"),
])
def test_step_controlled_geodesic_takes_fewer_spray_evaluations(energy, s0, share,
                                                                 monkeypatch):
    """With a local-error tolerance the run still reaches t = 1 and conserves
    the metric value, on a fraction of the fixed-step run's spray calls (the
    example flow's acceleration is large enough that it needs about 0.07)."""
    calls = _count_spray_calls(monkeypatch)
    fixed = connections.integrate_geodesic(energy, s0, 1.0, 1e-3)
    fixed_calls, calls[0] = calls[0], 0
    traj = connections.integrate_geodesic(energy, s0, 1.0, 1e-3, tol=1e-9)
    assert not fixed.escaped and not traj.escaped
    assert traj.t[-1] == 1.0 and np.all(np.diff(traj.t)[:-1] >= 1e-3)
    assert fixed_calls == 4000 and calls[0] < share * fixed_calls
    assert traj.metric_drift() <= 1e-9


def test_embedded_pair_orders():
    """On a smooth system, halving h cuts the one-step error of the kept
    Dormand-Prince update about 64-fold (order 5) and of its embedded
    companion about 32-fold (order 4); the last stage is rhs at the update."""
    def f(z):
        return np.array([z[1], -math.sin(z[0]) + 0.3 * z[0] * z[1]])

    z0 = np.array([0.7, 0.4])

    def reference(h):
        z = z0
        for _ in range(2000):
            z = connections._rk4_step(f, z, f(z), h / 2000)
        return z

    errs = []
    for h in (0.2, 0.1, 0.05):
        z5, dz, k_last = connections._dopri_step(f, z0, f(z0), h)
        assert np.array_equal(k_last, f(z5))
        zr = reference(h)
        errs.append((np.max(np.abs(z5 - zr)), np.max(np.abs(z5 - dz - zr))))
    for (e5, e4), (f5, f4) in zip(errs, errs[1:]):
        assert 56 <= e5 / f5 <= 80
        assert 28 <= e4 / f4 <= 36


def test_step_controlled_geodesic_stops_at_a_wall_on_the_floor_step():
    """A step that would cross the domain wall is retried shorter down to the
    floor, so the exit is found to within one floor step, as with fixed steps."""
    m = expr.parse("name = walled\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                   "phi1 = -x1\nphi2 = -x2\ndomain = y1^2 + y2^2\n"
                   "domain = 1 - x1\n")
    s0 = core.make_sample(m, [0.0, 0.0], [1.0, 0.0])
    traj = connections.integrate_geodesic(m, s0, 2.0, 1e-3, tol=1e-9)
    assert traj.escape_reason == "left the domain"
    assert traj.exit_time == pytest.approx(1.0, abs=1e-3) and traj.t[-1] < 1.0
    assert traj.exit_time - traj.t[-1] == pytest.approx(1e-3)


def test_step_controlled_geodesic_costs_no_more_near_the_hat_degeneracy(monkeypatch):
    """The seed-42 changed-metric start at +1 runs into the degeneracy, where
    retries fall to the floor: it stops on the same guard as the fixed-step
    run, at about the same time, on fewer spray evaluations, because longer
    steps are tried again only after a growing number of floor steps."""
    s0 = core.make_sample(EX, [0.5157737551187723, 0.9799626422102767, 1.3376096710950822],
                          [0.505451882186293, 0.6758014313418661, 1.8937552173927672])
    energy = HatEnergy(EX.oriented(+1))
    calls = _count_spray_calls(monkeypatch)
    fixed = connections.integrate_geodesic(energy, s0, 1.0, 1e-3)
    fixed_calls, calls[0] = calls[0], 0
    traj = connections.integrate_geodesic(energy, s0, 1.0, 1e-3, tol=1e-9)
    assert traj.escape_reason == fixed.escape_reason == "first-integral jump"
    assert traj.exit_time == pytest.approx(fixed.exit_time, abs=2e-3)
    assert calls[0] < 0.8 * fixed_calls
