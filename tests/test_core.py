"""Metric layer: fixtures, invariants, homogeneity, sampling."""

import math

import numpy as np
import pytest

from finslerlab import core, expr, models, numkit
from finslerlab.errors import DomainEscape, SingularMetric
from finslerlab.report import PairAccumulator, SuiteReport

EX = models.builtin_model("matsumoto_example")
EU = models.builtin_model("euclid_concurrent")
P0 = core.make_sample(EX, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])


def test_metric_data_example_at_p0():
    md = core.metric_data(EX, P0)
    assert md.F == pytest.approx(math.sqrt(10), rel=1e-14)
    assert md.E == pytest.approx(5.0, rel=1e-14)
    want = np.array([[7.0, -10.0, 0.0], [-10.0, 22.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(md.g, want, rtol=1e-12, atol=1e-12)
    assert md.cartanC[0, 0, 0] == pytest.approx(-12.0, rel=1e-12)
    assert md.cartanC[1, 1, 1] == pytest.approx(12.0, rel=1e-12)
    assert np.allclose(md.g @ md.ginv, np.eye(3), atol=1e-12)


def test_metric_data_euclidean():
    s = core.make_sample(EU, [0.2, -0.4], [0.6, 0.8])
    md = core.metric_data(EU, s)
    assert np.allclose(md.g, np.eye(2), atol=1e-14)
    assert np.allclose(md.cartanC, 0.0, atol=1e-14)
    assert np.allclose(md.ell, np.array([0.6, 0.8]), atol=1e-14)


def test_supporting_form_two_routes_and_angular_kernel():
    s = core.make_sample(EX, [0.7, 0.3, 1.4], [1.2, 0.8, 0.5])
    md = core.metric_data(EX, s)
    assert np.allclose(md.ell, md.g @ s.y / md.F, atol=1e-10)
    assert float(md.ell @ s.y) == pytest.approx(md.F, rel=1e-12)
    hnorm = np.max(np.abs(md.hbar)) * np.max(np.abs(s.y))
    assert np.max(np.abs(md.hbar @ s.y)) <= 1e-9 * max(1.0, hnorm)
    # total symmetry of the torsion and its radial kernel
    C = md.cartanC
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.allclose(C, np.transpose(C, perm), atol=1e-10)
    assert np.max(np.abs(np.einsum("ijk,i->jk", C, s.y))) <= 1e-10 * max(
        1.0, np.max(np.abs(C)))


def test_metric_requires_in_domain_sample():
    s = core.make_sample(EX, [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])  # x1 = 0
    assert not s.ok
    with pytest.raises(DomainEscape):
        core.metric_data(EX, s)


def test_zero_direction_is_rejected():
    s = core.make_sample(EU, [0.1, 0.1], [0.0, 0.0])
    assert not s.ok
    with pytest.raises(DomainEscape):
        core.metric_data(EU, s)


def test_singular_metric_detected():
    # F = |y1| in disguise: energy depends on one direction only
    m = expr.parse("name = degen\ndim = 2\nF = sqrt(y1^2 + 0*y2)\n"
                   "phi1 = 0\nphi2 = 0\ndomain = y1^2\n")
    s = core.make_sample(m, [0.0, 0.0], [1.0, 0.5])
    with pytest.raises(SingularMetric):
        core.metric_data(m, s)


def test_homogeneity_example_and_euclid():
    rep = core.homogeneity_report(EX, P0, core.metric_data(EX, P0))
    assert max(rep.F_residual, rep.g_residual, rep.C_residual) <= 1e-9
    s = core.make_sample(EU, [0.0, 0.0], [0.3, 0.4])
    rep = core.homogeneity_report(EU, s, core.metric_data(EU, s))
    assert max(rep.F_residual, rep.g_residual, rep.C_residual) <= 1e-14


def test_homogeneity_flags_non_homogeneous_metric():
    m = expr.parse("name = broken\ndim = 2\nF = y1^2 + y2^2 + 1\n"
                   "phi1 = 0\nphi2 = 0\n")
    s = core.make_sample(m, [0.0, 0.0], [1.3, 0.7])
    rep = core.homogeneity_report(m, s, core.metric_data(m, s))
    assert rep.F_residual > 1e-2


def test_sample_batch_is_deterministic_and_respects_domain():
    box = models.default_box(EX)
    r1 = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 0])))
    r2 = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 0])))
    b1, rej1 = core.sample_batch(EX, box, 20, r1)
    b2, rej2 = core.sample_batch(EX, box, 20, r2)
    assert rej1 == rej2
    for s1, s2 in zip(b1, b2):
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
        assert s1.ok


def test_sample_batch_rejection_counting():
    box = np.array([[-1.0, 1.0]] * 2 + [[0.5, 2.0]] * 2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 1])))
    batch, rejected = core.sample_batch(
        EU, box, 10, rng, predicate=lambda s: s.x[0] > 0.0)
    assert len(batch) == 10
    assert rejected > 0
    assert all(s.x[0] > 0.0 for s in batch)


def test_sample_batch_gives_up_eventually():
    box = models.default_box(EU)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 2])))
    with pytest.raises(DomainEscape):
        core.sample_batch(EU, box, 5, rng, predicate=lambda s: False)


@pytest.mark.parametrize("first, bad", [
    pytest.param(True, math.nan, id="nan-after-a-finite-sample"),
    pytest.param(True, math.inf, id="inf-after-a-finite-sample"),
    pytest.param(False, math.nan, id="nan-first"),
])
def test_non_finite_residual_fails_and_names_its_sample(first, bad):
    """A non-finite pair fails the identity at its sample, whatever came
    before or after it, and the rendered report holds no NaN or Infinity."""
    s_bad = core.make_sample(EU, [0.5, 0.0], [1.0, 0.0])
    acc = PairAccumulator("probe", 1e-9)
    if first:
        acc.add(P0, [1.0], [1.0])
    acc.add(s_bad, [bad], [1.0])
    acc.add(P0, [2.0], [1.0])
    res = acc.result()
    assert res.passed is False and res.residual is None and res.n_samples == 2 + first
    assert res.worst_sample["x"] == [0.5, 0.0] and "non-finite" in res.note
    text = SuiteReport("m", "+1", 0, 1, identities=[res]).to_json()
    assert "NaN" not in text and "Infinity" not in text


# --------------------------------------------------------------------------
# the energy provider's last jet
# --------------------------------------------------------------------------

# (built, requested) orders: the change suite's base geometry off the hat's
# base jet, with and without curvature, and lower reads in one and in both
# blocks
RESTRICTIONS = [((5, 2), (4, 2)), ((5, 1), (4, 1)), ((3, 1), (2, 1)), ((5, 2), (3, 0))]


def _count_jet_evaluations(model, monkeypatch):
    """Spaces of the model's F^2 evaluations on jets, as they happen."""
    builds = []
    f2 = model.F2_fn

    def counted(xs, ys):
        if isinstance(xs[0], numkit.Jet):
            builds.append(xs[0].space)
        return f2(xs, ys)

    monkeypatch.setattr(model, "F2_fn", counted)
    return builds


@pytest.mark.parametrize("model", [EX, EU], ids=lambda m: m.name)
def test_restricted_energy_jets_equal_direct_builds_bit_for_bit(model):
    """A restricted jet has the space, validity and coefficient bits (sign of
    zero included) of a fresh build at the lower orders."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 0])))
    batch, _ = core.sample_batch(model, models.default_box(model), 12, rng)
    for s in batch:
        for big, small in RESTRICTIONS:
            got = core.ModelEnergy(model).energy_jet(s, *big).restrict(*small)
            want = core.ModelEnergy(model).energy_jet(s, *small)
            assert got.space is want.space
            assert (got.y_valid, got.x_valid) == (want.y_valid, want.x_valid)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_provider_serves_its_last_jet_at_the_same_point_and_lower_orders(monkeypatch):
    builds = _count_jet_evaluations(EX, monkeypatch)
    energy = core.ModelEnergy(EX)
    E = energy.energy_jet(P0, 5, 2)
    assert energy.energy_jet(P0, 5, 2) is E
    for orders in [(4, 2), (5, 0), (3, 1), (0, 0)]:
        assert (energy.energy_jet(P0, *orders).space.y_order,
                energy.energy_jet(P0, *orders).space.x_order) == orders
    assert len(builds) == 1
    # a request past the kept orders in either block builds anew, and is kept
    energy.energy_jet(P0, 3, 3)
    energy.energy_jet(P0, 2, 3)
    assert [(sp.y_order, sp.x_order) for sp in builds] == [(5, 2), (3, 3)]
    # so does a point whose bytes differ, if only in the sign of a zero
    energy.energy_jet(core.make_sample(EX, [1.0, -0.0, 1.0], [1.0, 1.0, 1.0]), 1, 0)
    assert len(builds) == 3
    # and a fresh provider keeps nothing
    core.ModelEnergy(EX).energy_jet(P0, 1, 0)
    assert len(builds) == 4


def test_provider_hands_out_the_coordinate_jets_of_its_last_build():
    energy = core.ModelEnergy(EX)
    E = energy.energy_jet(P0, 3, 1)
    coords = energy.coordinates(P0, E.space)
    assert energy.coordinates(P0, E.space) is coords
    fresh = E.space.lift(P0.x, P0.y)
    assert [c.coeffs.tobytes() for c in coords] == [c.coeffs.tobytes() for c in fresh]
    other = numkit.jet_space(3, 2, 1)
    assert energy.coordinates(P0, other) is not coords
    assert energy.coordinates(P0, other)[0].space is other
