"""Metric layer: fixtures, invariants, homogeneity, sampling."""

import math

import numpy as np
import pytest

from finslerlab import core, expr, models
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
    rep = core.homogeneity_report(EX, P0)
    assert max(rep.F_residual, rep.g_residual, rep.C_residual) <= 1e-9
    s = core.make_sample(EU, [0.0, 0.0], [0.3, 0.4])
    rep = core.homogeneity_report(EU, s)
    assert max(rep.F_residual, rep.g_residual, rep.C_residual) <= 1e-14


def test_homogeneity_flags_non_homogeneous_metric():
    m = expr.parse("name = broken\ndim = 2\nF = y1^2 + y2^2 + 1\n"
                   "phi1 = 0\nphi2 = 0\n")
    s = core.make_sample(m, [0.0, 0.0], [1.3, 0.7])
    rep = core.homogeneity_report(m, s)
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
