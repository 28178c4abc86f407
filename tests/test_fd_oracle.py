"""The finite-difference oracle's batched evaluation against a point-by-point
Ridders loop over `fd_derivative`, kept here as the reference."""

import math
import re

import numpy as np
import pytest

from finslerlab import core, expr, harness, models
from finslerlab.core import ModelEnergy
from finslerlab.errors import DomainEscape, EvalError
from finslerlab.numkit import FD_STEP, Jet, fd_derivative, fd_stencils
from finslerlab.report import PairAccumulator

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EX = models.load_model("matsumoto_example")
EU = models.load_model("euclid_concurrent")


def _ridders_fd(fn, x, y, m, in_domain):
    """One partial by Ridders' refinement, one `fd_derivative` call per level
    and one `fn` call per stencil point, stopping as `harness._ridders` does."""
    con2 = harness.RIDDERS_CON * harness.RIDDERS_CON
    levels = harness.RIDDERS_LEVELS
    tableau = [[None] * levels for _ in range(levels)]
    best = None
    err = math.inf
    for i in range(levels):
        scale = harness.RIDDERS_START_SCALE / harness.RIDDERS_CON**i
        tableau[0][i] = fd_derivative(fn, x, y, m, in_domain=in_domain, step_scale=scale)
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


def _reference_fd_suite(model, s_batch):
    """`harness.run_fd_suite` as a point-by-point loop: every stencil point is
    screened through `model.in_domain` and evaluated on floats."""
    energy = ModelEnergy(model)
    multi = list(fd_stencils(model.dim).index)
    acc = PairAccumulator("jet-vs-fd-oracle", harness.CORE_TOLERANCES["jet-vs-fd-oracle"])
    skipped = 0

    def fval(x, y):
        return math.sqrt(max(model.F2_fn(x, y), 0.0))

    for s in s_batch:
        F2j = 2.0 * energy.energy_jet(s, 3, 3)
        for fn, jet in ((model.F2_fn, F2j), (fval, F2j.sqrt())):
            jets, fds = [], []
            for m, jv in zip(multi, jet.partials_at(multi)):
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


def _level_scale(level):
    return harness.RIDDERS_START_SCALE / harness.RIDDERS_CON**level


def _assert_finite(res):
    assert res.residual is not None and math.isfinite(res.residual)
    assert np.all(np.isfinite(res.predicted_worst + res.direct_worst))


@pytest.mark.parametrize("model", [EX, EU], ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [42, 7])
def test_fd_suite_matches_the_point_by_point_reference(model, seed):
    """Residual, worst sample, sample count and note: every field of the
    entry equals the reference's, on a `verify` core batch."""
    batch, _ = core.sample_batch(model, models.default_box(model), harness.FD_SAMPLES,
                                 harness._rng(seed, harness._STREAM_CORE))
    got = harness.run_fd_suite(model, batch)
    assert got == _reference_fd_suite(model, batch)
    _assert_finite(got[0])


def _crossing_sample(level):
    """A matsumoto_example sample whose third-order stencils that move y1 put a
    point exactly on y1 = 0 at `level`."""
    h = FD_STEP * 80.0 * _level_scale(level)
    s = core.make_sample(EX, [1.0, 0.3, 1.0], [h, 1.0, 1.0])
    assert np.any(s.y[0] + fd_stencils(3, _level_scale(level)).offset[:, 3] == 0.0)
    return s


def test_fd_suite_skips_as_the_reference_where_stencils_cross_y1_zero():
    """A point on y1 = 0 at level 0 is reached and skips its stencils, with the
    reference's count and note; one at level 7, which the early stop never
    reaches, counts as no skip."""
    regular, _ = core.sample_batch(EX, models.default_box(EX), 3, harness._rng(42, 0))
    batch = regular[:2] + [_crossing_sample(0), regular[2], _crossing_sample(7)]
    got = harness.run_fd_suite(EX, batch)
    assert got == _reference_fd_suite(EX, batch)
    assert got[0].note == "42 stencil evaluations skipped at the domain boundary"
    _assert_finite(got[0])
    assert harness.run_fd_suite(EX, [_crossing_sample(7)])[0].note == ""


def test_fd_suite_screens_with_a_constraint_that_raises():
    """A constraint whose guard fires at some stencil points (log of y1 <= 0)
    marks them outside the domain, point by point, as `in_domain` does."""
    model = expr.parse(
        "name = logdomain\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
        "phi1 = -x1\nphi2 = -x2\ndomain = log(y1) + 20\n")
    batch = [core.make_sample(model, [0.1, 0.2], [y1, 0.7]) for y1 in (0.5, 3e-3, 1e-3)]
    got = harness.run_fd_suite(model, batch)
    assert got == _reference_fd_suite(model, batch)
    assert got[0].note.endswith("skipped at the domain boundary")


def _pole_model(level):
    """A model whose F^2 divides by (y1 - c), with c the y1 coordinate of a
    first-order stencil point at `level` around the sample returned with it."""
    s = core.make_sample(EU, [0.1, 0.2], [0.9, 0.6])
    j = fd_stencils(2).index[(0, 0, 1, 0)]
    st = fd_stencils(2, _level_scale(level))
    c = float(s.y[0] + st.offset[st.start[j], 2])
    model = expr.ModelDef(
        name="pole", dim=2,
        F=expr.parse_expression("sqrt(y1^2 + y2^2 + 1e-12/(y1 - c)^2)"),
        phi=(expr.parse_expression("-x1"), expr.parse_expression("-x2")),
        domain=(expr.parse_expression("y1^2 + y2^2"),), params={"c": c})
    return model, core.make_sample(model, s.x, s.y)


@pytest.mark.parametrize("level", range(harness.RIDDERS_LEVELS))
def test_eval_error_at_a_reached_in_domain_point_propagates(level):
    """A guard at an in-domain stencil point raises the reference's EvalError
    when the tableau reaches its level (level 0 always is), and changes
    nothing when it does not."""
    model, s = _pole_model(level)
    try:
        want = _reference_fd_suite(model, [s])
    except EvalError as e:
        with pytest.raises(EvalError, match=re.escape(str(e))):
            harness.run_fd_suite(model, [s])
        return
    assert level > 0
    assert harness.run_fd_suite(model, [s]) == want


def test_fd_suite_makes_one_array_call_per_sample(monkeypatch):
    """The oracle evaluates F^2 once per sample on arrays of stencil points,
    never point by point (the energy jets make the other calls)."""
    model = models.load_model("matsumoto_example")
    calls = []
    f2 = model.F2_fn

    def counted(xs, ys):
        calls.append(type(xs[0]))
        return f2(xs, ys)

    monkeypatch.setattr(model, "F2_fn", counted)
    batch, _ = core.sample_batch(model, models.default_box(model), 4, harness._rng(42, 0))
    harness.run_fd_suite(model, batch)
    float_calls = [t for t in calls if t is not Jet]
    assert 0 < len(float_calls) <= len(batch)
    assert all(t is np.ndarray for t in float_calls)
