"""Shipped models, fixture values, and the frozen fixture table."""

import numpy as np
import pytest

from finslerlab import connections, core, matsumoto, models
from finslerlab.core import metric_data
from finslerlab.errors import ModelSyntaxError


def test_builtin_models_parse_and_pass_homogeneity():
    loaded = models.builtin_models()
    assert [m.name for m in loaded] == ["matsumoto_example", "euclid_concurrent"]
    for m in loaded:
        box = models.default_box(m)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 0])))
        batch, _ = core.sample_batch(m, box, 5, rng)
        for s in batch:
            rep = core.homogeneity_report(m, s, core.metric_data(m, s))
            assert max(rep.F_residual, rep.g_residual, rep.C_residual) <= 1e-9


def test_load_model_by_name_and_path(tmp_path):
    assert models.load_model("euclid_concurrent").dim == 2
    p = tmp_path / "m.fmod"
    p.write_text("name = tiny\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                 "phi1 = 0\nphi2 = 0\n")
    assert models.load_model(str(p)).name == "tiny"
    with pytest.raises(FileNotFoundError):
        models.load_model("nope")


def test_load_model_refuses_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.fmod"
    p.write_bytes("name = café\ndim = 2\n".encode("latin-1"))
    with pytest.raises(ModelSyntaxError) as ei:
        models.load_model(str(p))
    assert str(p) in str(ei.value) and "not UTF-8" in str(ei.value) and ei.value.line == 1


def _engine_value(model, fx, name):
    """Recompute one fixture component with the jet engine."""
    s = core.make_sample(model, np.array(fx.x), np.array(fx.y))
    if name.startswith("ginv"):
        i, j = int(name[4]) - 1, int(name[5]) - 1
        return metric_data(model, s).ginv[i, j]
    if name.startswith("g") and len(name) == 3:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        return metric_data(model, s).g[i, j]
    if name.startswith("C"):
        i, j, k = (int(c) - 1 for c in name[1:])
        return metric_data(model, s).cartanC[i, j, k]
    if name.startswith("Gamma"):
        i, j, k = (int(c) - 1 for c in name[5:])
        return connections.GeometryJets(model, s, 3, 1).cartan[i, j, k]
    if name.startswith("G"):
        return connections.GeometryJets(model, s, 2, 1).spray[int(name[1]) - 1]
    if name in ("Phi", "p2", "margin"):
        sc = matsumoto.change_scalars(metric_data(model, s), model.oriented(+1), s)
        return getattr(sc, {"Phi": "Phi", "p2": "p2", "margin": "margin"}[name])
    if name == "theta" or name.startswith("a"):
        theta, a = models.decomposition_forms(model)(np.array(fx.x), np.array(fx.y))
        if name == "theta":
            return theta
        i, j = int(name[1]) - 1, int(name[2]) - 1
        return a[i, j]
    raise KeyError(name)


def test_every_fixture_value_reproduced_by_engine():
    by_name = {m.name: m for m in models.builtin_models()}
    for fx in models.fixtures():
        model = by_name[fx.model]
        for name, (expected, tol, _prov) in fx.values.items():
            got = _engine_value(model, fx, name)
            assert got == pytest.approx(expected, rel=tol, abs=tol), \
                (fx.model, fx.label, name, got, expected)


def test_fixture_provenance_tags_present():
    for fx in models.fixtures():
        for name, (_val, _tol, prov) in fx.values.items():
            assert prov in ("closed-form", "structural"), (fx.label, name, prov)


def test_fixture_table_file_matches_generator():
    shipped = (models._data_dir() / "fixtures" / "reference_values.txt").read_text()
    assert shipped == models.fixture_table()


def test_example_is_independent_of_x2():
    """No printed component involves x2; P0 and its x2-shifted twin agree."""
    fx = {f.label: f for f in models.fixtures() if f.model == "matsumoto_example"}
    a, b = fx["P0"], fx["P0x2"]
    assert a.x[1] != b.x[1]
    assert a.values == b.values


def test_inverse_metric_cross_check_p0():
    """Printed inverse components against LU inversion of the printed g."""
    fx = [f for f in models.fixtures()
          if f.model == "matsumoto_example" and f.label == "P0"][0]
    g = np.array([[fx.values["g11"][0], fx.values["g12"][0], 0.0],
                  [fx.values["g12"][0], fx.values["g22"][0], 0.0],
                  [0.0, 0.0, 1.0]])
    ginv = np.linalg.inv(g)
    assert fx.values["ginv22"][0] == pytest.approx(ginv[1, 1], rel=1e-12)
    assert fx.values["ginv22"][0] == pytest.approx(3.5 / 27.0, rel=1e-12)
    assert fx.values["ginv12"][0] == pytest.approx(ginv[0, 1], rel=1e-12)
    assert fx.values["C222"][0] == 12.0


def test_concurrency_of_both_shipped_models():
    by_name = {m.name: m for m in models.builtin_models()}
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 1])))
    for name, want, tol in (("matsumoto_example", 1.0, 1e-8),
                            ("euclid_concurrent", -1.0, 1e-12)):
        m = by_name[name]
        batch, _ = core.sample_batch(m, models.default_box(m), 10, rng)
        (probe, _), sigma = connections.concurrency_probe(m, [
            connections.phi_covariants(connections.GeometryJets(m, s, 4, 2))
            for s in batch])
        assert sigma == pytest.approx(want, abs=tol) and probe.residual <= tol


def _shipped_text(name):
    return (models._data_dir() / "models" / f"{name}.fmod").read_text()


def test_decomposition_forms_follow_F_not_the_name():
    """A renamed copy of the example keeps its closed forms; a flat F that
    borrows the example's name gets none, and its base entry is skipped."""
    from finslerlab import expr
    renamed = expr.parse(_shipped_text("matsumoto_example").replace(
        "name = matsumoto_example", "name = slope_copy"))
    impostor = expr.parse("name = matsumoto_example\ndim = 3\n"
                          "F = sqrt(y1^2 + y2^2 + y3^2)\nphi1 = 0\nphi2 = 0\nphi3 = x3\n"
                          "domain = x3^2\ndomain = y1^2\n")
    assert models.decomposition_forms(renamed) is models._example_decomposition
    assert models.decomposition_forms(impostor) is None
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 1])))
    for model, kind in ((renamed, "identity"), (impostor, "skipped")):
        batch, _ = core.sample_batch(model, models.default_box(model), 4, rng)
        base, _ = matsumoto.rational_decomposition_check(model.oriented(-1), batch)
        assert base.kind == kind
        assert base.passed is not False


def test_default_box_reads_the_model_file():
    """The shipped Euclid file declares its box; a renamed copy samples the
    same box, and a model without a box line gets [0.5, 2] everywhere."""
    from finslerlab import expr
    eu = models.builtin_model("euclid_concurrent")
    copy = expr.parse(_shipped_text("euclid_concurrent").replace(
        "name = euclid_concurrent", "name = flat_copy"))
    expected = np.array([[-0.75, 0.75]] * 2 + [[0.5, 2.0]] * 2)
    assert np.array_equal(models.default_box(eu), expected)
    assert np.array_equal(models.default_box(copy), expected)
    assert np.array_equal(models.default_box(models.builtin_model("matsumoto_example")),
                          np.full((6, 2), [0.5, 2.0]))

