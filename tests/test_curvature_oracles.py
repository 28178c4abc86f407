"""The curvature layer against metrics of known constant flag curvature.

For a metric of constant flag curvature K, the curvature of the repository's
convention, R^i_jk = delta_j N^i_k - delta_k N^i_j, satisfies
R^i_jk y^k = K (F^2 delta^i_j - y^i y_j) with y_j = g_jk y^k (Bao, Chern &
Shen, GTM 200; Shen, Lectures on Finsler Geometry, 2001).  The three metrics
below are model files under tests/data: the stereographic sphere (K = 1), the
Poincare disc (K = -1) and the Funk metric of the unit disc (K = -1/4), which
is not Riemannian.  The Funk spray is G^i = F y^i / 2, which also fixes its
Berwald coefficients.  None of these values comes from the engine's output.
"""

from pathlib import Path

import numpy as np
import pytest

from finslerlab import connections, core, models

DATA = Path(__file__).parent / "data"
CONSTANT_CURVATURE = {"sphere_stereographic": 1.0, "poincare_disc": -1.0,
                      "funk_disc": -0.25}
# points inside the unit disc, directions of both signs
BOX = np.array([[-0.6, 0.6]] * 2 + [[-1.5, 1.5]] * 2)
TOL = 1e-12


def _load(name):
    return models.load_model(str(DATA / f"{name}.fmod"))


def _samples(model, count=6):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, 1])))
    batch, _ = core.sample_batch(model, BOX, count, rng)
    return [core.make_sample(model, [0.3, -0.2], [0.7, 0.4]), *batch]


def _rel(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def check_flag_curvature(model, K):
    """R^i_jk y^k = K (F^2 delta^i_j - y^i y_j) at every sample."""
    for s in _samples(model):
        geo = connections.GeometryJets(model, s, 4, 2)
        md, y = geo.md, s.y
        want = K * (md.F ** 2 * np.eye(model.dim) - np.outer(y, md.g @ y))
        got = np.einsum("ijk,k->ij", geo.curvature(), y)
        assert _rel(got, want) <= TOL, (s.x, s.y)


@pytest.mark.parametrize("name, K", CONSTANT_CURVATURE.items())
def test_curvature_of_constant_flag_curvature_metrics(name, K):
    check_flag_curvature(_load(name), K)


def test_funk_spray_and_berwald_coefficients():
    """G^i = F y^i / 2, so G^i_jk = (F_jk y^i + F_j delta^i_k + F_k delta^i_j) / 2
    with F_j = l_j and F_jk = hbar_jk / F."""
    model = _load("funk_disc")
    eye = np.eye(model.dim)
    for s in _samples(model):
        geo = connections.GeometryJets(model, s, 4, 1)
        md, y = geo.md, s.y
        assert _rel(geo.spray(), 0.5 * md.F * y) <= TOL
        want = 0.5 * (np.einsum("jk,i->ijk", md.hbar / md.F, y)
                      + np.einsum("j,ik->ijk", md.ell, eye)
                      + np.einsum("k,ij->ijk", md.ell, eye))
        assert _rel(geo.berwald(), want) <= TOL


def test_a_sign_flipped_curvature_fails_the_oracle(monkeypatch):
    """Swapping the two transposes in `GeometryJets.curvature` negates every
    R^i_jk while keeping its antisymmetry and R = 0 on flat models; the
    oracle catches it."""
    original = connections.GeometryJets.curvature
    monkeypatch.setattr(connections.GeometryJets, "curvature", lambda geo: -original(geo))
    for name, K in CONSTANT_CURVATURE.items():
        with pytest.raises(AssertionError):
            check_flag_curvature(_load(name), K)
