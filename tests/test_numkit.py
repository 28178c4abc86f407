"""Jet arithmetic against closed forms, finite differences, and random polynomials."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from finslerlab.errors import DomainEscape, EvalError
from finslerlab.numkit import DiffConfig, fd_derivative, jet_space


def test_lift_seeding():
    xj, yj = jet_space(1, 1, 1).lift([0.0], [1.0])
    assert xj.value == 0.0 and yj.value == 1.0
    assert xj.coefficient((1, 0)) == 1.0 and xj.coefficient((0, 1)) == 0.0
    assert yj.coefficient((0, 1)) == 1.0 and yj.coefficient((1, 0)) == 0.0


def test_square_polynomial_taylor():
    _, yj = jet_space(1, 3, 3).lift([0.0], [3.0])
    f = yj * yj
    assert f.value == 9.0
    assert f.partial((0, 1)) == 6.0
    assert f.coefficient((0, 2)) == 1.0  # stored as (1/2) d^2
    assert f.coefficient((0, 3)) == 0.0


def test_division_and_sqrt_recurrences():
    _, yj = jet_space(1, 3, 3).lift([0.0], [3.0])
    g = (yj * yj + 1.0).sqrt()
    assert g.value == pytest.approx(math.sqrt(10), rel=1e-15)
    assert g.partial((0, 1)) == pytest.approx(3 / math.sqrt(10), rel=1e-14)
    assert g.partial((0, 2)) == pytest.approx(1 / math.sqrt(10) - 9 / 10**1.5, rel=1e-13)
    h = 1.0 / (yj + 2.0)
    assert h.partial((0, 2)) == pytest.approx(2 / 5**3, rel=1e-14)
    assert (yj ** -2).partial((0, 1)) == pytest.approx(-2 / 27, rel=1e-14)


def test_transcendental_compositions():
    _, yj = jet_space(1, 3, 3).lift([0.0], [0.7])
    for fn, d3 in [
        (lambda u: u.exp(), math.exp(0.7)),
        (lambda u: u.sin(), -math.cos(0.7)),
        (lambda u: u.cos(), math.sin(0.7)),
        (lambda u: u.log(), 2 / 0.7**3),
    ]:
        assert fn(yj).partial((0, 3)) == pytest.approx(d3, rel=1e-12)


def test_mixed_partials():
    sp = jet_space(1, 2, 1)
    xj, yj = sp.lift([5.0], [3.0])
    f = xj * yj * yj
    assert f.partial((1, 1)) == pytest.approx(6.0)
    assert f.partial((1, 2)) == pytest.approx(2.0)


def test_validity_tracking_blocks_truncation_artifacts():
    sp = jet_space(1, 3, 1)
    _, yj = sp.lift([0.0], [2.0])
    d = (yj * yj * yj).diff_y(0)  # y_valid drops from 3 to 2
    assert d.partial((0, 2)) == pytest.approx(6.0)  # (3y^2)'' = 6
    with pytest.raises(EvalError):
        d.partial((0, 3))


def test_division_by_near_zero_is_error_not_nan():
    sp = jet_space(1, 2, 0)
    _, yj = sp.lift([0.0], [1.0])
    with pytest.raises(EvalError):
        yj / (yj - 1.0)
    with pytest.raises(EvalError):
        (yj - 1.0).sqrt()
    with pytest.raises(EvalError):
        sp.constant(-4.0).sqrt()


def test_abs_at_zero_is_error():
    sp = jet_space(1, 2, 0)
    with pytest.raises(EvalError):
        abs(sp.constant(0.0))
    assert abs(sp.constant(-2.0)).value == 2.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3).map(lambda v: round(v, 3)), min_size=4, max_size=4),
       st.floats(-2, 2).map(lambda v: round(v, 3)))
def test_polynomial_jets_are_exact(coeffs, y0):
    """Taylor coefficients of a cubic equal its analytic derivatives exactly."""
    _, yj = jet_space(1, 3, 3).lift([0.0], [y0])
    c0, c1, c2, c3 = coeffs
    f = c0 + c1 * yj + c2 * yj * yj + c3 * yj * yj * yj
    val = c0 + c1 * y0 + c2 * y0**2 + c3 * y0**3
    d1 = c1 + 2 * c2 * y0 + 3 * c3 * y0**2
    d2 = 2 * c2 + 6 * c3 * y0
    d3 = 6 * c3
    scale = max(1.0, abs(val), abs(d1), abs(d2), abs(d3))
    assert abs(f.value - val) <= 1e-12 * scale
    assert abs(f.partial((0, 1)) - d1) <= 1e-12 * scale
    assert abs(f.partial((0, 2)) - d2) <= 1e-12 * scale
    assert abs(f.partial((0, 3)) - d3) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 2.5), st.floats(0.5, 2.5), st.floats(0.5, 2.5))
def test_product_rule_matches_finite_differences(a, b, y0):
    """Leibniz behaviour of the jet product against the FD oracle."""
    def f(x, y):
        return (a + y[0] ** 2) * (b + 3.0 * y[0])

    _, yj = jet_space(1, 3, 3).lift([0.0], [y0])
    jet = (a + yj * yj) * (b + 3.0 * yj)
    fd = fd_derivative(f, [0.0], [y0], (0, 1))
    assert abs(jet.partial((0, 1)) - fd) / max(1.0, abs(fd)) < 1e-8


def test_fd_oracle_first_derivative():
    got = fd_derivative(lambda x, y: y[0] ** 2, [0.0], [3.0], (0, 1))
    assert got == pytest.approx(6.0, abs=1e-9)


def test_fd_oracle_constant_field():
    for mi in [(0, 0, 1, 0), (0, 0, 0, 2), (1, 0, 0, 1)]:
        assert fd_derivative(lambda x, y: 7.5, [0.2, 0.1], [1.0, 2.0], mi) == 0.0


def test_fd_oracle_matches_jet_on_metric_expression():
    def F(x, y):
        u = (x[0] ** 2 * y[1] ** 2 + 2 * y[0] * y[1]) / y[0]
        return math.sqrt(x[2] ** 2 * u**2 + y[2] ** 2)

    x0, y0 = [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]
    coords = jet_space(3, 3, 3).lift(x0, y0)
    from finslerlab import expr
    ast = expr.parse_expression("sqrt(x3^2*((x1^2*y2^2 + 2*y1*y2)/y1)^2 + y3^2)")
    jet = expr.evaluate(ast, coords[:3], coords[3:])
    mi = (0, 0, 0, 0, 0, 1)
    fd = fd_derivative(F, x0, y0, mi)
    assert abs(jet.partial(mi) - fd) / max(1.0, abs(jet.partial(mi))) < 1e-5


def test_fd_oracle_rejects_high_order_and_escaping_stencils():
    with pytest.raises(ValueError):
        fd_derivative(lambda x, y: 0.0, [0.0], [1.0], (0, 4))
    with pytest.raises(DomainEscape):
        fd_derivative(lambda x, y: y[0], [0.0], [1.0], (0, 1),
                      in_domain=lambda x, y: abs(y[0] - 1.0) < 1e-9)


def test_diff_config_validation():
    with pytest.raises(ValueError):
        DiffConfig(fd_step=0.0)
    assert DiffConfig().step_for_order(1) == 1e-5
