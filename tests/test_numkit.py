"""Jet arithmetic against closed forms, finite differences, and random polynomials."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab.connections import spray_system
from finslerlab.core import cartan_tensor, metric_tensor
from finslerlab.errors import DomainEscape, EvalError
from finslerlab.numkit import Jet, JetSpace, _simplex, fd_derivative, jet_space


def test_lift_seeding():
    xj, yj = jet_space(1, 1, 1).lift([0.0], [1.0])
    assert xj.value == 0.0 and yj.value == 1.0
    assert xj.partials_at([(1, 0), (0, 1)]).tolist() == [1.0, 0.0]
    assert yj.partials_at([(0, 1), (1, 0)]).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("space", [(3, 3, 1), (2, 0, 2), (3, 2, 0), (2, 0, 0)])
def test_lift_matches_one_coordinate_at_a_time(space):
    sp = jet_space(*space)
    point = [1.5, -0.0, 0.0, -2.0, 0.25, 3.0][:2 * sp.n]
    lifted = sp.lift(point[:sp.n], point[sp.n:])
    for v, jet in enumerate(lifted):
        ref = sp.coordinate(v, point[v])
        assert jet.space is sp and (jet.y_valid, jet.x_valid) == (ref.y_valid, ref.x_valid)
        assert jet.coeffs.tobytes() == ref.coeffs.tobytes()


def test_square_polynomial_taylor():
    _, yj = jet_space(1, 3, 3).lift([0.0], [3.0])
    f = yj * yj
    assert f.value == 9.0
    d1, d2, d3 = f.partials_at([(0, 1), (0, 2), (0, 3)])
    assert d1 == 6.0
    assert f.coeffs[f.space.multi_indices.index((0, 2))] == 1.0  # stored as (1/2) d^2
    assert d2 == 2.0 and d3 == 0.0


def test_division_and_sqrt_recurrences():
    _, yj = jet_space(1, 3, 3).lift([0.0], [3.0])
    g = (yj * yj + 1.0).sqrt()
    assert g.value == pytest.approx(math.sqrt(10), rel=1e-15)
    g1, g2 = g.partials_at([(0, 1), (0, 2)])
    assert g1 == pytest.approx(3 / math.sqrt(10), rel=1e-14)
    assert g2 == pytest.approx(1 / math.sqrt(10) - 9 / 10**1.5, rel=1e-13)
    h = 1.0 / (yj + 2.0)
    assert h.partials_at([(0, 2)])[0] == pytest.approx(2 / 5**3, rel=1e-14)
    assert (yj ** -2).partials_at([(0, 1)])[0] == pytest.approx(-2 / 27, rel=1e-14)


def test_transcendental_compositions():
    _, yj = jet_space(1, 3, 3).lift([0.0], [0.7])
    for fn, d3 in [
        (lambda u: u.exp(), math.exp(0.7)),
        (lambda u: u.sin(), -math.cos(0.7)),
        (lambda u: u.cos(), math.sin(0.7)),
        (lambda u: u.log(), 2 / 0.7**3),
    ]:
        assert fn(yj).partials_at([(0, 3)])[0] == pytest.approx(d3, rel=1e-12)


def test_mixed_partials():
    sp = jet_space(1, 2, 1)
    xj, yj = sp.lift([5.0], [3.0])
    f = xj * yj * yj
    assert f.partials_at([(1, 1), (1, 2)]) == pytest.approx([6.0, 2.0])


def test_validity_tracking_blocks_truncation_artifacts():
    sp = jet_space(1, 3, 1)
    _, yj = sp.lift([0.0], [2.0])
    d = (yj * yj * yj).diff_y(0)  # y_valid drops from 3 to 2
    assert d.partials_at([(0, 2)])[0] == pytest.approx(6.0)  # (3y^2)'' = 6
    with pytest.raises(EvalError):
        d.partials_at([(0, 3)])


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
    assert np.all(np.abs(f.partials_at([(0, 1), (0, 2), (0, 3)]) - [d1, d2, d3])
                  <= 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 2.5), st.floats(0.5, 2.5), st.floats(0.5, 2.5))
def test_product_rule_matches_finite_differences(a, b, y0):
    """Leibniz behaviour of the jet product against the FD oracle."""
    def f(x, y):
        return (a + y[0] ** 2) * (b + 3.0 * y[0])

    _, yj = jet_space(1, 3, 3).lift([0.0], [y0])
    jet = (a + yj * yj) * (b + 3.0 * yj)
    fd = fd_derivative(f, [0.0], [y0], (0, 1))
    assert abs(jet.partials_at([(0, 1)])[0] - fd) / max(1.0, abs(fd)) < 1e-8


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
    jv = jet.partials_at([mi])[0]
    assert abs(jv - fd) / max(1.0, abs(jv)) < 1e-5


def test_fd_oracle_rejects_high_order_and_escaping_stencils():
    with pytest.raises(ValueError):
        fd_derivative(lambda x, y: 0.0, [0.0], [1.0], (0, 4))
    with pytest.raises(DomainEscape):
        fd_derivative(lambda x, y: y[0], [0.0], [1.0], (0, 1),
                      in_domain=lambda x, y: abs(y[0] - 1.0) < 1e-9)


def test_fd_step_scale_must_be_positive():
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="step_scale"):
            fd_derivative(lambda x, y: y[0] ** 2, [0.0], [1.0], (0, 1), step_scale=scale)
    assert fd_derivative(lambda x, y: y[0] ** 2, [0.0], [1.0], (0, 1),
                         step_scale=0.1) == pytest.approx(2.0, rel=1e-9)


def _dense_pair_table(n, y_order, x_order):
    """Product table of the (n, y_order, x_order) space by a dense search over
    every slot pair (i, j), row-major: i, j and the slot k of the sum of their
    multi-indices, for each pair whose sum is a slot.  Each multi-index is
    encoded as an integer whose digits never carry, so key(a) + key(b) ==
    key(a + b)."""
    index = np.array([bx + ay for bx in _simplex(n, x_order) for ay in _simplex(n, y_order)])
    keys = index @ (2 * max(y_order, x_order, 1) + 1) ** np.arange(2 * n)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    pair = keys[:, None] + keys[None, :]
    slot = np.minimum(np.searchsorted(sorted_keys, pair), keys.size - 1)
    hit = sorted_keys[slot] == pair
    i, j = np.nonzero(hit)
    return i, j, order[slot[hit]]


def test_product_tables_match_a_dense_search():
    spaces = [(n, y, x) for n in (1, 2, 3) for y in range(6) for x in range(4)] + [(4, 4, 2)]
    for space in spaces:
        sp = JetSpace(*space)
        for got, want in zip((sp._mul_i, sp._mul_j, sp._mul_k), _dense_pair_table(*space)):
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want, err_msg=str(space))


def test_building_a_space_holds_no_size_squared_intermediate():
    """The (4, 5, 2) space has 1,890 slots and 57,915 product pairs; a dense
    search over its slot pairs peaks near 90 MB of traced memory."""
    tracemalloc.start()
    try:
        JetSpace(4, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --------------------------------------------------------------------------
# bit identity of the ring's fast paths against the generic routes, written
# out here: scalars enter as constant jets, integer powers start from the
# constant 1, Horner steps are a full product plus a constant jet, and
# coefficients are read one partial() at a time
# --------------------------------------------------------------------------

SPACES = [(2, 3, 1), (3, 3, 1), (3, 4, 2), (3, 1, 0)]
SCALARS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                    st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def jets(draw, spaces=SPACES, value=None):
    """A jet with random coefficients and valid orders in one of `spaces`;
    about a quarter of its coefficients are exact +0.0 or -0.0."""
    sp = jet_space(*draw(st.sampled_from(spaces)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(sp.size) * 10.0 ** rng.integers(-3, 4, sp.size)
    zero = rng.random(sp.size) < 0.25
    c[zero] = np.where(rng.random(sp.size) < 0.5, 0.0, -0.0)[zero]
    if value is not None:
        c[0] = draw(value)
    return Jet(sp, c, draw(st.integers(0, sp.y_order)), draw(st.integers(0, sp.x_order)))


def _inside(j):
    """Mask of the slots of `j` inside its valid orders."""
    n = j.space.n
    return np.array([sum(mi[n:]) <= j.y_valid and sum(mi[:n]) <= j.x_valid
                     for mi in j.space.multi_indices])


def _same(a, b):
    """Same space and validity, and the same bits in every valid slot."""
    assert a.space is b.space
    assert (a.y_valid, a.x_valid) == (b.y_valid, b.x_valid)
    valid = _inside(a)
    assert a.coeffs[valid].tobytes() == b.coeffs[valid].tobytes()


def _past_valid_is_plus_zero(j):
    past = j.coeffs[~_inside(j)]
    return past.tobytes() == np.zeros_like(past).tobytes()


def _ref_mul(a, b):
    sp = a.space
    prod = np.bincount(sp._mul_k, weights=a.coeffs[sp._mul_i] * b.coeffs[sp._mul_j],
                       minlength=sp.size)
    return Jet(sp, prod, min(a.y_valid, b.y_valid), min(a.x_valid, b.x_valid))


def _ref_const(j, c, valid=None):
    y_valid, x_valid = valid or (j.space.y_order, j.space.x_order)
    return Jet(j.space, j.space.constant(c).coeffs, y_valid, x_valid)


def _ref_add(a, b, sign=1.0):
    coeffs = a.coeffs + b.coeffs if sign > 0 else a.coeffs - b.coeffs
    return Jet(a.space, coeffs, min(a.y_valid, b.y_valid), min(a.x_valid, b.x_valid))


def _ref_pow(j, k):
    out, base = _ref_const(j, 1.0, (j.y_valid, j.x_valid)), j
    while k:
        if k & 1:
            out = _ref_mul(out, base)
        base = _ref_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def _ref_compose(j, taylor_coeff):
    K = j.y_valid + j.x_valid
    h = _ref_add(j, _ref_const(j, j.value), -1.0)
    acc = _ref_const(j, taylor_coeff(K), (j.y_valid, j.x_valid))
    for k in range(K - 1, -1, -1):
        acc = _ref_add(_ref_mul(acc, h), _ref_const(acc, taylor_coeff(k)))
    return acc


@settings(max_examples=60, deadline=None)
@given(jets(value=SCALARS), SCALARS)
def test_scalar_add_and_subtract_match_the_constant_jet_route(j, c):
    _same(j + c, _ref_add(j, _ref_const(j, c)))
    _same(c + j, _ref_add(j, _ref_const(j, c)))
    _same(j - c, _ref_add(j, _ref_const(j, c), -1.0))
    _same(c - j, _ref_add(_ref_const(j, c), j, -1.0))


@settings(max_examples=40, deadline=None)
@given(jets(value=st.floats(0.1, 50.0)))
def test_scalar_over_a_jet_is_the_constant_jet_route_up_to_the_sign_of_zero(j):
    """c / j is the reciprocal times c, with the float product's bits: equal
    (==, so +0.0 == -0.0) to constant(c) * j._reciprocal() on the valid slots."""
    valid = _inside(j)
    for c in (2.5, -2.5, 1, np.float64(3.0)):
        out, ref = c / j, j.space.constant(c) * j._reciprocal()
        assert (out.y_valid, out.x_valid) == (ref.y_valid, ref.x_valid) == (j.y_valid, j.x_valid)
        assert np.array_equal(out.coeffs[valid], ref.coeffs[valid])
    with pytest.raises(TypeError):
        "2" / j


@settings(max_examples=40, deadline=None)
@given(jets(value=SCALARS))
def test_integer_powers_match_square_and_multiply_from_one(j):
    for k in range(6):
        _same(j ** k, _ref_pow(j, k))
        _same(j ** float(k), _ref_pow(j, k))


@settings(max_examples=40, deadline=None)
@given(jets(value=st.floats(0.1, 50.0)))
def test_compositions_match_the_unfused_horner_steps(j):
    v = j.value
    _same(j.sqrt(), _ref_compose(j, lambda k: _binom(0.5, k) * v ** (0.5 - k)))
    _same(j._reciprocal(), _ref_compose(j, lambda k: (-1.0) ** k / v ** (k + 1)))


@pytest.mark.parametrize("space", SPACES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_match_the_full_table_on_the_valid_slots(space, data):
    a = data.draw(jets(spaces=[space]))
    b = data.draw(jets(spaces=[space]))
    _same(a * b, _ref_mul(a, b))
    assert _past_valid_is_plus_zero(a * b)


@settings(max_examples=40, deadline=None)
@given(jets(value=st.floats(0.1, 50.0)))
def test_products_and_compositions_leave_past_valid_slots_at_plus_zero(j):
    results = [j * j, j ** 3, j ** 5, j.sqrt(), j._reciprocal(), j.exp(), j.log(),
               j.sin(), j.cos(), j ** -2, j ** 1.5]
    for out in results:
        assert (out.y_valid, out.x_valid) == (j.y_valid, j.x_valid)
        assert _past_valid_is_plus_zero(out)


def test_value_and_compositions_refuse_exhausted_jets():
    _, yj = jet_space(1, 0, 2).lift([0.5], [2.0])
    d = yj.diff_y(0)   # y_valid -1, x_valid 2: no slot is exact
    assert (d.y_valid, d.x_valid) == (-1, 2)
    with pytest.raises(EvalError, match="value of a jet with exhausted valid orders"):
        d.value
    with pytest.raises(EvalError, match="composition of a jet with exhausted valid orders"):
        d._compose(lambda k: 1.0)
    with pytest.raises(EvalError, match="exhausted"):
        (d * yj).value


def _binom(p, k):
    c = 1.0
    for i in range(k):
        c *= (p - i) / (i + 1)
    return c


def _y(n, *idx):
    mi = [0] * (2 * n)
    for i in idx:
        mi[n + i] += 1
    return mi


def _outcome(read):
    """The bytes a read returns, or the message of the EvalError it raises."""
    try:
        return read().tobytes()
    except EvalError as e:
        return str(e)


def _partial(E, mi):
    """One partial derivative of E, read on its own."""
    return E.partials_at([mi])[0]


def _ref_metric(E):
    n = E.space.n
    return np.array([[_partial(E, _y(n, i, j)) for j in range(n)] for i in range(n)])


def _ref_cartan(E):
    n = E.space.n
    return np.array([[[0.5 * _partial(E, _y(n, i, j, k)) for k in range(n)]
                      for j in range(n)] for i in range(n)])


def _ref_spray_system(E, y):
    n = E.space.n
    b = np.empty(n)
    for l in range(n):
        mi = [0] * (2 * n)
        mi[l] = 1
        acc = -_partial(E, mi)
        for k in range(n):
            mk = _y(n, l)
            mk[k] = 1
            acc += y[k] * _partial(E, mk)
        b[l] = acc
    return b


@settings(max_examples=40, deadline=None)
@given(jets(spaces=[s for s in SPACES if s[1] >= 2]))
def test_metric_and_cartan_reads_match_partial_loops(E):
    assert _outcome(lambda: metric_tensor(E)) == _outcome(lambda: _ref_metric(E))
    if E.space.y_order >= 3:
        assert _outcome(lambda: cartan_tensor(E)) == _outcome(lambda: _ref_cartan(E))


@settings(max_examples=40, deadline=None)
@given(jets(spaces=[s for s in SPACES if s[2] >= 1]),
       st.lists(SCALARS, min_size=3, max_size=3))
def test_spray_system_matches_its_partial_loop(E, y):
    y = np.array(y[:E.space.n])
    assert (_outcome(lambda: spray_system(E, y))
            == _outcome(lambda: _ref_spray_system(E, y)))


@settings(max_examples=40, deadline=None)
@given(jets(), st.data())
def test_partials_at_matches_its_partial_loop(E, data):
    mis = data.draw(st.lists(st.sampled_from(E.space.multi_indices), min_size=1,
                             max_size=12))
    n = E.space.n
    if any(sum(m[n:]) > E.y_valid or sum(m[:n]) > E.x_valid for m in mis):
        with pytest.raises(EvalError, match="beyond valid truncation"):
            E.partials_at(mis)
        return
    # each partial off its Taylor coefficient: d^a = a! * coefficient
    want = np.array([E.coeffs[E.space.multi_indices.index(m)]
                     * math.prod(map(math.factorial, m)) for m in mis])
    assert E.partials_at(mis).tobytes() == want.tobytes()


# (space, orders it is restricted or truncated to)
LOWER = [((3, 5, 2), (4, 2)), ((3, 5, 1), (4, 1)), ((3, 3, 1), (2, 1)),
         ((3, 5, 2), (3, 0)), ((2, 4, 2), (1, 1))]


@pytest.mark.parametrize("space, lower", LOWER)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_restriction_commutes_with_products_and_compositions(space, lower, data):
    """Each coefficient is computed from the same pairs in the same order in
    every space holding its slot: restricting a result gives the bits of the
    same operations on the restricted operands, every slot included."""
    full = {"y_valid": space[1], "x_valid": space[2]}
    a = data.draw(jets(spaces=[space]))
    b = data.draw(jets(spaces=[space]))
    p = data.draw(jets(spaces=[space], value=st.floats(0.1, 50.0)))
    a, b, p = (Jet(j.space, j.coeffs, **full) for j in (a, b, p))
    ops = [(lambda u, v: u * v, (a, b)), (lambda u: u ** 3, (a,)),
           (Jet.sqrt, (p,)), (Jet._reciprocal, (p,)), (Jet.exp, (p,))]
    for op, args in ops:
        got = op(*args).restrict(*lower)
        want = op(*(j.restrict(*lower) for j in args))
        assert got.space is want.space is jet_space(space[0], *lower)
        assert (got.y_valid, got.x_valid) == (want.y_valid, want.x_valid) == lower
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("space, lower", LOWER)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_truncated_compositions_keep_the_bits_of_the_lower_orders(space, lower, data):
    """A composition of a jet read as valid to lower orders has, inside them,
    the bits of the composition at the jet's own orders: the extra Horner
    terms add exact zeros there."""
    p = data.draw(jets(spaces=[space], value=st.floats(0.1, 50.0)))
    p = Jet(p.space, p.coeffs, space[1], space[2])
    for op in (Jet.sqrt, Jet._reciprocal):
        _same(op(p.truncated(*lower)), op(p).truncated(*lower))


def test_restriction_refuses_higher_orders():
    j = jet_space(3, 3, 1).constant(2.0)
    assert j.restrict(3, 1) is j
    with pytest.raises(ValueError, match=r"to orders \(4, 1\)"):
        j.restrict(4, 1)
    with pytest.raises(ValueError, match=r"to orders \(2, 2\)"):
        j.restrict(2, 2)


def test_reads_past_the_valid_orders_raise():
    E = jet_space(3, 3, 1).lift([1.0, 0.5, 2.0], [1.0, 1.0, 1.0])[3] ** 3
    with pytest.raises(EvalError, match=r"coefficient \(0, 0, 0, 2, 0, 0\)"):
        metric_tensor(E.diff_y(0).diff_y(0))      # y_valid 1
    with pytest.raises(EvalError, match=r"coefficient \(1, 0, 0, 0, 0, 0\)"):
        spray_system(E.diff_x(0), np.ones(3))     # x_valid 0
    with pytest.raises(EvalError, match=r"coefficient \(0, 0, 2, 0\)"):
        metric_tensor(jet_space(2, 1, 0).constant(1.0))   # past the space's orders
