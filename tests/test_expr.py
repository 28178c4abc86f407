"""Parser, evaluator and model-file validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import expr
from finslerlab.errors import EvalError, ModelSyntaxError, ModelValidationError
from finslerlab.expr import Bin, Call, Num, Run, Var
from finslerlab.numkit import jet_space

EXAMPLE_F = "sqrt(x3^2*((x1^2*y2^2 + 2*y1*y2)/y1)^2 + y3^2)"

MINI_MODEL = """
# comment line
name = mini
dim = 2
F = sqrt(y1^2 + y2^2)
phi1 = -x1
phi2 = -x2
domain = y1^2 + y2^2
param scale = 1.5
"""


def test_parse_euclid_norm_structure():
    ast = expr.parse_expression("sqrt(y1^2 + y2^2)")
    assert isinstance(ast, Call) and ast.fn == "sqrt"
    assert ast.a == Run(Bin("^", Var("y", 1), Num(2.0)),
                        (("+", Bin("^", Var("y", 2), Num(2.0))),))
    # homogeneity of degree one in y
    v1 = expr.evaluate(ast, [0.0, 0.0], [0.6, 0.8])
    v2 = expr.evaluate(ast, [0.0, 0.0], [1.2, 1.6])
    assert v2 == pytest.approx(2 * v1, rel=1e-15)


def test_precedence_and_unary_minus():
    assert expr.evaluate(expr.parse_expression("-y1^2"), [], [3.0]) == -9.0
    assert expr.evaluate(expr.parse_expression("2^-2"), [], []) == 0.25
    assert expr.evaluate(expr.parse_expression("2*y1^2 + 1"), [], [2.0]) == 9.0
    assert expr.evaluate(expr.parse_expression("2^3^1"), [], []) == 8.0
    assert expr.evaluate(expr.parse_expression("6/3/2"), [], []) == 1.0


def test_evaluate_example_metric_at_p0():
    ast = expr.parse_expression(EXAMPLE_F)
    got = expr.evaluate(ast, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert got == pytest.approx(math.sqrt(10), rel=1e-15)


def test_evaluate_pairing_expression_at_p0():
    ast = expr.parse_expression("x3*y3")
    assert expr.evaluate(ast, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]) == 1.0


def test_eval_errors():
    with pytest.raises(EvalError):
        expr.evaluate(expr.parse_expression("sqrt(0 - 1)"), [], [])
    with pytest.raises(EvalError):
        expr.evaluate(expr.parse_expression("1/(y1 - y1)"), [], [1.0])
    with pytest.raises(EvalError):
        expr.evaluate(expr.parse_expression("0^(0-2)"), [], [])
    with pytest.raises(EvalError):
        expr.evaluate(expr.parse_expression("(0-2)^0.5"), [], [])


def test_syntax_error_positions():
    with pytest.raises(ModelSyntaxError) as ei:
        expr.parse_expression("y1 + * 2")
    assert ei.value.col == 6
    with pytest.raises(ModelSyntaxError):
        expr.parse_expression("sqrt(y1")
    with pytest.raises(ModelSyntaxError) as ei:
        expr.parse_expression("foo(y1)")
    assert "unknown function" in str(ei.value)
    with pytest.raises(ModelSyntaxError):
        expr.parse_expression("y1 y2")


def test_model_file_parses_and_validates():
    m = expr.parse(MINI_MODEL)
    assert m.name == "mini" and m.dim == 2
    assert len(m.phi) == 2 and len(m.domain) == 1
    assert m.params == {"scale": 1.5}
    assert m.in_domain([0.0, 0.0], [1.0, 0.0])
    assert not m.in_domain([0.0, 0.0], [0.0, 0.0])


def test_model_file_shipped_example_constraints():
    from finslerlab import models
    m = models.builtin_model("matsumoto_example")
    assert m.dim == 3
    assert len(m.domain) == 4
    assert m.in_domain([1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert not m.in_domain([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])   # x1 = 0
    assert not m.in_domain([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])   # y2 = 0


def test_phi_must_not_depend_on_directions():
    bad = MINI_MODEL.replace("phi2 = -x2", "phi2 = y1")
    with pytest.raises(ModelValidationError) as ei:
        expr.parse(bad)
    assert "y1" in str(ei.value)


def test_dim_must_match_highest_variable():
    bad = MINI_MODEL.replace("dim = 2", "dim = 3").replace("phi2 = -x2",
                                                           "phi2 = -x2\nphi3 = 0")
    with pytest.raises(ModelValidationError) as ei:
        expr.parse(bad)
    assert "highest variable index" in str(ei.value)

    bad = MINI_MODEL.replace("F = sqrt(y1^2 + y2^2)", "F = sqrt(y1^2 + y3^2)")
    with pytest.raises(ModelValidationError):
        expr.parse(bad)


def test_missing_sections_rejected():
    with pytest.raises(ModelValidationError):
        expr.parse("name = x\ndim = 2\nphi1 = 0\nphi2 = 0\n")  # no F
    with pytest.raises(ModelValidationError):
        expr.parse("name = x\ndim = 2\nF = sqrt(y1^2 + y2^2)\nphi1 = 0\n")


def test_domain_constraint_that_cannot_be_evaluated_is_violated():
    m = expr.parse(MINI_MODEL + "domain = log(x1)\n")
    assert not m.in_domain([-1.0, 0.0], [1.0, 0.0])   # log(x1) raises
    assert not m.in_domain([0.0, 0.0], [1.0, 0.0])
    assert m.in_domain([2.0, 0.0], [1.0, 0.0])


def test_lowering_rejects_unknown_parameter_and_function():
    with pytest.raises(EvalError, match="scale"):
        expr.lower(expr.parse_expression("scale*y1"), {})
    assert expr.lower(expr.parse_expression("scale*y1"), {"scale": 2.0})([], [3.0]) == 6.0
    with pytest.raises(EvalError, match="erf"):
        expr.lower(Call("erf", Num(1.0)))


def test_y_variable_without_y_coordinates_raises():
    with pytest.raises(EvalError, match="y-coordinates"):
        expr.evaluate(expr.parse_expression("x1*y1"), [1.0])


def test_model_expressions_are_lowered_once(monkeypatch):
    """Sampling, the metric layer and the changed energy call the functions
    lowered when the model was built; none lowers an expression again."""
    from finslerlab import core, models
    from finslerlab.matsumoto import HatEnergy

    m = models.builtin_model("matsumoto_example")
    hat = HatEnergy(m.oriented(-1))
    calls = []
    real_lower = expr.lower
    monkeypatch.setattr(expr, "lower", lambda *a: calls.append(a) or real_lower(*a))
    s = core.make_sample(m, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    core.metric_data(m, s)
    hat.energy_jet(s, 2, 1)
    assert calls == []


def test_oriented_negates_phi_and_nothing_else():
    import numpy as np
    from finslerlab import models
    from finslerlab.numkit import Jet, jet_space

    m = models.builtin_model("matsumoto_example")
    assert m.oriented(+1) is m
    neg = m.oriented(-1)
    x, y = [1.2, -0.3, 0.8], [1.0, 0.6, 1.4]
    coords = jet_space(3, 2, 2).lift(x, y)

    def values(model):
        phis = [p(x, None) for p in model.phi_fns]
        jets = [p(coords[:3], None) for p in model.phi_fns]
        jets = [v.coeffs if isinstance(v, Jet) else np.array([v]) for v in jets]
        return phis, jets

    phis, jets = values(m)
    neg_phis, neg_jets = values(neg)
    assert neg_phis == [-v for v in phis]
    assert all(np.array_equal(a, -b) for a, b in zip(neg_jets, jets))
    assert neg.F2_fn(x, y) == m.F2_fn(x, y)
    assert [c(x, y) for c in neg.domain_fns] == [c(x, y) for c in m.domain_fns]
    assert values(neg.oriented(-1))[0] == phis
    with pytest.raises(ValueError):
        m.oriented(0.5)


def test_undeclared_parameter_rejected():
    bad = MINI_MODEL.replace("param scale = 1.5", "")
    bad = bad.replace("F = sqrt(y1^2 + y2^2)", "F = scale*sqrt(y1^2 + y2^2)")
    with pytest.raises(ModelValidationError) as ei:
        expr.parse(bad)
    assert "scale" in str(ei.value)


def test_duplicate_phi_rejected():
    """phi<k> and the other single-valued keys are refused on their second
    line, not overwritten by it."""
    for line, key in [("phi1 = 0", "phi1"), ("name = other", "name"), ("dim = 2", "dim"),
                      ("F = y1", "F"), ("param scale = 2.0", "param scale")]:
        with pytest.raises(ModelSyntaxError) as ei:
            expr.parse(MINI_MODEL + line + "\n")
        assert f"duplicate {key}" in str(ei.value) and ei.value.line == 10
    assert expr.parse(MINI_MODEL + "param other = 2.0\n").params == {"scale": 1.5, "other": 2.0}


def test_box_line_parses_one_or_every_coordinate():
    m = expr.parse(MINI_MODEL + "\nbox = -1:1,0:2,0.5:2,0.5:3\n")
    assert m.box == ((-1.0, 1.0), (0.0, 2.0), (0.5, 2.0), (0.5, 3.0))
    assert m.oriented(-1).box == m.box
    assert expr.parse(MINI_MODEL + "\nbox = 0.5:2\n").box == ((0.5, 2.0),) * 4
    assert expr.parse(MINI_MODEL).box is None


@pytest.mark.parametrize("line", ["box = 0:1,0:1", "box = 2:1", "box = 0:inf",
                                  "box = a:1", "box = 1:2:3"])
def test_bad_box_line_is_a_syntax_error_naming_its_line(line):
    source = MINI_MODEL.rstrip("\n") + "\n" + line + "\n"
    with pytest.raises(ModelSyntaxError) as ei:
        expr.parse(source)
    assert ei.value.line == source.count("\n")
    assert str(ei.value).startswith(f"line {ei.value.line}, col 7: box ")


@pytest.mark.parametrize("source, col", [
    pytest.param(MINI_MODEL + "box =   1:0\n", 9, id="box"),
    pytest.param(MINI_MODEL.replace("dim = 2", "dim = two"), 7, id="dim"),
    pytest.param(MINI_MODEL + "param k = abc\n", 11, id="param"),
])
def test_bad_header_value_names_the_value_column(source, col):
    with pytest.raises(ModelSyntaxError) as ei:
        expr.parse(source)
    assert ei.value.col == col


def test_duplicate_box_rejected():
    with pytest.raises(ModelSyntaxError) as ei:
        expr.parse(MINI_MODEL + "\nbox = 0:1\nbox = 0:2\n")
    assert "duplicate box" in str(ei.value)


@pytest.mark.parametrize("F", [
    pytest.param("(" * 190 + "sqrt(y1^2 + y2^2)" + ")" * 190, id="190-parentheses"),
    pytest.param("sqrt(y1^2 + y2^2)" + " + 0" * 900, id="900-terms"),
    pytest.param("sqrt(y1^2 + y2^2)" + " + 0" * 996, id="996-terms"),
    pytest.param("sqrt(y1^2 + y2^2)" + " + 0" * 5000, id="5000-terms"),
])
def test_nested_expressions_within_the_limits_load_and_evaluate(F):
    """Lowering and evaluation recurse per nesting level, not per term."""
    deep = expr.parse(MINI_MODEL.replace("F = sqrt(y1^2 + y2^2)", f"F = {F}"))
    flat = expr.parse(MINI_MODEL)
    assert deep.F2_fn([0.3, -0.2], [3.0, 4.0]) == 25.0
    coords = jet_space(2, 2, 1).lift([0.3, -0.2], [3.0, 4.0])
    assert np.allclose(deep.F2_fn(coords[:2], coords[2:]).coeffs,
                       flat.F2_fn(coords[:2], coords[2:]).coeffs, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("terms", [5000, 20000])
def test_long_sum_is_one_node(terms):
    """A sum is one Run node however long it is: printing, comparing, hashing
    and evaluating it cost no recursion per term, and it is evaluated left to
    right."""
    source = "y1" + " + y2" * terms
    ast, again = expr.parse_expression(source), expr.parse_expression(source)
    assert isinstance(ast, Run) and len(ast.rest) == terms
    assert repr(ast) == repr(again) and ast == again and hash(ast) == hash(again)
    assert expr.parse_expression(expr.to_source(ast)) == ast
    acc = 0.1
    for _ in range(terms):
        acc = acc + 0.7
    assert expr.evaluate(ast, [], [0.1, 0.7]) == acc


@pytest.mark.parametrize("source", [
    pytest.param("(1+" * 199 + "y1" + ")" * 199, id="sums"),
    pytest.param("(2*" * 199 + "y1" + ")" * 199, id="products"),
    pytest.param("-" * 199 + "y1", id="signs"),
    pytest.param("sqrt(" * 199 + "y1" + ")" * 199, id="calls"),
    pytest.param("y1^" * 199 + "2", id="powers"),
    pytest.param("(" * 199 + "y1" + ")" * 199, id="parentheses"),
])
def test_ast_at_the_nesting_limit_prints_compares_and_hashes(source):
    """`repr`, `==`, `hash` and `to_source` of an AST 199 levels deep return
    at the default recursion limit."""
    ast, again = expr.parse_expression(source), expr.parse_expression(source)
    assert repr(ast) == repr(again) and ast == again and hash(ast) == hash(again)
    assert expr.parse_expression(expr.to_source(ast)) == ast


def test_print_parse_round_trip_on_example():
    ast = expr.parse_expression(EXAMPLE_F)
    printed = expr.to_source(ast)
    assert expr.parse_expression(printed) == ast
    assert expr.to_source(expr.parse_expression(printed)) == printed


# -- random AST round trips --------------------------------------------------

def _asts(depth):
    leaf = st.one_of(
        st.floats(0.0, 9.0).map(lambda v: Num(round(v, 2))),
        st.sampled_from([Var("x", 1), Var("y", 1), Var("y", 2)]),
    )
    if depth == 0:
        return leaf
    sub = _asts(depth - 1)
    # a run's operators share one precedence, and it has at least one step
    runs = st.sampled_from(["+-", "*/"]).flatmap(lambda ops: st.builds(
        Run, sub, st.lists(st.tuples(st.sampled_from(ops), sub), min_size=1,
                           max_size=3).map(tuple)))
    return st.one_of(
        leaf,
        runs,
        st.tuples(sub, sub).map(lambda t: Bin("^", *t)),
        sub.map(lambda a: expr.Neg(a)),
        sub.map(lambda a: Call("sqrt", a)),
    )


@settings(max_examples=300, deadline=None)
@given(_asts(3))
def test_print_parse_round_trip_random(ast):
    printed = expr.to_source(ast)
    assert expr.parse_expression(printed) == ast


@settings(max_examples=100, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(0.3, 2.0))
def test_real_and_jet_evaluation_agree(x1, y1, y2):
    """One lowered function: its jet value slot equals its float value."""
    from finslerlab.numkit import jet_space
    fn = expr.lower(expr.parse_expression("sqrt(x1^2*y1^2 + y2^2) + x1*y2/y1"))
    fval = fn([x1, 0.0], [y1, y2])
    coords = jet_space(2, 2, 2).lift([x1, 0.0], [y1, y2])
    jval = fn(coords[:2], coords[2:]).value
    assert abs(jval - fval) <= 1e-14 * max(1.0, abs(fval))


# --------------------------------------------------------------------------
# one lowered function over float64 arrays
# --------------------------------------------------------------------------

def _columns(fn, X, Y):
    """fn at each point (column) of X and Y, one scalar call per point."""
    return np.array([fn(X[:, i], Y[:, i]) for i in range(X.shape[1])])


@pytest.mark.parametrize("source", [
    "y1 + y2", "y1 - y2", "y1 * y2", "y1 / y2", "-y1", "abs(y1)", "sqrt(y2)",
    "y1^1", "y1^2", "y1^3", "y1^4", "y1^5", "y2^-1", "y2^-3", "y1^(x1 - x1 + 2)",
    "y2^y1", "x1^2*y1/y2 - sqrt(x1^2 + y2^3)",
])
def test_array_evaluation_matches_scalar_bit_for_bit(source):
    """Each operator and the functions that are exact on arrays give, on an
    array, the bits of a scalar evaluation at each of its elements."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-3.0, 3.0, (1, 2000))
    Y = np.stack([rng.uniform(-3.0, 3.0, 2000), rng.uniform(0.1, 3.0, 2000)])
    X[0, :4] = Y[0, :4] = [0.0, -0.0, 1.0, -1.0]
    fn = expr.lower(expr.parse_expression(source))
    assert fn(X, Y).tobytes() == _columns(fn, X, Y).tobytes()


def test_shipped_model_energy_on_arrays_matches_scalar_bit_for_bit():
    from finslerlab import models
    rng = np.random.default_rng(11)
    for name in ("matsumoto_example", "euclid_concurrent"):
        model = models.load_model(name)
        X = rng.uniform(0.2, 2.0, (model.dim, 2000))
        Y = rng.uniform(0.2, 2.0, (model.dim, 2000)) * rng.choice([-1.0, 1.0], (model.dim, 2000))
        assert model.F2_fn(X, Y).tobytes() == _columns(model.F2_fn, X, Y).tobytes()


@pytest.mark.parametrize("source, bad, message", [
    ("1/y1", 1e-301, "division by ~0"),
    ("y1^-2", 0.0, "0 raised to a negative power"),
    ("sqrt(y1)", -0.5, "sqrt of negative value -0.5"),
    ("log(y1)", -0.0, "log of non-positive value -0.0"),
    ("y1^0.5", -2.0, "-2.0 \\*\\* 0.5: non-integer power needs a positive base"),
])
def test_array_guards_raise_when_any_element_hits_them(source, bad, message):
    fn = expr.lower(expr.parse_expression(source))
    Y = np.linspace(0.5, 2.0, 50)[None, :]
    fn([], Y)
    Y[0, 37] = bad
    with pytest.raises(EvalError, match=message):
        fn([], Y)


def test_integer_powers_agree_on_floats_arrays_and_jets():
    """Floats, arrays and jets share one integer-power rule: the jet's value,
    each float and each array element carry the same bits, except that a jet
    product's coefficients are sums started at +0.0, so never -0.0."""
    from finslerlab.numkit import jet_space
    rng = np.random.default_rng(3)
    bases = np.concatenate([rng.uniform(-4.0, 4.0, 300), [0.0, -0.0, 1e-3, -7.5]])
    sp = jet_space(1, 2, 0)
    for k in (-3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 11):
        fn = expr.lower(Bin("^", Var("y", 1), Num(float(k))))
        nonzero = bases[bases != 0.0] if k < 0 else bases
        floats = np.array([fn([], [float(b)]) for b in nonzero])
        jets = np.array([(sp.coordinate(1, float(b)) ** k).value for b in nonzero])
        assert fn([], nonzero[None, :]).tobytes() == floats.tobytes(), k
        assert jets.tobytes() == (floats + 0.0).tobytes(), k
