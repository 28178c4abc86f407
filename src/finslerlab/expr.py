"""Expression language and model files.

A model file declares a Finsler metric F(x, y), the components of a candidate
concurrent vector field phi(x), strict-inequality domain constraints and named
real parameters::

    # slope metric on R^3
    name = my_model
    dim = 3
    F = sqrt(x3^2*((x1^2*y2^2 + 2*y1*y2)/y1)^2 + y3^2)
    phi1 = 0
    phi2 = 0
    phi3 = x3
    domain = x1^2          # means: x1^2 > 0
    param scale = 1.0

Expressions are whitespace-insensitive with precedence ^ > unary - > * / > + -
('^' is right-associative).  Variables are x1..xn and y1..yn; every other
identifier is a named parameter, except sqrt/abs/sin/cos/exp/log which are
function calls.  Each expression of a model is lowered once, when its ModelDef
is built, into a function (xs, ys) -> value made of Python closures; the same
function runs on floats (sampling, domain tests, geodesic values), on float64
arrays holding many points (the finite-difference oracle) and on jets (energy
and phi jets).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalError, ModelSyntaxError, ModelValidationError
from .numkit import Jet, int_power

__all__ = [
    "Num", "Var", "Param", "Neg", "Bin", "Call",
    "ModelDef", "parse", "parse_expression", "lower", "evaluate", "to_source",
    "free_vars", "squared",
]

FUNCTIONS = ("sqrt", "abs", "sin", "cos", "exp", "log")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str   # 'x' or 'y'
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    a: object
    b: object


@dataclass(frozen=True)
class Call:
    fn: str
    a: object


def free_vars(ast):
    """Set of ('x'|'y', index) pairs and parameter names used by the AST."""
    vs, ps = set(), set()

    def walk(node):
        if isinstance(node, Var):
            vs.add((node.kind, node.index))
        elif isinstance(node, Param):
            ps.add(node.name)
        elif isinstance(node, Neg):
            walk(node.a)
        elif isinstance(node, Bin):
            walk(node.a)
            walk(node.b)
        elif isinstance(node, Call):
            walk(node.a)

    walk(ast)
    return vs, ps


def squared(ast):
    """AST of the square, with sqrt(u)^2 collapsed to u.

    The metric layer differentiates F^2 rather than F, so for the common shape
    F = sqrt(u) this removes the square root entirely.
    """
    if isinstance(ast, Call) and ast.fn == "sqrt":
        return ast.a
    return Bin("^", ast, Num(2.0))


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),=]))"
)

_VAR_RE = re.compile(r"^([xy])([1-9][0-9]*)$")


@dataclass
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int = 1) -> list[_Token]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            col = i + (len(text[i:]) - len(stripped)) + 1
            raise ModelSyntaxError(f"unexpected character {stripped[0]!r}", line, col,
                                   expected=("number", "identifier", "operator"))
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                toks.append(_Token(kind, m.group(kind), line, m.start(kind) + 1))
                break
        i = m.end()
    toks.append(_Token("end", "", line, len(text) + 1))
    return toks


# --------------------------------------------------------------------------
# recursive-descent expression parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.k = 0

    def peek(self) -> _Token:
        return self.toks[self.k]

    def next(self) -> _Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise ModelSyntaxError(f"expected {op!r}, found {t.text or 'end of input'!r}",
                                   t.line, t.col, expected=(op,))
        return self.next()

    def expression(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary())
        if t.kind == "op" and t.text == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            return Bin("^", node, self.unary())  # right-assoc, unary exponents allowed
        return node

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    raise ModelSyntaxError(
                        f"unknown function {t.text!r}", t.line, t.col, expected=FUNCTIONS)
                self.next()
                arg = self.expression()
                self.expect_op(")")
                return Call(t.text, arg)
            m = _VAR_RE.match(t.text)
            if m:
                return Var(m.group(1), int(m.group(2)))
            return Param(t.text)
        if t.kind == "op" and t.text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ModelSyntaxError(
            f"expected an expression, found {t.text or 'end of input'!r}",
            t.line, t.col, expected=("number", "identifier", "("))

    def finish(self):
        t = self.peek()
        if t.kind != "end":
            raise ModelSyntaxError(f"trailing input {t.text!r}", t.line, t.col,
                                   expected=("end of expression",))


def parse_expression(source: str, line: int = 1):
    """Parse one expression string into an AST."""
    p = _Parser(_tokenize(source, line))
    node = p.expression()
    p.finish()
    return node


# --------------------------------------------------------------------------
# evaluation: each AST is lowered once into closures over floats or jets
# --------------------------------------------------------------------------

def _guard(bad, v, message):
    """Raise EvalError(message) when `bad` holds at a float, or at any element
    of an array; `{}` in the message names the (first) offending value."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise EvalError(message.format(v[bad].flat[0]))
    elif bad:
        raise EvalError(message.format(v))


def _div(a, b):
    if not isinstance(b, Jet):
        _guard(abs(b) < 1e-300, b, "division by ~0")
    return a / b


def _pow(base, exponent):
    if isinstance(exponent, Jet):
        # variable exponent: exp(e*log(b)) on the principal branch
        if isinstance(base, Jet):
            return (exponent * base.log()).exp()
        if base <= 0:
            raise EvalError(f"{base} ** <expr>: variable power needs a positive base")
        return (exponent * math.log(base)).exp()
    if isinstance(exponent, np.ndarray):
        # variable exponent over arrays: the float rule at each element
        return np.vectorize(_pow, otypes=[float])(base, exponent)
    if float(exponent).is_integer():
        k = int(exponent)
        if isinstance(base, Jet):
            return base ** k
        if k > 0:
            return int_power(base, k)
        if k == 0:
            return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
        _guard(base == 0.0, base, "0 raised to a negative power")
        return _div(1.0, int_power(base, -k))
    if isinstance(base, Jet):
        return base ** float(exponent)
    _guard(base <= 0, base, f"{{}} ** {exponent}: non-integer power needs a positive base")
    return base ** float(exponent)


def _sqrt(v):
    if isinstance(v, Jet):
        return v.sqrt()
    _guard(v < 0, v, "sqrt of negative value {}")
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _log(v):
    if isinstance(v, Jet):
        return v.log()
    _guard(v <= 0, v, "log of non-positive value {}")
    return np.log(v) if isinstance(v, np.ndarray) else math.log(v)


def _analytic(name):
    """sin, cos or exp: the jet method, numpy's ufunc on arrays, math's on floats."""
    on_floats, on_arrays = getattr(math, name), getattr(np, name)

    def fn(v):
        if isinstance(v, Jet):
            return getattr(v, name)()
        return on_arrays(v) if isinstance(v, np.ndarray) else on_floats(v)
    return fn


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _div, "^": _pow}

_FUNCTIONS = {"sqrt": _sqrt, "abs": abs, "log": _log,
              **{name: _analytic(name) for name in ("sin", "cos", "exp")}}


def lower(ast, params=None):
    """Function (xs, ys) -> value of the AST over floats, float arrays or jets,
    where xs holds x1..xn and ys y1..yn.  Built once: parameters become constants and every
    operator node a closure that evaluates its left operand before its right.
    An unknown parameter or function raises EvalError here, not per call."""
    params = params or {}

    def low(node):
        if isinstance(node, Num):
            v = node.value
            return lambda xs, ys: v
        if isinstance(node, Param):
            if node.name not in params:
                raise EvalError(f"unknown parameter {node.name!r}")
            v = params[node.name]
            return lambda xs, ys: v
        if isinstance(node, Var):
            i = node.index - 1
            if node.kind == "x":
                return lambda xs, ys: xs[i]
            return lambda xs, ys: ys[i]
        if isinstance(node, Neg):
            a = low(node.a)
            return lambda xs, ys: -a(xs, ys)
        if isinstance(node, Call):
            if node.fn not in _FUNCTIONS:
                raise EvalError(f"unknown function {node.fn!r}")
            fn, a = _FUNCTIONS[node.fn], low(node.a)
            return lambda xs, ys: fn(a(xs, ys))
        if isinstance(node, Bin):
            op, a, b = _OPERATORS[node.op], low(node.a), low(node.b)
            if (node.op == "^" and isinstance(node.b, Num) and node.b.value >= 1
                    and node.b.value.is_integer()):
                k = int(node.b.value)   # _pow's integer branch, resolved once
                return lambda xs, ys: int_power(a(xs, ys), k)
            return lambda xs, ys: op(a(xs, ys), b(xs, ys))
        raise EvalError(f"cannot evaluate node {node!r}")

    return low(ast)


def evaluate(ast, xs, ys=None, params=None):
    """Evaluate an AST once at coordinates xs (x1..xn) and ys (y1..yn).

    `ys` may be omitted for x-only expressions (phi components, domains over x).
    Repeated evaluation should call a function from :func:`lower` instead.
    """
    if ys is None and any(kind == "y" for kind, _ in free_vars(ast)[0]):
        raise EvalError("no y-coordinates supplied but the expression uses y")
    return lower(ast, params)(xs, ys)


# --------------------------------------------------------------------------
# printer (used by the round-trip tests and diagnostics)
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(ast) -> str:
    def render(node, ctx: int) -> str:
        if isinstance(node, Num):
            s = repr(node.value)
            return s
        if isinstance(node, Var):
            return f"{node.kind}{node.index}"
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Call):
            return f"{node.fn}({render(node.a, 0)})"
        if isinstance(node, Neg):
            inner = f"-{render(node.a, _PREC['neg'])}"
            return f"({inner})" if ctx > _PREC["neg"] else inner
        if isinstance(node, Bin):
            p = _PREC[node.op]
            if node.op == "^":
                s = f"{render(node.a, p + 1)}^{render(node.b, p)}"
            else:
                s = f"{render(node.a, p)} {node.op} {render(node.b, p + 1)}"
            return f"({s})" if ctx > p else s
        raise ValueError(f"cannot render {node!r}")

    return render(ast, 0)


# --------------------------------------------------------------------------
# model files
# --------------------------------------------------------------------------

@dataclass
class ModelDef:
    """Validated model: F, the phi components, domain constraints, parameters."""

    name: str
    dim: int
    F: object
    phi: tuple
    domain: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _validate_model(self)
        # lowered once; every consumer calls these.  F^2 has its outer sqrt
        # stripped, as the metric layer differentiates F^2 rather than F
        self.F2_fn = lower(squared(self.F), self.params)
        self.phi_fns = tuple(lower(p, self.params) for p in self.phi)
        self.domain_fns = tuple(lower(d, self.params) for d in self.domain)

    def oriented(self, sign) -> ModelDef:
        """This model with phi multiplied by `sign` (+1 or -1): the two signs
        are the two normalizations of a concurrent field, nabla phi = +id or -id."""
        if sign == 1:
            return self
        if sign == -1:
            return replace(self, phi=tuple(Neg(p) for p in self.phi))
        raise ValueError(f"orientation must be +1 or -1, got {sign!r}")

    def domain_flags(self, x, y) -> tuple:
        """One flag per domain constraint: True when it is strictly positive at
        (x, y).  A constraint that cannot be evaluated there counts as violated."""
        flags = []
        for c in self.domain_fns:
            try:
                flags.append(bool(c(x, y) > 0.0))
            except EvalError:
                flags.append(False)
        return tuple(flags)

    def in_domain(self, x, y) -> bool:
        """True when every domain constraint holds at (x, y)."""
        return all(self.domain_flags(x, y))


_HEADER_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")
_PARAM_RE = re.compile(r"^\s*param\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")
_PHI_RE = re.compile(r"^phi([1-9][0-9]*)$")


def parse(source: str) -> ModelDef:
    """Parse model-file text into a validated :class:`ModelDef`."""
    name = None
    dim = None
    F = None
    phi: dict[int, object] = {}
    domain: list = []
    params: dict[str, float] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        pm = _PARAM_RE.match(line)
        if pm:
            pname, rhs = pm.group(1), pm.group(2)
            try:
                params[pname] = float(rhs.strip())
            except ValueError:
                raise ModelSyntaxError(f"parameter {pname!r} needs a real literal",
                                       lineno, line.find("=") + 2,
                                       expected=("real number",)) from None
            continue
        hm = _HEADER_RE.match(line)
        if not hm:
            raise ModelSyntaxError("expected 'key = value'", lineno, 1,
                                   expected=("name", "dim", "F", "phi<k>", "domain", "param"))
        key, rhs = hm.group(1), hm.group(2).strip()
        col0 = line.index("=") + 2
        if key == "name":
            name = rhs
        elif key == "dim":
            try:
                dim = int(rhs)
            except ValueError:
                raise ModelSyntaxError("dim needs an integer", lineno, col0,
                                       expected=("integer",)) from None
        elif key == "F":
            F = parse_expression(rhs, lineno)
        elif key == "domain":
            domain.append(parse_expression(rhs, lineno))
        else:
            phim = _PHI_RE.match(key)
            if phim:
                idx = int(phim.group(1))
                if idx in phi:
                    raise ModelSyntaxError(f"duplicate phi{idx}", lineno, 1,
                                           expected=(f"phi{idx} only once",))
                phi[idx] = parse_expression(rhs, lineno)
            else:
                raise ModelSyntaxError(f"unknown key {key!r}", lineno, 1,
                                       expected=("name", "dim", "F", "phi<k>",
                                                 "domain", "param"))

    if name is None:
        raise ModelValidationError("model file lacks a 'name =' line")
    if dim is None:
        raise ModelValidationError("model file lacks a 'dim =' line")
    if F is None:
        raise ModelValidationError("model file lacks an 'F =' line")
    missing = [k for k in range(1, dim + 1) if k not in phi]
    if missing:
        raise ModelValidationError(f"missing phi components: {missing}")
    extra = [k for k in phi if k > dim]
    if extra:
        raise ModelValidationError(f"phi components beyond dim={dim}: {extra}")

    return ModelDef(name=name, dim=dim, F=F,
                    phi=tuple(phi[k] for k in range(1, dim + 1)),
                    domain=tuple(domain), params=dict(params))


def _validate_model(model: ModelDef):
    if model.dim < 2:
        raise ModelValidationError(f"dim must be >= 2, got {model.dim}")
    hi = 0
    for label, ast in [("F", model.F)] + \
            [(f"phi{i+1}", p) for i, p in enumerate(model.phi)] + \
            [(f"domain[{i}]", d) for i, d in enumerate(model.domain)]:
        vs, ps = free_vars(ast)
        for kind, idx in vs:
            if idx > model.dim:
                raise ModelValidationError(
                    f"{label} uses undeclared variable {kind}{idx} (dim={model.dim})")
            hi = max(hi, idx)
            if label.startswith("phi") and kind == "y":
                raise ModelValidationError(
                    f"{label} must not depend on directions, found y{idx}")
        for pname in ps:
            if pname not in model.params:
                raise ModelValidationError(f"{label} uses undeclared parameter {pname!r}")
    if hi != model.dim:
        raise ModelValidationError(
            f"dim={model.dim} but the highest variable index used is {hi}")
