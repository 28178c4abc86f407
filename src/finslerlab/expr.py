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
    box = 0.5:2            # optional sampling box, lo:hi per coordinate

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
    "Num", "Var", "Param", "Neg", "Bin", "Run", "Call",
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
    op: str  # '^'
    a: object
    b: object


@dataclass(frozen=True)
class Run:
    """first op1 t1 op2 t2 ..., evaluated left to right; the ops are all + -
    or all * /."""
    first: object
    rest: tuple  # ((op, operand), ...)

    # The generated repr and == recurse through the rest tuple and each pair,
    # four or five frames a nesting level; these take one or two, so an AST
    # at MAX_NESTING prints and compares.
    def __repr__(self):
        pairs = []
        for op, b in self.rest:
            pairs.append(f"({op!r}, {b!r})")
        comma = "," if len(pairs) == 1 else ""
        return f"Run(first={self.first!r}, rest=({', '.join(pairs)}{comma}))"

    def __eq__(self, other):
        if other.__class__ is not Run:
            return NotImplemented
        same = len(self.rest) == len(other.rest) and self.first == other.first
        for (op, b), (op2, b2) in zip(self.rest, other.rest):
            same = same and op == op2 and b == b2
        return same


@dataclass(frozen=True)
class Call:
    fn: str
    a: object


def _children(node) -> tuple:
    if isinstance(node, Bin):
        return (node.a, node.b)
    if isinstance(node, Run):
        return (node.first, *(b for _, b in node.rest))
    if isinstance(node, (Neg, Call)):
        return (node.a,)
    return ()


def free_vars(ast):
    """Set of ('x'|'y', index) pairs and parameter names used by the AST."""
    vs, ps = set(), set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            vs.add((node.kind, node.index))
        elif isinstance(node, Param):
            ps.add(node.name)
        stack.extend(_children(node))
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


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Token]:
    """Tokens of `text`, whose first character is at column `col` of `line`."""
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ModelSyntaxError(f"unexpected character {stripped[0]!r}", line,
                                   col + len(text) - len(stripped))
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                toks.append(_Token(kind, m.group(kind), line, col + m.start(kind)))
                break
        i = m.end()
    toks.append(_Token("end", "", line, col + len(text)))
    return toks


# --------------------------------------------------------------------------
# recursive-descent expression parser
# --------------------------------------------------------------------------

# MAX_NESTING bounds the levels of parentheses, function calls, signs and
# powers of one expression, which parsing, lowering and evaluation recurse
# along (at most three frames a level); a deeper expression is refused as a
# ModelSyntaxError naming its line.  A long sum or product is one Run node.
MAX_NESTING = 200


def _run(pairs):
    """Run of the (op, operand) pairs, the first op ignored; a lone operand
    stands for itself."""
    (_, first), *rest = pairs
    return Run(first, tuple(rest)) if rest else first


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.k = 0
        self.nesting = 0

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
                                   t.line, t.col)
        return self.next()

    def expression(self):
        """A run of + - over runs of * /, built in one loop: a long sum or
        product costs no recursion.  Each product's first pair carries the
        + or - that joins it to the sum."""
        terms, factors = [], [(None, self.unary())]
        while (t := self.peek()).kind == "op" and t.text in "+-*/":
            self.next()
            if t.text in "+-":
                terms.append((factors[0][0], _run(factors)))
                factors = []
            factors.append((t.text, self.unary()))
        terms.append((factors[0][0], _run(factors)))
        return _run(terms)

    def unary(self):
        """A signed operand; '^' binds tighter than a sign and is
        right-associative, with unary exponents allowed."""
        t = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ModelSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                   t.line, t.col)
        if t.kind == "op" and t.text in "+-":
            self.next()
            node = Neg(self.unary()) if t.text == "-" else self.unary()
        else:
            node = self.atom()
            if self.peek().kind == "op" and self.peek().text == "^":
                self.next()
                node = Bin("^", node, self.unary())
        self.nesting -= 1
        return node

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    raise ModelSyntaxError(f"unknown function {t.text!r}", t.line, t.col)
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
        raise ModelSyntaxError(f"expected an expression, found {t.text or 'end of input'!r}",
                               t.line, t.col)

    def finish(self):
        t = self.peek()
        if t.kind != "end":
            raise ModelSyntaxError(f"trailing input {t.text!r}", t.line, t.col)


def parse_expression(source: str, line: int = 1, col: int = 1):
    """Parse one expression string, whose first character is at column `col`
    of `line`, into an AST, refusing one nested deeper than MAX_NESTING."""
    p = _Parser(_tokenize(source, line, col))
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
    try:
        return base ** float(exponent)
    except OverflowError:
        raise EvalError(f"{float(base)!r} ** {exponent} overflows") from None


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
    """sin, cos or exp: the jet method, numpy's ufunc on arrays, math's on
    floats, where an overflow is an EvalError."""
    on_floats, on_arrays = getattr(math, name), getattr(np, name)

    def fn(v):
        if isinstance(v, Jet):
            return getattr(v, name)()
        if isinstance(v, np.ndarray):
            return on_arrays(v)
        try:
            return on_floats(v)
        except OverflowError:
            raise EvalError(f"{name}({float(v)!r}) overflows") from None
    return fn


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}

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
            a, b = low(node.a), low(node.b)
            if isinstance(node.b, Num) and node.b.value >= 1 and node.b.value.is_integer():
                k = int(node.b.value)   # _pow's integer branch, resolved once
                return lambda xs, ys: int_power(a(xs, ys), k)
            return lambda xs, ys: _pow(a(xs, ys), b(xs, ys))
        if isinstance(node, Run):
            # one closure evaluates the run left to right: no recursion per term
            first = low(node.first)
            steps = [(_OPERATORS[op], low(b)) for op, b in node.rest]
            if len(steps) == 1:
                (op, b), = steps
                return lambda xs, ys: op(first(xs, ys), b(xs, ys))

            def run(xs, ys):
                acc = first(xs, ys)
                for op, b in steps:
                    acc = op(acc, b(xs, ys))
                return acc
            return run
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
            p = _PREC["^"]
            s = f"{render(node.a, p + 1)}^{render(node.b, p)}"
            return f"({s})" if ctx > p else s
        if isinstance(node, Run):
            p = _PREC[node.rest[0][0]]
            parts = [render(node.first, p + 1)]
            for op, b in node.rest:
                parts += (op, render(b, p + 1))
            s = " ".join(parts)
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
    box: tuple | None = None   # (lo, hi) per coordinate x1..xn, y1..yn

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

    def in_domain(self, x, y) -> bool:
        """True when every domain constraint is strictly positive at (x, y).  A
        constraint that cannot be evaluated there counts as violated."""
        try:
            return all(c(x, y) > 0.0 for c in self.domain_fns)
        except EvalError:
            return False


# largest dim a model file may declare: the (5, 2) jet space of a curvature
# check holds 3.1M product pairs at dim 8 and 12.3M at dim 10
MAX_DIM = 8

_HEADER_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")
_PARAM_RE = re.compile(r"^\s*param\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")
_PHI_RE = re.compile(r"^phi([1-9][0-9]*)$")


def parse_box(text: str, dim2: int, what: str = "box") -> tuple:
    """A sampling box from 'lo:hi' entries, comma-separated: one per coordinate
    (x1..xn, y1..yn, `dim2` in all) or one for every coordinate.  Returns the
    (lo, hi) rows; raises ValueError, naming `what`, unless each is finite
    with lo < hi."""
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * dim2
    if len(parts) != dim2:
        raise ValueError(f"{what} needs 1 or {dim2} lo:hi entries, got {len(parts)}")
    rows = []
    for p in parts:
        try:
            lo, hi = (float(v) for v in p.split(":"))
        except ValueError:
            lo = hi = math.nan
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"{what} entry {p!r} is not lo:hi with finite lo < hi")
        rows.append((lo, hi))
    return tuple(rows)


def parse(source: str) -> ModelDef:
    """Parse model-file text into a validated :class:`ModelDef`."""
    name = None
    dim = None
    F = None
    box = None   # (text, line, column) of the box line
    phi: dict[int, object] = {}
    domain: list = []
    params: dict[str, float] = {}
    seen = set()   # single-valued keys: name, dim, F, box, phi<k>, param <p>

    def once(key, lineno):
        if key in seen:
            raise ModelSyntaxError(f"duplicate {key}", lineno, 1)
        seen.add(key)

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        pm = _PARAM_RE.match(line)
        if pm:
            pname, rhs = pm.group(1), pm.group(2)
            once(f"param {pname}", lineno)
            try:
                params[pname] = float(rhs.strip())
            except ValueError:
                params[pname] = math.nan
            if not math.isfinite(params[pname]):
                raise ModelSyntaxError(f"parameter {pname!r} needs a finite real literal",
                                       lineno, pm.start(2) + 1)
            continue
        hm = _HEADER_RE.match(line)
        if not hm:
            raise ModelSyntaxError("expected 'key = value'", lineno, 1)
        key, rhs = hm.group(1), hm.group(2).strip()
        rhs_col = hm.start(2) + 1
        if key in ("name", "dim", "F", "box") or _PHI_RE.match(key):
            once(key, lineno)
        if key == "name":
            name = rhs
        elif key == "dim":
            try:
                dim = int(rhs)
            except ValueError:
                raise ModelSyntaxError("dim needs an integer", lineno, rhs_col) from None
            if not 2 <= dim <= MAX_DIM:
                raise ModelSyntaxError(f"dim must be between 2 and {MAX_DIM}, got {dim}",
                                       lineno, rhs_col)
        elif key == "F":
            F = parse_expression(rhs, lineno, rhs_col)
        elif key == "domain":
            domain.append(parse_expression(rhs, lineno, rhs_col))
        elif key == "box":
            box = (rhs, lineno, rhs_col)
        else:
            phim = _PHI_RE.match(key)
            if phim:
                phi[int(phim.group(1))] = parse_expression(rhs, lineno, rhs_col)
            else:
                raise ModelSyntaxError(f"unknown key {key!r}", lineno, 1)

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
    if box is not None:
        text, lineno, col = box
        try:
            box = parse_box(text, 2 * dim)
        except ValueError as e:
            raise ModelSyntaxError(str(e), lineno, col) from None

    return ModelDef(name=name, dim=dim, F=F,
                    phi=tuple(phi[k] for k in range(1, dim + 1)),
                    domain=tuple(domain), params=dict(params), box=box)


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
