"""Truncated multivariate Taylor ("jet") arithmetic and a finite-difference oracle.

A jet at a tangent-bundle point carries the Taylor coefficients of a scalar
field in the 2n coordinates (x1..xn, y1..yn).  The truncation is anisotropic:
coefficients are kept for every multi-index whose y-part has total degree
<= y_order and whose x-part has total degree <= x_order.  Direction (y)
derivatives up to third order drive the metric layer; a single x-order is
enough for sprays and nonlinear connections, and x-order 2 is needed only to
differentiate a nonlinear connection once more in x (curvature).  Coefficients
are stored Taylor-normalized (coefficient of multi-index a equals the partial
derivative divided by a!).

Every jet tracks how many y- and x-orders of its coefficients are still exact
(`y_valid`, `x_valid`).  Differentiation consumes one order; products and
compositions propagate the minimum.  Reading a coefficient beyond the valid
range raises instead of silently returning a truncation artifact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainEscape, EvalError

__all__ = [
    "DiffConfig",
    "Jet",
    "JetSpace",
    "jet_space",
    "fd_derivative",
]


def _simplex(nvars: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices over `nvars` variables with total degree <= max_order, graded."""
    out = []
    for total in range(max_order + 1):
        for slots in itertools.combinations_with_replacement(range(nvars), total):
            alpha = [0] * nvars
            for v in slots:
                alpha[v] += 1
            out.append(tuple(alpha))
    return out


class JetSpace:
    """Coefficient layout and precomputed tables for one (n, y_order, x_order) config.

    Spaces are cached; use :func:`jet_space` rather than the constructor.
    """

    def __init__(self, n: int, y_order: int, x_order: int):
        if n < 1 or y_order < 0 or x_order < 0:
            raise ValueError("need n >= 1 and non-negative truncation orders")
        self.n = n
        self.y_order = y_order
        self.x_order = x_order
        x_part = _simplex(n, x_order)
        y_part = _simplex(n, y_order)
        # index 0 is the value slot (all-zero multi-index)
        self.multi_indices = [bx + ay for bx in x_part for ay in y_part]
        self.size = len(self.multi_indices)
        self._pos = {mi: k for k, mi in enumerate(self.multi_indices)}
        self._index_arr = np.array(self.multi_indices, dtype=np.int64)
        self._factorials = np.array(
            [math.prod(math.factorial(e) for e in mi) for mi in self.multi_indices],
            dtype=np.float64,
        )
        self._build_mul_table()
        self._build_diff_maps()

    def _build_mul_table(self):
        # Encode each multi-index as an integer; component sums never reach the
        # base, so key(a) + key(b) == key(a + b).
        base = 2 * max(self.y_order, self.x_order, 1) + 1
        basis = base ** np.arange(2 * self.n, dtype=np.int64)
        keys = self._index_arr @ basis
        order = np.argsort(keys)
        sorted_keys = keys[order]
        pair = keys[:, None] + keys[None, :]
        slot = np.searchsorted(sorted_keys, pair)
        slot[slot >= self.size] = self.size - 1
        hit = sorted_keys[slot] == pair
        i_idx, j_idx = np.nonzero(hit)
        self._mul_i = i_idx.astype(np.intp)
        self._mul_j = j_idx.astype(np.intp)
        self._mul_k = order[slot[hit]].astype(np.intp)

    def _build_diff_maps(self):
        # For g = df/dv: g_beta = (beta_v + 1) * f_{beta + e_v}
        self._diff = []
        for v in range(2 * self.n):
            dst, src, mult = [], [], []
            for k, mi in enumerate(self.multi_indices):
                up = list(mi)
                up[v] += 1
                j = self._pos.get(tuple(up))
                if j is not None:
                    dst.append(k)
                    src.append(j)
                    mult.append(up[v])
            self._diff.append(
                (
                    np.array(dst, dtype=np.intp),
                    np.array(src, dtype=np.intp),
                    np.array(mult, dtype=np.float64),
                )
            )

    def pos(self, multi_index) -> int:
        return self._pos[tuple(multi_index)]

    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.size))

    def constant(self, value: float) -> "Jet":
        c = np.zeros(self.size)
        c[0] = float(value)
        return Jet(self, c)

    def coordinate(self, var: int, value: float) -> "Jet":
        """Jet of the coordinate function number `var` (x-block first, then y-block)."""
        c = np.zeros(self.size)
        c[0] = float(value)
        e = [0] * (2 * self.n)
        e[var] = 1
        k = self._pos.get(tuple(e))
        if k is not None:
            c[k] = 1.0
        return Jet(self, c)

    def lift(self, x, y) -> list["Jet"]:
        """Seed the 2n coordinate jets at the point (x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n,) or y.shape != (self.n,):
            raise ValueError(f"expected x and y of length {self.n}")
        return [self.coordinate(v, val) for v, val in enumerate(np.concatenate([x, y]))]

    def __repr__(self):
        return f"JetSpace(n={self.n}, y_order={self.y_order}, x_order={self.x_order})"


@lru_cache(maxsize=None)
def jet_space(n: int, y_order: int, x_order: int) -> JetSpace:
    return JetSpace(n, y_order, x_order)


class Jet:
    """One truncated Taylor expansion living in a :class:`JetSpace`."""

    __slots__ = ("space", "coeffs", "y_valid", "x_valid")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, y_valid=None, x_valid=None):
        self.space = space
        self.coeffs = coeffs
        self.y_valid = space.y_order if y_valid is None else y_valid
        self.x_valid = space.x_order if x_valid is None else x_valid

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    # -- coefficient access -------------------------------------------------

    def coefficient(self, multi_index) -> float:
        """Taylor coefficient (partial / a!) at the given (x..., y...) multi-index."""
        mi = tuple(multi_index)
        self._check_extract(mi)
        return float(self.coeffs[self.space.pos(mi)])

    def partial(self, multi_index) -> float:
        """Partial derivative at the given multi-index."""
        mi = tuple(multi_index)
        self._check_extract(mi)
        k = self.space.pos(mi)
        return float(self.coeffs[k] * self.space._factorials[k])

    def _check_extract(self, mi):
        n = self.space.n
        xo = sum(mi[:n])
        yo = sum(mi[n:])
        if yo > self.y_valid or xo > self.x_valid:
            raise EvalError(
                f"coefficient {mi} beyond valid truncation "
                f"(y_valid={self.y_valid}, x_valid={self.x_valid})"
            )

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise EvalError("jets from different spaces")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self.space.constant(float(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(
            self.space,
            self.coeffs + o.coeffs,
            min(self.y_valid, o.y_valid),
            min(self.x_valid, o.x_valid),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(
            self.space,
            self.coeffs - o.coeffs,
            min(self.y_valid, o.y_valid),
            min(self.x_valid, o.x_valid),
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.y_valid, self.x_valid)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.coeffs * float(other), self.y_valid, self.x_valid)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        sp = self.space
        prod = np.bincount(
            sp._mul_k,
            weights=self.coeffs[sp._mul_i] * o.coeffs[sp._mul_j],
            minlength=sp.size,
        )
        return Jet(sp, prod, min(self.y_valid, o.y_valid), min(self.x_valid, o.x_valid))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if abs(other) < 1e-300:
                raise EvalError("division by ~0")
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            k = int(exponent)
            if k < 0:
                return (self ** (-k))._reciprocal()
            out = self.space.constant(1.0)
            out.y_valid, out.x_valid = self.y_valid, self.x_valid
            base = self
            while k:
                if k & 1:
                    out = out * base
                base = base * base if k > 1 else base
                k >>= 1
            return out
        # real exponent: principal branch, positive base only
        v = self.value
        if v <= 0.0:
            raise EvalError(f"{v} ** {exponent}: non-integer power needs a positive base")
        p = float(exponent)

        def dk(k):
            c = 1.0
            for i in range(k):
                c *= (p - i) / (i + 1)
            return c * v ** (p - k)

        return self._compose(dk)

    # -- analytic functions via univariate Taylor composition ----------------

    def _terms(self) -> int:
        return self.y_valid + self.x_valid

    def _compose(self, taylor_coeff) -> "Jet":
        """f(self) where taylor_coeff(k) = f^(k)(value)/k!  (Horner in h = self - value)."""
        K = self._terms()
        if K < 0:
            raise EvalError("composition on a jet with exhausted valid orders")
        h = self - self.value
        try:
            cs = [taylor_coeff(k) for k in range(K + 1)]
        except (OverflowError, ZeroDivisionError) as e:
            raise EvalError(f"series coefficient overflow at value {self.value!r} "
                            f"(too close to a singularity)") from e
        acc = self.space.constant(cs[K])
        acc.y_valid, acc.x_valid = self.y_valid, self.x_valid
        for k in range(K - 1, -1, -1):
            acc = acc * h + cs[k]
        return acc

    def _reciprocal(self) -> "Jet":
        v = self.value
        if abs(v) < 1e-300:
            raise EvalError("division by ~0")
        return self._compose(lambda k: (-1.0) ** k / v ** (k + 1))

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise EvalError(f"sqrt of non-positive value {v}")

        def dk(k):
            c = 1.0
            for i in range(k):
                c *= (0.5 - i) / (i + 1)
            return c * v ** (0.5 - k)

        return self._compose(dk)

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        return self._compose(lambda k: e / math.factorial(k))

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise EvalError(f"log of non-positive value {v}")
        return self._compose(
            lambda k: math.log(v) if k == 0 else (-1.0) ** (k - 1) / (k * v**k)
        )

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cyc = (s, c, -s, -c)
        return self._compose(lambda k: cyc[k % 4] / math.factorial(k))

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cyc = (c, -s, -c, s)
        return self._compose(lambda k: cyc[k % 4] / math.factorial(k))

    def __abs__(self):
        v = self.value
        if v == 0.0:
            raise EvalError("abs at zero is not differentiable")
        return self if v > 0 else -self

    # -- differentiation ------------------------------------------------------

    def diff(self, var: int) -> "Jet":
        """Derivative w.r.t. variable `var` (0..n-1 the x-block, n..2n-1 the y-block)."""
        sp = self.space
        dst, src, mult = sp._diff[var]
        out = np.zeros(sp.size)
        out[dst] = self.coeffs[src] * mult
        if var < sp.n:
            return Jet(sp, out, self.y_valid, self.x_valid - 1)
        return Jet(sp, out, self.y_valid - 1, self.x_valid)

    def diff_x(self, i: int) -> "Jet":
        return self.diff(i)

    def diff_y(self, i: int) -> "Jet":
        return self.diff(self.space.n + i)

    def __repr__(self):
        return (
            f"Jet(value={self.value!r}, y_valid={self.y_valid}, "
            f"x_valid={self.x_valid}, space={self.space!r})"
        )


@dataclass(frozen=True)
class DiffConfig:
    """Step of the central-difference oracle.

    `fd_step` is the first-order central-difference step; higher-order stencils
    widen it (12x, 80x) so truncation and roundoff errors stay balanced.  Jet
    truncation orders are not set here: each pipeline picks its `jet_space`.
    """

    fd_step: float = 1e-5

    def __post_init__(self):
        if self.fd_step <= 0:
            raise ValueError("fd_step must be > 0")

    def step_for_order(self, k: int) -> float:
        return self.fd_step * {1: 1.0, 2: 12.0, 3: 80.0}[k]


# offsets (in units of the step) and weights of 1-d central stencils, O(step^2)
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}

DEFAULT_DIFF_CONFIG = DiffConfig()


def fd_derivative(f, x, y, multi_index, config: DiffConfig = DEFAULT_DIFF_CONFIG,
                  in_domain=None, step_scale: float = 1.0) -> float:
    """Central-difference estimate of a mixed partial of f(x, y).

    `multi_index` has length 2n (x-orders first, then y-orders) and total order
    <= 3.  The estimate is a tensor product of 1-d central stencils, each with
    O(step^2) truncation error.  If `in_domain` is given, every stencil point
    is screened through it first and a :class:`DomainEscape` is raised when one
    falls outside.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    mi = tuple(int(m) for m in multi_index)
    if len(mi) != 2 * n:
        raise ValueError(f"multi_index must have length {2 * n}")
    if any(m < 0 for m in mi):
        raise ValueError("multi_index entries must be >= 0")
    total = sum(mi)
    if total > 3:
        raise ValueError("fd_derivative supports total order <= 3")
    if total == 0:
        return float(f(x, y))

    # all stencil axes use the step sized for the *total* order: the product of
    # per-axis denominators scales like h^total, and a tight step on one axis
    # of a mixed index would amplify roundoff through the others' h-powers
    h = config.step_for_order(total) * step_scale
    axes = []  # (variable, offsets scaled by step, weights, step**order)
    for v, k in enumerate(mi):
        if k == 0:
            continue
        offs, wts = _STENCILS[k]
        axes.append((v, [o * h for o in offs], wts, h**k))

    point = np.concatenate([x, y])
    total_est = 0.0
    for combo in itertools.product(*[range(len(a[1])) for a in axes]):
        p = point.copy()
        w = 1.0
        for (v, offs, wts, _), c in zip(axes, combo):
            p[v] += offs[c]
            w *= wts[c]
        if w == 0.0:
            continue
        px, py = p[:n], p[n:]
        if in_domain is not None and not in_domain(px, py):
            raise DomainEscape(f"finite-difference stencil point {p} left the domain")
        total_est += w * float(f(px, py))
    scale = math.prod(a[3] for a in axes)
    return total_est / scale
