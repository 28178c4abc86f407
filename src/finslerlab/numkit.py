"""Truncated multivariate Taylor ("jet") arithmetic and a finite-difference oracle.

A jet at a tangent-bundle point carries the Taylor coefficients of a scalar
field in the 2n coordinates (x1..xn, y1..yn).  The truncation is anisotropic:
coefficients are kept for every multi-index whose y-part has total degree
<= y_order and whose x-part has total degree <= x_order.  Direction (y)
derivatives up to fourth order drive the metric and curvature layers, and the
changed metric asks its base energy for one more, so a curvature check works
in the (5, 2) space: 560 slots in dim 3.  One x-order is enough for sprays and
nonlinear connections, and x-order 2 differentiates a nonlinear connection
once more in x (curvature).  The finite-difference oracle compares every
partial of total order <= 3, so it works in the (3, 3) space: 400 slots in
dim 3.  Coefficients are stored Taylor-normalized (coefficient of multi-index
a equals the partial derivative divided by a!).

Slot (a, b) holds x-block multi-index a and y-block multi-index b.  A space's
product table lists, row-major in (i, j), every slot pair whose multi-index
sum is a slot.  Each such pair is one x-block pair times one y-block pair, so
the table is built from the two block tables in memory and time proportional
to its pairs, never to size^2.

Every jet tracks how many y- and x-orders of its coefficients are still exact
(`y_valid`, `x_valid`).  Differentiation consumes one order; products and
compositions propagate the minimum.  Reading a coefficient beyond the valid
range raises.  Products and compositions compute only the coefficients inside
the result's valid orders and leave +0.0 past them; sums, scalar multiples
and derivatives carry whatever their operands hold there.  `value` and the
compositions refuse a jet whose validity fell below 0 in either block.  No
operation writes into a jet's coefficients, so jets may share them.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainEscape, EvalError

__all__ = [
    "FD_STEP",
    "Jet",
    "JetSpace",
    "jet_space",
    "FDStencils",
    "fd_derivative",
    "fd_stencils",
    "int_power",
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


@lru_cache(maxsize=None)
def _block_pairs(nvars: int, max_order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (bi, bj, bk) in `_simplex(nvars, max_order)` of every pair of
    multi-indices whose sum bk stays inside it, sorted by (bi, bj).  The
    simplex is graded, so the partners of a degree-d index are its first
    comb(nvars + max_order - d, nvars) entries."""
    block = _simplex(nvars, max_order)
    pos = {mi: k for k, mi in enumerate(block)}
    pairs = [(bi, bj, pos[tuple(map(operator.add, a, b))])
             for bi, a in enumerate(block)
             for bj, b in enumerate(block[:math.comb(nvars + max_order - sum(a), nvars)])]
    return tuple(np.array(c, dtype=np.intp) for c in zip(*pairs))


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
        # position of each coordinate's unit multi-index (None past the orders)
        self._unit = [self._pos.get(tuple(e)) for e in np.eye(2 * n, dtype=int).tolist()]
        units = [(v, k) for v, k in enumerate(self._unit) if k is not None]
        self._unit_rows = np.array([v for v, _ in units], dtype=np.intp)
        self._unit_cols = np.array([k for _, k in units], dtype=np.intp)
        self._tables = {}
        self._masks = {}
        self._pruned = {}
        self._index_arr = np.array(self.multi_indices, dtype=np.int64)
        self._factorials = np.array(
            [math.prod(math.factorial(e) for e in mi) for mi in self.multi_indices],
            dtype=np.float64,
        )
        self._build_mul_table(len(y_part))
        self._build_diff_maps()

    def _build_mul_table(self, ny):
        # outer sums of the block tables (slot (a, b) sits at a * ny + b),
        # then sorted row-major in (i, j)
        xi, xj, xk = _block_pairs(self.n, self.x_order)
        yi, yj, yk = _block_pairs(self.n, self.y_order)
        i, j, k = ((x[:, None] * ny + y).ravel() for x, y in ((xi, yi), (xj, yj), (xk, yk)))
        order = np.lexsort((j, i))
        self._mul_i, self._mul_j, self._mul_k = i[order], j[order], k[order]

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

    def _valid_slots(self, y_valid, x_valid) -> np.ndarray:
        """Mask of the slots whose multi-index lies inside the valid orders;
        built once per space and validity."""
        mask = self._masks.get((y_valid, x_valid))
        if mask is None:
            idx, n = self._index_arr, self.n
            mask = self._masks[y_valid, x_valid] = (
                (idx[:, n:].sum(axis=1) <= y_valid) & (idx[:, :n].sum(axis=1) <= x_valid))
        return mask

    def _product(self, a, b, y_valid, x_valid) -> np.ndarray:
        """Coefficients of the product of two coefficient vectors, valid to
        (y_valid, x_valid): the one product kernel of the ring.  Only the pairs
        whose target lies inside the valid orders are computed, in the full
        table's order, so each kept coefficient has the same bits as from the
        full table; the slots past the valid orders are +0.0."""
        if y_valid >= self.y_order and x_valid >= self.x_order:
            i, j, k = self._mul_i, self._mul_j, self._mul_k
        else:
            table = self._pruned.get((y_valid, x_valid))
            if table is None:
                keep = self._valid_slots(y_valid, x_valid)[self._mul_k]
                table = self._pruned[y_valid, x_valid] = (
                    self._mul_i[keep], self._mul_j[keep], self._mul_k[keep])
            i, j, k = table
        return np.bincount(k, weights=a[i] * b[j], minlength=self.size)

    def _index_table(self, multi_indices, key):
        """Positions and factorials of the given multi-indices; built once per
        space and `key`."""
        table = self._tables.get(key)
        if table is None:
            pos = np.array([self._pos[mi] for mi in multi_indices], dtype=np.intp)
            table = self._tables[key] = (pos, self._factorials[pos])
        return table

    def _read_table(self, axes):
        """Positions and factorials of the partials d/dv_1 ... d/dv_m, one per
        choice of v_a in axes[a]; built once per space and tuple of axes."""
        table = self._tables.get(axes)
        if table is None:
            pos = np.array([self._pos[tuple(np.bincount(vs, minlength=2 * self.n).tolist())]
                            for vs in itertools.product(*axes)], dtype=np.intp)
            pos = pos.reshape([len(a) for a in axes])
            table = self._tables[axes] = (pos, self._factorials[pos])
        return table

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
        k = self._unit[var]
        if k is not None:
            c[k] = 1.0
        return Jet(self, c)

    def lift(self, x, y) -> list["Jet"]:
        """Seed the 2n coordinate jets at the point (x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n,) or y.shape != (self.n,):
            raise ValueError(f"expected x and y of length {self.n}")
        c = np.zeros((2 * self.n, self.size))
        c[:, 0] = np.concatenate([x, y])
        c[self._unit_rows, self._unit_cols] = 1.0
        return [Jet(self, row) for row in c]

    def __repr__(self):
        return f"JetSpace(n={self.n}, y_order={self.y_order}, x_order={self.x_order})"


@lru_cache(maxsize=None)
def jet_space(n: int, y_order: int, x_order: int) -> JetSpace:
    return JetSpace(n, y_order, x_order)


_SCALARS = (int, float, np.floating, np.integer)


def int_power(base, k: int):
    """base ** k for an integer k >= 1 by square and multiply, from the lowest
    set bit of k.  Floats, float arrays and jets share this rule, so the three
    agree bit for bit (a float `x ** 2` would go through libm `pow`, which can
    differ from `x * x` in the last bit).  `base ** 1` is `base + 0.0`: a -0.0
    reads +0.0, as it does in a product."""
    if k == 1:
        return base + 0.0
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


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
        self._require_valid("value")
        return float(self.coeffs[0])

    def _require_valid(self, what):
        """Refuse a jet whose validity fell below 0: none of its slots is exact."""
        if self.y_valid < 0 or self.x_valid < 0:
            raise EvalError(f"{what} of a jet with exhausted valid orders "
                            f"(y_valid={self.y_valid}, x_valid={self.x_valid})")

    def is_zero(self) -> bool:
        """True when every coefficient inside the valid orders is zero."""
        return not np.any(self.coeffs[self.space._valid_slots(self.y_valid, self.x_valid)])

    # -- derivative access --------------------------------------------------

    def partials(self, *axes) -> np.ndarray:
        """Partial derivatives d/dv_1 ... d/dv_m for every choice of v_a in
        axes[a], a range of variable numbers inside the x- or the y-block, as
        an array: one gather, checked once against the valid orders."""
        mi = [0] * (2 * self.space.n)
        for a in axes:
            mi[a[0]] += 1
        self._check_extract(tuple(mi))
        pos, fact = self.space._read_table(axes)
        return self.coeffs[pos] * fact

    def partials_at(self, multi_indices) -> np.ndarray:
        """Partial derivatives at each of the given multi-indices, as an array:
        one gather, checked once against the valid orders at the highest x-
        and y-orders among them."""
        multi_indices = tuple(map(tuple, multi_indices))
        n = self.space.n
        for block in (slice(n, None), slice(None, n)):
            self._check_extract(max(multi_indices, key=lambda mi: sum(mi[block])))
        pos, fact = self.space._index_table(multi_indices, multi_indices)
        return self.coeffs[pos] * fact

    def restrict(self, y_order: int, x_order: int) -> "Jet":
        """This jet in the (y_order, x_order) space of its dimension, whose
        orders must be no higher than its own space's: its slots there, in one
        gather.  A product sums a coefficient over the same pairs in the same
        order in every space that holds its slot, and a composition's extra
        Horner steps in a larger space add exact zeros to it, so the result
        has the bits of the same computation run in the smaller space."""
        sp = self.space
        if y_order > sp.y_order or x_order > sp.x_order:
            raise ValueError(f"cannot restrict {sp!r} to orders ({y_order}, {x_order})")
        if (y_order, x_order) == (sp.y_order, sp.x_order):
            return self
        small = jet_space(sp.n, y_order, x_order)
        pos, _ = sp._index_table(small.multi_indices, small)
        return Jet(small, self.coeffs[pos], min(self.y_valid, y_order),
                   min(self.x_valid, x_order))

    def truncated(self, y_valid: int, x_valid: int) -> "Jet":
        """The same coefficients, read as valid to at most (y_valid, x_valid):
        products and compositions with it then compute only those orders."""
        return Jet(self.space, self.coeffs, min(self.y_valid, y_valid),
                   min(self.x_valid, x_valid))

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
    # A scalar operand stays a scalar: no constant jet is built for it, nor
    # for the 1 an integer power would start from (`int_power`, same bits).
    # Scalar + and - give the constant jet's bits, sign of zero included.
    # Scalar * and / give the float product's bits, coeffs * c: a zero
    # coefficient times a negative c reads -0.0, where the constant jet's
    # product, a bincount sum started at +0.0, would read +0.0.

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise EvalError("jets from different spaces")
            return other
        return NotImplemented

    def _affine(self, other, op):
        """op(self, other) for + and -.  A scalar c acts as its constant jet:
        op(value, c) on the value slot, op(coefficient, 0.0) on the others."""
        if isinstance(other, _SCALARS):
            c = op(self.coeffs, 0.0)
            c[0] = op(self.coeffs[0], float(other))
            return Jet(self.space, c, self.y_valid, self.x_valid)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(
            self.space,
            op(self.coeffs, o.coeffs),
            min(self.y_valid, o.y_valid),
            min(self.x_valid, o.x_valid),
        )

    def __add__(self, other):
        return self._affine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._affine(other, operator.sub)

    def __rsub__(self, other):
        return self._affine(other, lambda a, b: b - a)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.y_valid, self.x_valid)

    def __mul__(self, other):
        if isinstance(other, Jet):
            sp = self.space
            if other.space is not sp:
                raise EvalError("jets from different spaces")
            yv, xv = min(self.y_valid, other.y_valid), min(self.x_valid, other.x_valid)
            return Jet(sp, sp._product(self.coeffs, other.coeffs, yv, xv), yv, xv)
        if isinstance(other, _SCALARS):
            return Jet(self.space, self.coeffs * float(other), self.y_valid, self.x_valid)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            if abs(other) < 1e-300:
                raise EvalError("division by ~0")
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            k = int(exponent)
            if k < 0:
                return (self ** (-k))._reciprocal()
            if k == 0:
                out = self.space.constant(1.0)
                out.y_valid, out.x_valid = self.y_valid, self.x_valid
                return out
            return int_power(self, k)
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

    def _compose(self, taylor_coeff) -> "Jet":
        """f(self) where taylor_coeff(k) = f^(k)(value)/k!  (Horner in h = self - value)."""
        self._require_valid("composition")
        yv, xv = self.y_valid, self.x_valid
        K = yv + xv
        try:
            cs = [taylor_coeff(k) for k in range(K + 1)]
        except (OverflowError, ZeroDivisionError) as e:
            raise EvalError(f"series coefficient overflow at value {self.value!r}") from e
        sp = self.space
        if K == 0:
            return Jet(sp, sp.constant(cs[0]).coeffs, yv, xv)
        h = np.where(sp._valid_slots(yv, xv), self.coeffs, 0.0)
        h[0] = 0.0
        acc = h * cs[K] + 0.0   # the first product, constant(cs[K]) * h
        for k in range(K - 1, -1, -1):
            acc[0] += cs[k]
            if k:
                acc = sp._product(acc, h, yv, xv)
        return Jet(sp, acc, yv, xv)

    def _reciprocal(self) -> "Jet":
        v = self.value
        if abs(v) < 1e-300:
            raise EvalError("division by ~0")
        return self._compose(lambda k: (-1.0) ** k / v ** (k + 1))

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise EvalError(f"sqrt of non-positive value {v}")
        return self ** 0.5

    def exp(self) -> "Jet":
        v = self.value
        return self._compose(lambda k: math.exp(v) / math.factorial(k))

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
        value = self.value if min(self.y_valid, self.x_valid) >= 0 else None
        return (
            f"Jet(value={value!r}, y_valid={self.y_valid}, "
            f"x_valid={self.x_valid}, space={self.space!r})"
        )


# first-order central-difference step; higher-order stencils widen it (12x,
# 80x) so truncation and roundoff errors stay balanced
FD_STEP = 1e-5
_FD_WIDEN = {1: 1.0, 2: 12.0, 3: 80.0}

# offsets (in units of the step) and weights of 1-d central stencils, O(step^2)
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


class FDStencils(NamedTuple):
    """The central-difference stencils of every multi-index of total order
    1..3 over 2*dim coordinates (x first), in graded simplex order, at one
    step scale.  Stencil j owns the points start[j]:start[j + 1], in the order
    their weighted values are summed."""

    index: dict              # multi-index -> j
    start: np.ndarray        # (M + 1,)
    offset: np.ndarray       # (P, 2*dim) offsets of each point from the base
    axis: np.ndarray         # (P, 2*dim) True on the coordinates a stencil moves
    weight: np.ndarray       # (P,) product of the 1-d weights
    denominator: np.ndarray  # (M,) step ** order, multiplied over the moved axes


@lru_cache(maxsize=64)
def fd_stencils(dim: int, step_scale: float = 1.0) -> FDStencils:
    """The one table of stencils `fd_derivative` evaluates, cached per
    dimension and step scale.  Every axis of a stencil uses the step sized for
    the *total* order: the product of per-axis denominators scales like
    h^total, and a tight step on one axis of a mixed index would amplify
    roundoff through the others' h-powers."""
    nv = 2 * dim
    multis = [mi for mi in _simplex(nv, 3) if sum(mi)]
    offsets, axes, weights, start, denominators = [], [], [], [0], []
    for mi in multis:
        h = FD_STEP * _FD_WIDEN[sum(mi)] * step_scale
        moved = [(v, k) for v, k in enumerate(mi) if k]
        for combo in itertools.product(*[range(len(_STENCILS[k][0])) for _, k in moved]):
            off, w = np.zeros(nv), 1.0
            for (v, k), c in zip(moved, combo):
                offs, wts = _STENCILS[k]
                off[v] = offs[c] * h
                w *= wts[c]
            if w != 0.0:
                offsets.append(off)
                axes.append([k > 0 for k in mi])
                weights.append(w)
        start.append(len(offsets))
        denominators.append(math.prod(h**k for _, k in moved))
    return FDStencils({mi: j for j, mi in enumerate(multis)}, np.array(start),
                      np.array(offsets), np.array(axes), np.array(weights),
                      np.array(denominators))


def fd_derivative(f, x, y, multi_index, in_domain=None, step_scale: float = 1.0) -> float:
    """Central-difference estimate of a mixed partial of f(x, y).

    `multi_index` has length 2n (x-orders first, then y-orders) and total order
    <= 3.  The estimate is a tensor product of 1-d central stencils, each with
    O(step^2) truncation error, read off :func:`fd_stencils`; f is called once
    per stencil point.  If `in_domain` is given, every stencil point is
    screened through it first and a :class:`DomainEscape` is raised when one
    falls outside.  `step_scale` multiplies the widened FD_STEP.
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
    if not step_scale > 0.0:
        raise ValueError(f"step_scale must be > 0, got {step_scale!r}")
    if total == 0:
        return float(f(x, y))

    st = fd_stencils(n, step_scale)
    j = st.index[mi]
    point = np.concatenate([x, y])
    total_est = 0.0
    for r in range(st.start[j], st.start[j + 1]):
        p = np.where(st.axis[r], point + st.offset[r], point)
        px, py = p[:n], p[n:]
        if in_domain is not None and not in_domain(px, py):
            raise DomainEscape(f"finite-difference stencil point {p} left the domain")
        total_est += st.weight[r] * float(f(px, py))
    return float(total_est / st.denominator[j])
