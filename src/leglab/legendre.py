"""Legendre polynomial kernels and Gauss quadrature.

Everything is built on the three-term recurrence
``(n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x)``,
which is numerically stable on [-1, 1].  It is written in four kernels:
the float64 step loop ``_f64_extend`` (one point, read by
``legendre_eval_range`` and the row memo ``legendre_row``),
``legendre_fixed_range`` (one point in fixed point on Python integers, read
by the big-float sums and ``legendre_eval_range``), and two
many-point float64 kernels, ``legendre_range_array`` (the table of rows
P_0..P_kmax) and ``legendre_sums_array`` (one partial sum
S_{orders[j]}(x[j]) per point, a running sum over rows with O(points)
memory).  The two array kernels share one step, ``_array_step``, written
with out= buffers and no temporaries.  The float64 step loop reads n and
n+1 as exact floats from a table that grows on demand, so no step converts
an int; it keeps the operation order of the int-coefficient step and its
bits, as the array step does.  ``legendre_row`` holds one read-only row per
point, keyed by ``x.hex()`` (-0.0 and 0.0 apart), grows it from its last two
values, so a grown row has the bits of one pass, and evicts the least
recently used rows beyond ``_ROW_BUDGET`` held floats.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice

import mpmath
import numpy as np

from .precision import BIG, F64, FLOAT64, Number, PrecisionContext, dyadic, to_fixed


def _check_domain(x, ctx: PrecisionContext) -> Number:
    xv = ctx.convert(x)
    if not -1 <= xv <= 1:  # NaN too
        raise ValueError(f"x = {x} outside [-1, 1]")
    return xv


def legendre_eval(k: int, x, ctx: PrecisionContext = FLOAT64) -> Number:
    """Evaluate P_k(x) by the three-term recurrence in the context's arithmetic."""
    return legendre_eval_range(k, x, ctx)[k]


_FLOATS: list = [0.0, 1.0]  # float(k) for k = 0, 1, ...: the exact coefficients of the f64 step


def _f64_extend(out: list, x: float, n: int, kmax: int) -> list:
    """Extend out = [.., P_{n-1}(x), P_n(x)] in place to P_kmax(x) by the f64 step
    with b, c = n, n+1 read as floats from _FLOATS: b + c = 2n+1 exactly."""
    _FLOATS.extend(map(float, range(len(_FLOATS), kmax + 1)))
    pm1, pn = out[-2:]
    for b, c in zip(islice(_FLOATS, n, kmax), islice(_FLOATS, n + 1, None)):
        pm1, pn = pn, ((b + c) * x * pn - b * pm1) / c
        out.append(pn)
    return out


_ROW_BUDGET = 1 << 17  # floats held by legendre_row over all points, about 1 MiB
_ROWS: OrderedDict = OrderedDict()  # x.hex() -> read-only row, least recently used first
_held = 0


def legendre_row(kmax: int, x) -> np.ndarray:
    """[P_0(x), ..., P_kmax(x)] in float64, a read-only view of the held row of x."""
    global _held
    if kmax < 0:
        raise ValueError("degree must be nonnegative")
    xv = _check_domain(x, FLOAT64)
    row = _ROWS.pop(xv.hex(), None)
    if row is None:
        row = np.array(_f64_extend([1.0, xv], xv, 1, kmax))
    else:
        _held -= len(row)
        if len(row) <= kmax:
            row = np.concatenate((row, _f64_extend(row[-2:].tolist(), xv, len(row) - 1, kmax)[2:]))
    row.flags.writeable = False
    _ROWS[xv.hex()] = row
    _held += len(row)
    while _held > _ROW_BUDGET:
        _held -= len(_ROWS.popitem(last=False)[1])
    return row[: kmax + 1]


def legendre_eval_range(kmax: int, x, ctx: PrecisionContext = FLOAT64) -> list:
    """Return [P_0(x), ..., P_kmax(x)] from a single recurrence pass."""
    if kmax < 0:
        raise ValueError("degree must be nonnegative")
    xv = _check_domain(x, ctx)
    if ctx.mode == F64:
        return _f64_extend([1.0, xv], xv, 1, kmax)[: kmax + 1]
    if ctx.mode == BIG:
        # fixed-point scale: 64 guard bits below |x| (an odd P_k(x) is O(x))
        S = ctx.bits + 64 + max(0, -math.frexp(float(xv))[1])
        out = legendre_fixed_range(kmax, xv, S)
        with ctx.active():
            for k, v in enumerate(out):
                out[k] = mpmath.mpf((v, -S))  # each value rounded once, in place
        return out
    # exact rationals
    pm1, pn = ctx.one(), xv
    out = [pm1, pn][: kmax + 1]
    for n in range(1, kmax):
        pm1, pn = pn, ((2 * n + 1) * xv * pn - n * pm1) / (n + 1)
        out.append(pn)
    return out


def legendre_fixed_range(kmax: int, x, S: int) -> list:
    """[round(P_k(x) 2^S) for k = 0..kmax], x a float or an mpf in [-1, 1].

    x is taken exactly as xn / 2^m, so each step
    P_{n+1} = ((2n+1) xn P_n - n 2^m P_{n-1}) / ((n+1) 2^m)
    is one exact integer product and one round-to-nearest division.
    """
    if kmax < 0:
        raise ValueError("degree must be nonnegative")
    xn, e = dyadic(x)
    m = -e
    if abs(xn) > 1 << m:
        raise ValueError(f"x = {x} outside [-1, 1]")
    pm1, pn = 1 << S, to_fixed(x, S)
    out = [pm1, pn][: kmax + 1]
    for n in range(1, kmax):
        num = (2 * n + 1) * xn * pn - ((n * pm1) << m)
        # floor(floor(t / (n+1)) / 2^(m+1)) = floor(t / ((n+1) 2^(m+1))): one rounding
        pm1, pn = pn, ((2 * num + ((n + 1) << m)) // (n + 1)) >> (m + 1)
        out.append(pn)
    return out


def _array_step(dst, tmp, n: int, x, pn, pm1):
    """dst = ((2n+1) x P_n - n P_{n-1}) / (n+1) for float64 arrays, in the
    operation order of the scalar step, through out= buffers: dst may not
    alias pn or pm1, and tmp is a work buffer of the same shape."""
    np.multiply(x, 2 * n + 1, out=dst)
    np.multiply(dst, pn, out=dst)
    np.multiply(pm1, n, out=tmp)
    np.subtract(dst, tmp, out=dst)
    np.divide(dst, n + 1, out=dst)


def legendre_range_array(kmax: int, x: np.ndarray) -> np.ndarray:
    """Vectorized float64 recurrence: rows k = 0..kmax, columns the points x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    tmp = np.empty_like(x)
    for n in range(1, kmax):
        _array_step(out[n + 1], tmp, n, x, out[n], out[n - 1])
    return out


def legendre_sums_array(coeffs, orders, x) -> np.ndarray:
    """Partial sums S_{orders[j]}(x[j]) = sum_{k <= orders[j]} c_k P_k(x[j]), float64.

    The columns are sorted stably by descending order, so row n of the
    recurrence updates only the prefix of columns whose order is at least n.
    Each row forms the term c_n P_n and adds it to a running sum, left to
    right, so every entry has the bits of
    ``np.cumsum(c[:, None] * legendre_range_array(kmax, x), axis=0)[orders[j], j]``
    while holding O(len(x)) floats: no table and no BLAS reduction.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    orders = np.asarray(orders, dtype=int)
    if x.ndim != 1 or orders.shape != x.shape:
        raise ValueError("orders and x must be one-dimensional and of equal length")
    if not len(x):
        return np.empty(0)
    if orders.min() < 0:
        raise ValueError("orders must be nonnegative")
    if orders.max() >= len(c):
        raise IndexError(f"order {orders.max()} exceeds the {len(c)} coefficients")
    perm = np.argsort(-orders, kind="stable")
    # live[n]: how many columns (a prefix, in sorted order) have order >= n
    live = np.searchsorted(-orders[perm], -np.arange(orders.max() + 1), side="right")
    xs = x[perm]
    total = np.full(len(x), c[0])
    pm1, pn, nxt, tmp, s = np.ones(len(x)), xs.copy(), np.empty(len(x)), np.empty(len(x)), total
    for n in range(len(live) - 1):
        # row n + 1, on the columns whose order is at least n + 1
        m = live[n + 1]
        if m < len(s):
            xs, pm1, pn, nxt, tmp, s = xs[:m], pm1[:m], pn[:m], nxt[:m], tmp[:m], s[:m]
        if n:
            _array_step(nxt, tmp, n, xs, pn, pm1)
            pm1, pn, nxt = pn, nxt, pm1
        np.multiply(pn, c[n + 1], out=tmp)
        np.add(s, tmp, out=s)
    out = np.empty(len(x))
    out[perm] = total
    return out


def bernstein_bound(k: int, x: float) -> float:
    """Envelope bound (1-x^2)^(-1/4) sqrt(2/(pi k)) for |P_k(x)| on the open interval."""
    if k < 1:
        raise ValueError("bound requires k >= 1")
    if not -1.0 < x < 1.0:
        raise ValueError("bound is valid only for |x| < 1")
    return (1.0 - x * x) ** -0.25 * math.sqrt(2.0 / (math.pi * k))


@dataclass
class QuadratureRule:
    """Gauss-Legendre nodes/weights; exact for polynomials of degree <= 2*order - 1."""

    nodes: list = field(repr=False)
    weights: list = field(repr=False)
    order: int = 0
    ctx: PrecisionContext = FLOAT64

    def integrate(self, f, lo=None, hi=None) -> Number:
        """Integrate a callable over [lo, hi] (default [-1, 1]) by affine mapping."""
        ctx = self.ctx
        with ctx.active():
            if lo is None and hi is None:
                return sum(w * f(t) for t, w in zip(self.nodes, self.weights))
            lo = ctx.convert(lo)
            hi = ctx.convert(hi)
            half = (hi - lo) / 2
            mid = (hi + lo) / 2
            return half * sum(w * f(mid + half * t) for t, w in zip(self.nodes, self.weights))


def gauss_rule(order: int, ctx: PrecisionContext = FLOAT64) -> QuadratureRule:
    """Gauss-Legendre rule by Newton iteration from Chebyshev initial guesses.

    Irrational nodes: exact-rational contexts are rejected.  Nodes are
    symmetrized about 0 so mirrored nodes agree bit for bit.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ctx.require_inexact("gauss_rule")
    if order == 1:
        return QuadratureRule([ctx.zero()], [ctx.convert(2)], 1, ctx)

    def leg_and_deriv(x):
        P = legendre_eval_range(order, x, ctx)
        return P[order], order * (P[order - 1] - x * P[order]) / (1 - x * x)

    with ctx.active():
        if ctx.mode == "f64":
            guesses = np.cos(np.pi * (4 * np.arange(order // 2) + 3) / (4 * order + 2))
            tol = 1e-15
        else:
            guesses = [mpmath.cos(mpmath.pi * (4 * i + 3) / (4 * order + 2)) for i in range(order // 2)]
            tol = ctx.eps * 256
        nodes_pos = []
        weights_pos = []
        for x0 in np.atleast_1d(guesses):
            x = ctx.convert(x0)
            for _ in range(400):
                pk, dpk = leg_and_deriv(x)
                dx = pk / dpk
                x = x - dx
                if abs(dx) <= tol * max(abs(x), 1):
                    break
            pk, dpk = leg_and_deriv(x)
            nodes_pos.append(x)
            weights_pos.append(2 / ((1 - x * x) * dpk * dpk))
        # nodes_pos is descending; assemble ascending with mirrored negatives
        nodes = [-t for t in nodes_pos]
        weights = list(weights_pos)
        if order % 2 == 1:
            _, dp0 = leg_and_deriv(ctx.zero())
            nodes.append(ctx.zero())
            weights.append(ctx.convert(2) / (dp0 * dp0))
        nodes.extend(reversed(nodes_pos))
        weights.extend(reversed(weights_pos))
        return QuadratureRule(nodes, weights, order, ctx)
