"""Legendre polynomial kernels.

Everything is built on the three-term recurrence
``(n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x)``,
which is numerically stable on [-1, 1].  It is written in four kernels:
the float64 step loop ``_f64_extend`` (one point, read by
``legendre_eval_range`` and the row memo ``legendre_row``),
``legendre_fixed_range`` (one point in fixed point on Python integers, read
by the big-float sums, the big-float step and model-solution generators,
the FEM element sweep and ``legendre_eval_range``, at the scale
``fixed_scale`` gives a context), and two
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
from itertools import islice

import mpmath
import numpy as np

from .precision import F64, FLOAT64, Number, PrecisionContext, dyadic, to_fixed


def _check_domain(x, ctx: PrecisionContext) -> Number:
    xv = ctx.convert(x)
    if not -1 <= xv <= 1:  # NaN too
        raise ValueError(f"x = {x} outside [-1, 1]")
    return xv


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
    S = fixed_scale(xv, ctx.bits)
    out = legendre_fixed_range(kmax, xv, S)
    with ctx.active():
        for k, v in enumerate(out):
            out[k] = mpmath.mpf((v, -S))  # each value rounded once, in place
    return out


def fixed_scale(x, bits: int) -> int:
    """The scale S at which a context of ``bits`` bits reads round(P_k(x) 2^S):
    64 guard bits below its unit roundoff and below |x| (an odd P_k(x) is O(x))."""
    return bits + 64 + max(0, -math.frexp(float(x))[1])


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
    alias pn or pm1, and tmp is a work buffer of the same shape.  The row
    constants go to numpy as Python floats, the doubles it would convert
    the ints to."""
    np.multiply(x, float(2 * n + 1), out=dst)
    np.multiply(dst, pn, out=dst)
    np.multiply(pm1, float(n), out=tmp)
    np.subtract(dst, tmp, out=dst)
    np.divide(dst, float(n + 1), out=dst)


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
    live = np.searchsorted(-orders[perm], -np.arange(orders.max() + 1), side="right").tolist()
    cs = c[: len(live)].tolist()
    xs = x[perm]
    width = len(x)
    total = np.full(width, cs[0])
    pm1, pn, nxt, tmp, s = np.ones(width), xs.copy(), np.empty(width), np.empty(width), total
    for n in range(len(live) - 1):
        # row n + 1, on the columns whose order is at least n + 1
        if live[n + 1] < width:
            width = live[n + 1]
            xs, pm1, pn, nxt, tmp, s = (xs[:width], pm1[:width], pn[:width], nxt[:width],
                                        tmp[:width], s[:width])
        if n:
            _array_step(nxt, tmp, n, xs, pn, pm1)
            pm1, pn, nxt = pn, nxt, pm1
        np.multiply(pn, cs[n + 1], out=tmp)
        np.add(s, tmp, out=s)
    out = np.empty(len(x))
    out[perm] = total
    return out
