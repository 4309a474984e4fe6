"""Legendre polynomial kernels and Gauss quadrature.

Everything is built on the three-term recurrence
``(n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x)``,
which is numerically stable on [-1, 1].  It is written in three kernels:
``legendre_eval_range`` (one point, float64, mpmath big-float or exact
rational), ``legendre_range_array`` (many points, float64) and
``legendre_fixed_range`` (one point in fixed point on Python integers,
which the big-float partial sums read).  The float64 branch of
``legendre_eval_range`` reads n and n+1 as exact floats from a table that
grows on demand, so no step converts an int; it keeps the operation order
of the int-coefficient step and its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .precision import F64, FLOAT64, Number, PrecisionContext, dyadic, to_fixed


def _check_domain(x, ctx: PrecisionContext) -> Number:
    xv = ctx.convert(x)
    if xv > 1 or xv < -1:
        raise ValueError(f"x = {x} outside [-1, 1]")
    return xv


def legendre_eval(k: int, x, ctx: PrecisionContext = FLOAT64) -> Number:
    """Evaluate P_k(x) by the three-term recurrence in the context's arithmetic."""
    return legendre_eval_range(k, x, ctx)[k]


# float(k) for k = 0, 1, ...: the exact float coefficients of the f64 step
_FLOATS: list = [0.0, 1.0]


def _floats(kmax: int) -> list:
    """_FLOATS, grown to hold float(k) for k = 0..kmax."""
    _FLOATS.extend(map(float, range(len(_FLOATS), kmax + 1)))
    return _FLOATS


def legendre_eval_range(kmax: int, x, ctx: PrecisionContext = FLOAT64) -> list:
    """Return [P_0(x), ..., P_kmax(x)] from a single recurrence pass."""
    if kmax < 0:
        raise ValueError("degree must be nonnegative")
    xv = _check_domain(x, ctx)
    if ctx.mode == F64:
        # the step below with b, c = n, n+1 read as floats: b + c = 2n+1 exactly
        pm1, pn = 1.0, xv
        out = [pm1, pn][: kmax + 1]
        f = _floats(kmax)
        for b, c in zip(islice(f, 1, kmax), islice(f, 2, None)):
            pm1, pn = pn, ((b + c) * xv * pn - b * pm1) / c
            out.append(pn)
        return out
    with ctx.active():
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


def legendre_range_array(kmax: int, x: np.ndarray) -> np.ndarray:
    """Vectorized float64 recurrence: rows k = 0..kmax, columns the points x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for n in range(1, kmax):
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
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
            import mpmath

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
