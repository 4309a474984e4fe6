"""Independent oracles the tests check the package against.

No verb, figure config or benchmark workload runs these: each recomputes a
quantity the package produces, by a route the package does not take.

* ``neumaier_sum``: the scalar compensated loop whose bits the float64
  running sums of ``series_eval`` keep;
* ``fixed_running_sums_loop``: the big-float running sums of
  ``series_eval`` as a per-term loop over the fixed-point terms, each
  difference rounded by one int / int division;
* ``binomial_moment_oracle``: the |x + 1|^beta power moments from the
  binomial expansion of (t - 1)^k, against the hypergeometric identity;
* ``quadrature_oracle_coeffs``: c_k = (k + 1/2) int f P_k by tanh-sinh
  quadrature, split at the singular points;
* ``piecewise_gauss_coeff``: the same integral by a Gauss rule on each side
  of one breakpoint, exact for the piecewise-polynomial families;
* ``squared_error_quadrature``: ||f - S_p||^2 by piecewise Gauss rules;
* ``model_norm_sq``: the squared L2 norm of the model solution, by a Gauss
  rule on each side of its kink;
* ``mode_derivatives``, ``fem_derivative`` and ``energy_norm_error``: the
  derivative of a FEM solution and its energy-norm error;
* ``element_error_loop``: the FEM element sweep as a scalar loop over the
  normalized modes, in the context's own arithmetic;
* ``model_coeffs_loop``: the float64 model-solution and constrained
  coefficients as scalar loops over the step coefficients;
* ``total_variation_loop``: the variation of a bounded-variation function
  on one window, jump by jump and piece by piece in Python floats;
* ``mu_fixed_loop``: the fixed-point modified-moment recurrence with its
  step coefficients formed anew at every k;
* ``mu_recurrence``: the |x - a|^beta coefficients from the same
  modified-moment recurrence in mpf arithmetic at a big-float context's
  precision.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import mpmath
import numpy as np

from leglab.functions import exact_solution
from leglab.pfem import internal_modes
from leglab.legendre import (gauss_rule, legendre_eval, legendre_eval_range,
                             legendre_fixed_range, legendre_sums_array)
from leglab.precision import FLOAT64, dyadic, to_fixed
from leglab.series_eval import _fixed_terms


def neumaier_sum(values) -> float:
    """Compensated float sum (Neumaier variant)."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def fixed_running_sums_loop(series, x, pmax: int, ctx, ref=None):
    """(d, S) of ``series_eval._running_sums`` in a big-float context, one term
    at a time: the exact running total of the terms round(t_k 2^S), S = bits
    + 64, and after each term the float of (R - total) / 2^S (total / 2^S
    without a reference), R = round(ref 2^S), by Python's correctly rounded
    division; S is the last total as an mpf."""
    S = ctx.bits + 64
    scale = 1 << S
    R = None if ref is None else to_fixed(ctx.convert(ref), S)
    sums, total = [], 0
    for t in _fixed_terms(series, x, pmax, ctx, S):
        total += t
        sums.append(total / scale if R is None else (R - total) / scale)
    with ctx.active():
        return np.array(sums), mpmath.mpf((total, -S))


def binomial_moment_oracle(k: int, beta, prec_bits: int = 256):
    """Independent closed form: substitute t = x + 1 and expand (t-1)^k binomially."""
    with mpmath.workprec(prec_bits):
        b = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        for j in range(k + 1):
            total += math.comb(k, j) * (-1) ** (k - j) * mpmath.mpf(2) ** (b + j + 1) / (b + j + 1)
        return total


def legendre_mpf(k: int, t):
    """P_k(t) at the working precision, rounded once: the fixed-point kernel
    with 64 guard bits below the size of t (an odd P_k(t) is O(t))."""
    S = mpmath.mp.prec + 64 + max(0, -math.frexp(float(t))[1])
    return mpmath.mpf((legendre_fixed_range(k, t, S)[k], -S))


def quadrature_oracle_coeffs(f: Callable, P: int, singular_points: Sequence[float] = (),
                             prec_bits: int = 128) -> list:
    """c_0..c_P as floats, c_k = (k + 1/2) int f P_k by tanh-sinh quadrature.

    The integration interval is split at every singular point, which keeps
    algebraic endpoint singularities harmless for tanh-sinh.  Meant for
    modest k.
    """
    pts = sorted({-1.0, 1.0} | {float(s) for s in singular_points if -1 < float(s) < 1})
    with mpmath.workprec(prec_bits):
        coeffs = []
        for k in range(P + 1):
            def integrand(t, k=k):
                # f must accept mpf input so the node-to-singularity distance
                # keeps full precision under tanh-sinh clustering
                return mpmath.mpf(f(t)) * legendre_mpf(k, t)

            total = mpmath.mpf(0)
            for lo, hi in zip(pts[:-1], pts[1:]):
                total += mpmath.quad(integrand, [lo, hi])
            coeffs.append(float(total * (2 * k + 1) / 2))
    return coeffs


def piecewise_gauss_coeff(f: Callable[[float], float], a: float, k: int) -> float:
    """(k + 1/2) int f P_k by a Gauss rule on [-1, a] and on [a, 1].

    The rule of order k // 2 + 2 is exact when f is linear on each piece.
    """
    rule = gauss_rule(k // 2 + 2)

    def g(t):
        return f(t) * legendre_eval(k, t)

    return (2 * k + 1) / 2 * (rule.integrate(g, -1, a) + rule.integrate(g, a, 1))


def squared_error_quadrature(series, exact_fn: Callable[[float], float],
                             p: int, breakpoints: Sequence[float] = ()) -> float:
    """||f - S_p||^2, split at the target's breakpoints.

    Uses a Gauss rule of order p + 3 per piece, exact whenever f is
    polynomial between breakpoints (the piecewise families here).
    """
    pts = sorted({-1.0, 1.0} | {float(b) for b in breakpoints if -1 < float(b) < 1})
    rule = gauss_rule(p + 3, FLOAT64)
    nodes = np.array(rule.nodes)
    weights = np.array(rule.weights)
    coeffs = series.as_floats()
    orders = np.full(len(nodes), p)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        sp = legendre_sums_array(coeffs, orders, xm)
        fx = np.array([exact_fn(t) for t in xm])
        total += 0.5 * (hi - lo) * float(np.sum(weights * (fx - sp) ** 2))
    return total


def model_norm_sq(a: float) -> float:
    """int exact_solution(t, a)^2 over [-1, 1] by a 6-point Gauss rule on
    [-1, a] and on [a, 1], exact for the piecewise-quadratic integrand."""
    rule = gauss_rule(6)

    def sq(t):
        return exact_solution(t, a) ** 2

    return float(rule.integrate(sq, -1, a) + rule.integrate(sq, a, 1))


def mode_derivatives(p: int, xi: float, he: float) -> list:
    """d/dx N_k = (2/h) sqrt((2k-1)/2) P_{k-1}(xi) for k = 2..p on an element of width h."""
    Pk = legendre_eval_range(p - 1, xi, FLOAT64)
    return [(2.0 / he) * math.sqrt((2 * k - 1) / 2.0) * Pk[k - 1] for k in range(2, p + 1)]


def fem_derivative(sol, e: int, x: float) -> float:
    """u_p'(x) on element e of a FEM solution."""
    lo, hi = sol.mesh.nodes[e], sol.mesh.nodes[e + 1]
    he = hi - lo
    xi = (2.0 * x - (lo + hi)) / he
    val = (float(sol.nodal[e + 1]) - float(sol.nodal[e])) / he
    coeffs = sol.internal[e]
    for ck, dn in zip(coeffs, mode_derivatives(len(coeffs) + 1, xi, he)):
        val += float(ck) * dn
    return val


def energy_norm_error(sol, order: int = 60) -> float:
    """||u - u_p||_E by exact piecewise Gauss quadrature of the derivative error."""
    mesh, a = sol.mesh, sol.a
    rule = gauss_rule(order, FLOAT64)
    total = 0.0
    for e in range(mesh.n_elements):
        lo, hi = mesh.nodes[e], mesh.nodes[e + 1]
        pieces = [(lo, a), (a, hi)] if lo < a < hi else [(lo, hi)]
        for plo, phi in pieces:
            if phi <= plo:
                continue

            def dsq(t, e=e):
                du = fem_derivative(sol, e, float(t))
                c = (a - 1.0) / 2.0
                due = c if t < a else 1.0 + c
                return (due - du) ** 2

            total += float(rule.integrate(dsq, plo, phi))
    return total ** 0.5


def element_error_loop(sol, x: float, pmax: int) -> list:
    """|u(x) - u_p(x)| for p = 1..pmax on the loaded element: the modes
    N_2..N_{pmax+1} at the load point and at x, each term -(h/2) N_k(xi_a)
    N_k(xi_x) added to the linear part in the context's arithmetic, each
    error rounded to float from the context's number."""
    mesh, a, ctx = sol.mesh, sol.a, sol.ctx
    s = mesh.element_of(a)
    he = mesh.width(s, ctx)
    xi_a, xi_x = mesh.to_reference(s, a, ctx), mesh.to_reference(s, x, ctx)
    with ctx.active():
        na = internal_modes(pmax + 1, xi_a, ctx)
        nx = internal_modes(pmax + 1, xi_x, ctx)
        ul, ur = ctx.convert(sol.nodal[s]), ctx.convert(sol.nodal[s + 1])
        total = ul * (1 - xi_x) / 2 + ur * (1 + xi_x) / 2
        exact = ctx.convert(exact_solution(float(x), a))
        errs = []
        for i in range(pmax):
            total += -(he / 2) * na[i] * nx[i]
            errs.append(abs(float(exact - total)))
    return errs


def model_coeffs_loop(ak: list, P: int, constrained: bool = False) -> list:
    """From the step coefficients a_k, float64: the model solution's
    c_0 = -a_1/3, c_k = a_{k-1}/(2k-1) - a_{k+1}/(2k+3) for k = 1..P, or the
    order-P constrained b_0..b_{P+1}, whose top two drop the a_{k+1} term."""
    coeffs = [-ak[1] / 3]
    for k in range(1, P if constrained else P + 1):
        coeffs.append(ak[k - 1] / (2 * k - 1) - ak[k + 1] / (2 * k + 3))
    if constrained:
        coeffs.append(ak[P - 1] / (2 * P - 1))
        coeffs.append(ak[P] / (2 * P + 1))
    return coeffs


def total_variation_loop(f, lo: float, hi: float) -> float:
    """Total variation of a ``bounds.BVFunction`` on [lo, hi]: every jump
    inside the window, half of one on its edge, then each monotone piece's
    endpoint difference over its part of the window."""
    total = 0.0
    for j in f.jumps:
        if lo < j.location < hi:
            total += j.size
        elif j.location == lo or j.location == hi:
            total += 0.5 * j.size
    for (plo, phi, g) in f.pieces:
        wlo, whi = max(lo, plo), min(hi, phi)
        if wlo < whi:
            total += abs(g(whi) - g(wlo))
    return total


def mu_fixed_loop(a: float, beta: float, P: int, M0: int, M1: int) -> list:
    """M_0..M_P of the modified-moment recurrence from the fixed-point
    values M0, M1: a and beta as dyadic rationals an/ad and bn/bd, and
    ad (bn + (k+2) bd) M_{k+1} = an bd (2k+1) M_k + ad (bn + (1-k) bd) M_{k-1}
    solved by one round-to-nearest integer division per step."""
    an, ea = dyadic(a)
    bn, eb = dyadic(beta)
    ad, bd = 1 << -ea, 1 << -eb
    out = [M0, M1]
    m_prev, m = M0, M1
    for k in range(1, P):
        den = ad * (bn + (k + 2) * bd)
        num = an * bd * (2 * k + 1) * m + ad * (bn + (1 - k) * bd) * m_prev
        m_prev, m = m, (2 * num + den) // (2 * den)
        out.append(m)
    return out[: P + 1]


def mu_recurrence(a: float, beta: float, P: int, ctx) -> list:
    """c_0..c_P of |x - a|^beta as mpfs of the big-float context ctx: mu_0 and
    mu_1 from their closed forms, then
    (beta + k + 2) mu_{k+1} = a (2k+1) mu_k + (beta + 1 - k) mu_{k-1}
    with every operation rounded to ctx, and c_k = (2k+1) mu_k / 2."""
    with ctx.active():
        b = ctx.convert(beta)
        av = ctx.convert(a)
        om, op = 1 - av, 1 + av
        mu_prev = (om ** (b + 1) + op ** (b + 1)) / (b + 1)
        mu = av * mu_prev + (om ** (b + 2) - op ** (b + 2)) / (b + 2)
        out = [mu_prev / 2, 3 * mu / 2]
        for k in range(1, P):
            mu_prev, mu = mu, (av * (2 * k + 1) * mu + (b + 1 - k) * mu_prev) / (b + k + 2)
            out.append((2 * k + 3) * mu / 2)
        return out[: P + 1]
