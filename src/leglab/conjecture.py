"""Automated verification of the expansion-error law for |x - a|^beta.

Five clauses are checked per parameter point:

1. interior points converge at rate beta + 1;
2. the interior constant grows like xi^(-1/4) toward the endpoints;
3. and like xi^(-1) toward the singular point;
4. the endpoints converge at rate beta + 1/2 (divergence with growth
   |beta + 1/2| below -1/2; bounded non-convergent sums at -1/2 exactly);
5. the singular point itself shows rate beta (growth |beta| for negative
   beta; for beta = 0 the jump family converges to the limit mean at rate 1).

"Rate 0" is always read as "bounded, non-Cauchy partial sums".  Fits that
stay preasymptotic after escalating pmax are marked as such rather than
failed.  Each cell (one point, or one side of a growth probe) is its own
verdict: a precision that cannot be certified there is that cell's error
verdict, and its siblings keep their measurements.  The acceptance bands
are fixed: RATE_TOL, RATE_TOL_DEEP_SINGULAR for beta <= -0.7, GROWTH_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functions import Family, PowerShiftFamily, check_distinct, family_from_config
from .precision import FLOAT64, PrecisionContext, PrecisionError, bigfloat
from .ratefit import (FitUnreliable, Record, bounded_oscillation_check, coefficient_ctx,
                      constant_growth, escalated_sweeps, fit_rate)
from .series_eval import partial_sum_values


# acceptance bands: rate exponents, rate exponents for beta <= -0.7 (long
# preasymptotics near beta = -1), and growth exponents
RATE_TOL = 0.05
RATE_TOL_DEEP_SINGULAR = 0.10
GROWTH_TOL = 0.10


def rate_tol(beta: float) -> float:
    return RATE_TOL_DEEP_SINGULAR if beta <= -0.7 else RATE_TOL


@dataclass
class ConjectureVerdict(Record):
    clause: int
    params: dict
    measured: Optional[float]
    conjectured: Optional[float]
    tolerance: float
    status: str  # pass | fail | preasymptotic | error (a precision the cell cannot certify)
    fit: Optional[dict] = None
    detail: str = ""


def conjecture_family(beta: float, a: float) -> Family:
    """The target at one grid point; ``family_from_config`` holds the previous
    call's family, so the clauses of a point share its memoized coefficient
    series."""
    if beta == 0.0:
        return family_from_config("step", {"a": a})
    return family_from_config("powerabs", {"beta": beta, "a": a})


def measured_rate(family: Family, x: float, pmax: int = 2200, ceiling: int = 10000,
                  magnitude: bool = False, ctx: PrecisionContext = FLOAT64):
    """Fit with automatic pmax escalation; returns (fit or None, status, pmax used)."""
    exact = (lambda _x: None) if magnitude else family.exact
    for sweep in escalated_sweeps(family, exact, x, pmax, ceiling, ctx):
        if np.max(sweep.abs_error) == 0.0:
            return None, "exact", sweep.pmax
        try:
            return fit_rate(sweep), "ok", sweep.pmax
        except FitUnreliable as exc:
            status = f"preasymptotic ({exc})"
    return None, status, sweep.pmax


def _rate_cell(clause, params, family, x, expected, tol, pmax, magnitude=False,
               ceiling=10000, ctx=FLOAT64) -> ConjectureVerdict:
    """The verdict at x: where the expected rate is 0 the bounded
    non-convergence check, where magnitude is asked for the growth of
    |S_p(x)|, otherwise the error decay.  A precision the cell cannot certify
    is its error verdict."""
    bounded = abs(expected) < 1e-12
    if bounded:
        expected, tol = 0.0, 0.0
    try:
        if bounded:
            # rate 0: the float64 partial sums at x stay bounded but keep oscillating
            values = partial_sum_values(family.series(pmax + 1, coefficient_ctx(ctx)), x, pmax,
                                        FLOAT64)
            chk = bounded_oscillation_check(values, np.arange(1, pmax + 1),
                                            windows=((pmax // 4, pmax // 2), (pmax // 2, pmax)))
            ok = chk["bounded"] and chk["non_cauchy"]
            return ConjectureVerdict(clause, params, 0.0, 0.0, 0.0, "pass" if ok else "fail",
                                     None, detail=f"rate 0, bounded non-convergence check: {chk}")
        fit, status, pm = measured_rate(family, x, pmax, ceiling, magnitude, ctx)
    except PrecisionError as exc:
        return ConjectureVerdict(clause, params, None, expected, tol, "error", detail=str(exc))
    if fit is not None:
        ok = abs(fit.alpha - expected) <= tol
        v = ConjectureVerdict(clause, params, fit.alpha, expected, tol,
                              "pass" if ok else "fail", fit.to_dict(), detail=f"pmax={pm}")
    elif status == "exact":
        # degenerate symmetry: the truncation error vanishes identically
        v = ConjectureVerdict(clause, params, None, expected, tol, "pass",
                              detail="error identically zero (exact by symmetry)")
    else:
        v = ConjectureVerdict(clause, params, None, expected, tol, "preasymptotic",
                              detail=f"{status}; pmax={pm}")
    if magnitude:
        v.detail += f" divergence growth p^{abs(expected):.3g}"
    return v


def _growth_cell(clause, params, family, point, side, fixed_alpha, expected, xi_grid, pmax,
                 **growth) -> ConjectureVerdict:
    """The verdict on the growth exponent of C(point + side xi); a precision
    the cell cannot certify is its error verdict."""
    try:
        fit = constant_growth(family, point, side, xi_grid, fixed_alpha, pmax=pmax, **growth)
    except (FitUnreliable, PrecisionError) as exc:
        status = "error" if isinstance(exc, PrecisionError) else "preasymptotic"
        return ConjectureVerdict(clause, params, None, expected, GROWTH_TOL, status,
                                 detail=str(exc))
    ok = abs(fit.exponent - expected) <= GROWTH_TOL
    return ConjectureVerdict(clause, params, fit.exponent, expected, GROWTH_TOL,
                             "pass" if ok else "fail", fit.to_dict())


def clause1_interior(beta: float, a: float, pmax: int = 2200) -> list:
    family = conjecture_family(beta, a)
    return [_rate_cell(1, {"beta": beta, "a": a, "x": x}, family, x, beta + 1.0,
                       rate_tol(beta), pmax)
            for x in ((a - 1.0) / 2.0, (a + 1.0) / 2.0)]


# the growth probes xi = 10^-1 .. 10^-2.5 of clause 3 and of the powershift suite
HALF_DECADES = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5]


def clause2_boundary_growth(beta: float, a: float, pmax: int = 2200) -> list:
    """C(-1 + xi), C(1 - xi) ~ xi^(-1/4) with the interior rate pinned, at
    xi = 10^-1 .. 10^-4.

    Probes stay within a quarter of the distance from the endpoint to a."""
    family = conjecture_family(beta, a)
    return [_growth_cell(2, {"beta": beta, "a": a, "point": point, "side": side}, family,
                         point, side, beta + 1.0, -0.25, [1e-1, 1e-2, 1e-3, 1e-4], pmax,
                         xi_cap=abs(point - a) / 4)
            for point, side in ((-1.0, +1), (1.0, -1))]


def clause3_singular_growth(beta: float, a: float, pmax: int = 2200) -> list:
    """C(a +- xi) ~ xi^(-1) with the interior rate pinned, at HALF_DECADES.

    Probes stay within a quarter of the distance from a to the nearer endpoint."""
    family = conjecture_family(beta, a)
    return [_growth_cell(3, {"beta": beta, "a": a, "point": a, "side": side}, family,
                         a, side, beta + 1.0, -1.0, HALF_DECADES, pmax,
                         xi_cap=(1.0 - abs(a)) / 4)
            for side in (+1, -1)]


def clause4_endpoints(beta: float, a: float, pmax: int = 2200) -> list:
    """Rate beta + 1/2 at x = -1 and 1: a divergence growth below 0,
    bounded non-convergence at 0."""
    family = conjecture_family(beta, a)
    expected = beta + 0.5
    return [_rate_cell(4, {"beta": beta, "a": a, "x": x}, family, x, expected, rate_tol(beta),
                       pmax, magnitude=expected < 0)
            for x in (-1.0, 1.0)]


def clause5_singular_point(beta: float, a: float, pmax: int = 2200) -> list:
    """Rate beta at x = a, a divergence growth for negative beta; the jump
    member beta = 0 converges to the mean of its one-sided limits at rate 1."""
    family = conjecture_family(beta, a)
    expected = 1.0 if beta == 0.0 else beta
    v = _rate_cell(5, {"beta": beta, "a": a, "x": a}, family, a, expected, rate_tol(beta), pmax,
                   magnitude=beta < 0)
    if beta == 0.0:
        v.detail += " (beta=0: convergence to the limit mean)"
    return [v]


def conjecture_suite(beta_grid: Sequence[float], a_grid: Sequence[float],
                     pmax: int = 2200, clauses: Sequence[int] = (1, 2, 3, 4, 5)) -> list:
    """Run the requested clauses over the parameter grid, in grid order.

    Raises ValueError, before any point runs, for a beta at most -1, an a
    outside (-1, 1), a clause outside 1..5 or an entry listed twice.
    """
    # built per call, so a clause replaced at its module name (a span tracer, a test) runs
    run = {1: clause1_interior, 2: clause2_boundary_growth, 3: clause3_singular_growth,
           4: clause4_endpoints, 5: clause5_singular_point}
    for what, values in (("clauses", clauses), ("beta_grid", beta_grid), ("a_grid", a_grid)):
        check_distinct(what, values)
    for clause in clauses:
        if clause not in run:
            raise ValueError(f"clause {clause!r} is not one of 1, 2, 3, 4, 5")
    if any(beta <= -1.0 for beta in beta_grid):
        raise ValueError("beta must exceed -1")
    if not all(-1.0 < a < 1.0 for a in a_grid):
        raise ValueError("a must lie strictly inside (-1, 1)")
    return [v for beta in beta_grid for a in a_grid for clause in clauses
            for v in run[clause](beta, a, pmax=pmax)]


def check_powershift_betas(beta_grid: Sequence[float]) -> None:
    """Raise ValueError for a beta that powershift_suite cannot measure or
    that the list repeats."""
    check_distinct("powershift_betas", beta_grid)
    for beta in beta_grid:
        if beta <= -1.0:
            raise ValueError("beta must exceed -1")
        if beta >= 0 and float(beta).is_integer():
            # a polynomial: its error vanishes past degree beta, so no rate exists
            raise ValueError(f"integer beta = {beta:g} makes |x+1|^beta a polynomial")


def powershift_suite(beta_grid: Sequence[float], pmax: int = 2200) -> list:
    """Rates for the endpoint-singular family |x + 1|^beta.

    Expectations: 2 beta at -1 (beta > 0 only), 2 beta + 1 at +1, and
    2 beta + 3/2 at the interior point x = -0.1, each within RATE_TOL;
    near-edge constant growth exponents 3/4 (left) and 1/4 (right).
    Everything runs at the given pmax, without escalation.
    """
    check_powershift_betas(beta_grid)
    eval_ctx = bigfloat(192)  # high rates push errors under float noise by p ~ 1000
    verdicts = []
    for beta in beta_grid:
        family = PowerShiftFamily(beta=beta)
        cases = [(-1.0, 2.0 * beta, 1)] if beta > 0 else []
        cases += [(1.0, 2.0 * beta + 1.0, 2), (-0.1, 2.0 * beta + 1.5, 3)]
        for x, expected, clause in cases:
            params = {"beta": beta, "x": x, "family": "powershift"}
            verdicts.append(_rate_cell(clause, params, family, x, expected, RATE_TOL, pmax,
                                       ceiling=pmax, ctx=eval_ctx))
        for point, side, expected in ((-1.0, +1, -0.75), (1.0, -1, -0.25)):
            params = {"beta": beta, "point": point, "family": "powershift"}
            verdicts.append(_growth_cell(2, params, family, point, side, 2.0 * beta + 1.5,
                                         expected, HALF_DECADES, pmax, ctx=eval_ctx,
                                         pmax_ceiling=pmax))
    return verdicts


def summarize(verdicts: Sequence[ConjectureVerdict]) -> str:
    lines = []
    width = max((len(str(v.params)) for v in verdicts), default=20)
    for v in verdicts:
        measured = "-" if v.measured is None else f"{v.measured:+.4f}"
        conj = "-" if v.conjectured is None else f"{v.conjectured:+.4f}"
        lines.append(f"clause {v.clause}  {str(v.params):<{width}}  measured {measured:>8}"
                     f"  conjectured {conj:>8}  [{v.status}]")
    counts = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)
