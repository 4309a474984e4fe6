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
failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functions import Family, PowerShiftFamily, check_distinct, family_from_config
from .precision import FLOAT64, PrecisionContext, PrecisionError, bigfloat
from .ratefit import (FitUnreliable, Record, bounded_oscillation_check, coefficient_ctx,
                      constant_growth, fit_rate)
from .series_eval import error_sweep, partial_sum_values


@dataclass
class ToleranceProfile:
    """Acceptance bands: rates, growth exponents, constants."""

    rate: float = 0.05
    rate_deep_singular: float = 0.10  # beta near -1: long preasymptotics
    growth: float = 0.10

    def rate_tol(self, beta: float) -> float:
        return self.rate_deep_singular if beta <= -0.7 else self.rate


@dataclass
class ConjectureVerdict(Record):
    clause: int
    params: dict
    measured: Optional[float]
    conjectured: Optional[float]
    tolerance: float
    status: str  # pass | fail | preasymptotic
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
    pm = pmax
    while True:
        sweep = error_sweep(family.series(pm + 1, coefficient_ctx(ctx)), exact, x, pm, ctx)
        if np.max(sweep.abs_error) == 0.0:
            return None, "exact", pm
        try:
            return fit_rate(sweep), "ok", pm
        except FitUnreliable as exc:
            if pm >= ceiling:
                return None, f"preasymptotic ({exc})", pm
        pm = min(2 * pm, ceiling)


def _rate_verdict(clause, params, fit_status, expected, tol) -> ConjectureVerdict:
    fit, status, pm = fit_status
    if fit is None and status == "exact":
        # degenerate symmetry: the truncation error vanishes identically
        return ConjectureVerdict(clause, params, None, expected, tol, "pass",
                                 detail="error identically zero (exact by symmetry)")
    if fit is None:
        return ConjectureVerdict(clause, params, None, expected, tol, "preasymptotic",
                                 detail=f"{status}; pmax={pm}")
    ok = abs(fit.alpha - expected) <= tol
    return ConjectureVerdict(clause, params, fit.alpha, expected, tol,
                             "pass" if ok else "fail", fit.to_dict(),
                             detail=f"pmax={pm}")


def clause1_interior(beta: float, a: float, tol: ToleranceProfile,
                     pmax: int = 2200) -> list:
    family = conjecture_family(beta, a)
    expected = beta + 1.0
    out = []
    for x in ((a - 1.0) / 2.0, (a + 1.0) / 2.0):
        fs = measured_rate(family, x, pmax)
        out.append(_rate_verdict(1, {"beta": beta, "a": a, "x": x}, fs, expected,
                                 tol.rate_tol(beta)))
    return out


def _growth_verdict(clause, params, point, side, family, fixed_alpha, expected, tol,
                    xi_grid, pmax, **growth) -> ConjectureVerdict:
    try:
        fit = constant_growth(family, point, side, xi_grid, fixed_alpha, pmax=pmax, **growth)
    except FitUnreliable as exc:
        return ConjectureVerdict(clause, params, None, expected, tol, "preasymptotic",
                                 detail=str(exc))
    ok = abs(fit.exponent - expected) <= tol
    return ConjectureVerdict(clause, params, fit.exponent, expected, tol,
                             "pass" if ok else "fail", fit.to_dict())


# the growth probes xi = 10^-1 .. 10^-2.5 of clause 3 and of the powershift suite
HALF_DECADES = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5]


def clause2_boundary_growth(beta: float, a: float, tol: ToleranceProfile,
                            pmax: int = 2200) -> list:
    """C(-1 + xi), C(1 - xi) ~ xi^(-1/4) with the interior rate pinned, at
    xi = 10^-1 .. 10^-4.

    Probes stay within a quarter of the distance from the endpoint to a."""
    family = conjecture_family(beta, a)
    xi_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    fixed = beta + 1.0
    out = []
    for point, side in ((-1.0, +1), (1.0, -1)):
        params = {"beta": beta, "a": a, "point": point, "side": side}
        out.append(_growth_verdict(2, params, point, side, family, fixed, -0.25,
                                   tol.growth, xi_grid, pmax, xi_cap=abs(point - a) / 4))
    return out


def clause3_singular_growth(beta: float, a: float, tol: ToleranceProfile,
                            pmax: int = 2200) -> list:
    """C(a +- xi) ~ xi^(-1) with the interior rate pinned, at HALF_DECADES.

    Probes stay within a quarter of the distance from a to the nearer endpoint."""
    family = conjecture_family(beta, a)
    fixed = beta + 1.0
    out = []
    for side in (+1, -1):
        params = {"beta": beta, "a": a, "point": a, "side": side}
        out.append(_growth_verdict(3, params, a, side, family, fixed, -1.0,
                                   tol.growth, HALF_DECADES, pmax, xi_cap=(1.0 - abs(a)) / 4))
    return out


def clause4_endpoints(beta: float, a: float, tol: ToleranceProfile,
                      pmax: int = 2200) -> list:
    family = conjecture_family(beta, a)
    expected = beta + 0.5
    out = []
    for x in (-1.0, 1.0):
        params = {"beta": beta, "a": a, "x": x}
        if abs(expected) < 1e-12:
            v = _bounded_verdict(4, params, family.series(pmax + 1, None), x, pmax)
        elif expected > 0:
            fs = measured_rate(family, x, pmax)
            v = _rate_verdict(4, params, fs, expected, tol.rate_tol(beta))
        else:
            fs = measured_rate(family, x, pmax, magnitude=True)
            v = _rate_verdict(4, params, fs, expected, tol.rate_tol(beta))
            v.detail += f" divergence growth p^{abs(expected):.3g}"
        out.append(v)
    return out


def clause5_singular_point(beta: float, a: float, tol: ToleranceProfile,
                           pmax: int = 2200) -> ConjectureVerdict:
    family = conjecture_family(beta, a)
    params = {"beta": beta, "a": a, "x": a}
    if beta == 0.0:
        # jump member: convergence to the mean of the one-sided limits at rate 1
        fs = measured_rate(family, a, pmax)
        v = _rate_verdict(5, params, fs, 1.0, tol.rate)
        v.detail += " (beta=0: convergence to the limit mean)"
        return v
    if beta > 0:
        fs = measured_rate(family, a, pmax)
        return _rate_verdict(5, params, fs, beta, tol.rate_tol(beta))
    fs = measured_rate(family, a, pmax, magnitude=True)
    v = _rate_verdict(5, params, fs, beta, tol.rate_tol(beta))
    v.detail += f" divergence growth p^{abs(beta):.3g}"
    return v


def _bounded_verdict(clause, params, series, x, pmax) -> ConjectureVerdict:
    """Rate 0: the float64 partial sums at x stay bounded but keep oscillating."""
    values = partial_sum_values(series, x, pmax, FLOAT64)
    chk = bounded_oscillation_check(values, np.arange(1, pmax + 1),
                                    windows=((pmax // 4, pmax // 2), (pmax // 2, pmax)))
    ok = chk["bounded"] and chk["non_cauchy"]
    return ConjectureVerdict(clause, params, 0.0, 0.0, 0.0,
                             "pass" if ok else "fail", None,
                             detail=f"rate 0, bounded non-convergence check: {chk}")


def _run_parameter_point(beta, a, clauses, tol, pmax) -> list:
    runners = {1: lambda: clause1_interior(beta, a, tol, pmax=pmax),
               2: lambda: clause2_boundary_growth(beta, a, tol, pmax=pmax),
               3: lambda: clause3_singular_growth(beta, a, tol, pmax=pmax),
               4: lambda: clause4_endpoints(beta, a, tol, pmax=pmax),
               5: lambda: [clause5_singular_point(beta, a, tol, pmax=pmax)]}
    verdicts = []
    for clause in clauses:
        try:
            verdicts.extend(runners[clause]())
        except PrecisionError as exc:
            # abort this parameter point with a machine-readable record,
            # never silent wrong numbers
            verdicts.append(ConjectureVerdict(clause, {"beta": beta, "a": a},
                                              None, None, 0.0, "error", detail=str(exc)))
    return verdicts


def conjecture_suite(beta_grid: Sequence[float], a_grid: Sequence[float],
                     tolerance_profile: Optional[ToleranceProfile] = None,
                     pmax: int = 2200, clauses: Sequence[int] = (1, 2, 3, 4, 5)) -> list:
    """Run the requested clauses over the parameter grid, in grid order.

    Raises ValueError, before any point runs, for a beta at most -1, an a
    outside (-1, 1), a clause outside 1..5 or an entry listed twice.
    """
    tol = tolerance_profile or ToleranceProfile()
    for what, values in (("clauses", clauses), ("beta_grid", beta_grid), ("a_grid", a_grid)):
        check_distinct(what, values)
    for clause in clauses:
        if clause not in (1, 2, 3, 4, 5):
            raise ValueError(f"clause {clause!r} is not one of 1, 2, 3, 4, 5")
    for beta in beta_grid:
        if beta <= -1.0:
            raise ValueError("beta must exceed -1")
    for a in a_grid:
        if not -1.0 < a < 1.0:
            raise ValueError("a must lie strictly inside (-1, 1)")
    return [v for beta in beta_grid for a in a_grid
            for v in _run_parameter_point(beta, a, clauses, tol, pmax)]


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


def powershift_suite(beta_grid: Sequence[float],
                     tolerance_profile: Optional[ToleranceProfile] = None,
                     pmax: int = 2200) -> list:
    """Rates for the endpoint-singular family |x + 1|^beta.

    Expectations: 2 beta at -1 (beta > 0 only), 2 beta + 1 at +1, and
    2 beta + 3/2 at the interior point x = -0.1; near-edge constant growth
    exponents 3/4 (left) and 1/4 (right).  Everything runs at the given
    pmax, without escalation.
    """
    check_powershift_betas(beta_grid)
    tol = tolerance_profile or ToleranceProfile()
    eval_ctx = bigfloat(192)  # high rates push errors under float noise by p ~ 1000
    verdicts = []
    for beta in beta_grid:
        family = PowerShiftFamily(beta=beta)
        cases = []
        if beta > 0:
            cases.append((-1.0, 2.0 * beta, 1))
        cases.append((1.0, 2.0 * beta + 1.0, 2))
        cases.append((-0.1, 2.0 * beta + 1.5, 3))
        for x, expected, clause in cases:
            params = {"beta": beta, "x": x, "family": "powershift"}
            if abs(expected) < 1e-12:
                verdicts.append(_bounded_verdict(clause, params, family.series(pmax + 1, eval_ctx),
                                                 x, pmax))
                continue
            fs = measured_rate(family, x, pmax, ceiling=pmax, ctx=eval_ctx)
            verdicts.append(_rate_verdict(clause, params, fs, expected, tol.rate))
        fixed = 2.0 * beta + 1.5
        for point, side, expected in ((-1.0, +1, -0.75), (1.0, -1, -0.25)):
            params = {"beta": beta, "point": point, "family": "powershift"}
            verdicts.append(_growth_verdict(2, params, point, side, family, fixed, expected,
                                            tol.growth, HALF_DECADES, pmax, ctx=eval_ctx,
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
