"""Acceptance suite: one test per numbered criterion, each printing a verdict line.

Desk scale: order 2200 in double precision everywhere except the two flagged
10000-order runs, which use 256-bit floats.  Rates are checked to +-0.05 and
envelope constants to +-25% (with the exponent pinned to its nominal value,
since a constant only has meaning at a fixed rate).

Two published constants cannot be reproduced by any faithful evaluation and
their tests are marked as expected failures with the analysis in the xfail
reasons: the variation-bound constant at x = 0.1 (the published
32.793 corresponds to (1-x)^(-3/2) with a single counted window, while the
bound as printed evaluates to 56.85) and the boundary constant of the
constrained family at -1 + 1e-6 (the published 0.0013 is an order of
magnitude below the family's own xi^(1/4) growth law, which this suite
verifies independently).
"""

import math

import mpmath
import numpy as np
import pytest

from leglab.bounds import theorem1_bound_series
from leglab.coefficients import (abs_shift_coeffs, constrained_pversion_coeffs,
                                 legendre_monomial_rows, power_abs_coeffs,
                                 power_shift_coeffs_appendixA, step_derivative_coeffs)
from leglab.conjecture import RATE_TOL as CHECKER_RATE_TOL, powershift_suite
from leglab.functions import AbsShiftFamily, ConstrainedFamily, StepDerivativeFamily
from leglab.legendre import legendre_range_array
from leglab.precision import FLOAT64, bigfloat
from leglab.ratefit import (bounded_oscillation_check, constant_growth, fit_rate,
                            gibbs_probe, pinned_constant)
from leglab.series_eval import error_sweep, norm_sweep, partial_sum_values

from oracles import (binomial_moment_oracle, endpoint_identity_bound, model_norm_sq,
                     parseval_tail, partial_sum, squared_error_quadrature)

A = 0.5
RATE_TOL = 0.05
CONST_TOL = 0.25


def report(criterion, message):
    print(f"[acceptance {criterion}] PASS: {message}")


def check_case(sweep, alpha_exp, C_exp, window=None, rate_tol=RATE_TOL):
    fit = fit_rate(sweep, window)
    assert fit.alpha == pytest.approx(alpha_exp, abs=rate_tol), \
        f"x={sweep.x}: rate {fit.alpha:.4f} vs {alpha_exp}"
    summary = f"x={sweep.x:+.7g}: alpha={fit.alpha:.4f} (exp {alpha_exp})"
    if C_exp is not None:
        C = pinned_constant(sweep, alpha_exp, window)
        assert C == pytest.approx(C_exp, rel=CONST_TOL), \
            f"x={sweep.x}: constant {C:.5f} vs {C_exp}"
        summary += f", C={C:.5f} (exp {C_exp})"
    return summary


@pytest.fixture(scope="module")
def big_step_sweep_x6():
    # flagged 10000-order run at x = -1 + 1e-6 (256-bit floats)
    ctx = bigfloat(256)
    series = step_derivative_coeffs(A, 10001, ctx)
    fam = StepDerivativeFamily(a=A)
    return error_sweep(series, fam.exact, -1.0 + 1e-6, 10000, ctx)


@pytest.fixture(scope="module")
def big_abs_sweep_at_a():
    # flagged 10000-order run at x = a (256-bit floats)
    ctx = bigfloat(256)
    series = abs_shift_coeffs(A, 10001, ctx)
    fam = AbsShiftFamily(a=A)
    return error_sweep(series, fam.exact, A, 10000, ctx)


@pytest.fixture(scope="module")
def constrained_sweeps():
    fam = ConstrainedFamily(a=A)
    series = constrained_pversion_coeffs(A, 2201)
    out = {x: error_sweep(series, fam.exact, x, 2200) for x in (-0.99, A)}
    series_long = constrained_pversion_coeffs(A, 10001)
    out[-1.0 + 1e-6] = error_sweep(series_long, fam.exact, -1.0 + 1e-6, 10000)
    return out


def test_criterion_01_step_family(step_sweeps, big_step_sweep_x6):
    cases = [(-1.0, 0.5, 0.44194), (1.0, 0.5, 0.75), (A, 1.0, 0.25293),
             (0.1, 1.0, 0.84622), (-0.99, 1.0, 0.889506), (-0.9999, 1.0, 2.733292)]
    lines = [check_case(step_sweeps[x], al, C) for x, al, C in cases]
    lines.append(check_case(big_step_sweep_x6, 1.0, 7.765878))
    report(1, "step family rates/constants: " + "; ".join(lines))


def test_criterion_02_gibbs(step_series):
    fam = StepDerivativeFamily(a=A)
    probe = gibbs_probe(step_series, fam.exact, A, [500, 707, 1000, 1414, 2000])
    assert probe.D == pytest.approx(2.7777, rel=0.05)
    m1000 = probe.magnitudes[2]
    m2000 = probe.magnitudes[4]
    assert abs(m1000 / m2000 - 1.0) < 0.05
    report(2, f"Gibbs D={probe.D:.4f} (2.7777 +-5%), overshoot drift "
              f"{abs(m1000 / m2000 - 1) * 100:.2f}% between p=1000 and p=2000")


def test_criterion_03_norm_slopes(step_series, abs_series):
    ns = norm_sweep(step_series, exact_norm_sq=(1 - A * A) / 2, pmax=100, norm="Energy")
    coef = np.polyfit(np.log(ns.pvalues[9:]), np.log(ns.norm_error[9:]), 1)
    assert coef[0] == pytest.approx(-0.5, abs=0.05)
    energy_slope = float(coef[0])

    ns2 = norm_sweep(abs_series, exact_norm_sq=model_norm_sq(A), pmax=100, norm="L2")
    coef2 = np.polyfit(np.log(ns2.pvalues[9:]), np.log(ns2.norm_error[9:]), 1)
    assert coef2[0] == pytest.approx(-1.5, abs=0.05)
    report(3, f"energy slope {energy_slope:.4f} (exp -0.5); "
              f"solution L2 slope {float(coef2[0]):.4f} (exp -1.5)")


def test_criterion_04_solution_family(abs_sweeps, big_abs_sweep_at_a):
    cases = [(-1.0, 1.5, 0.42625), (-0.99, 2.0, 0.76483), (0.1, 2.0, 0.73185)]
    lines = [check_case(abs_sweeps[x], al, C) for x, al, C in cases]
    lines.append(check_case(big_abs_sweep_at_a, 1.0, 0.274738))
    # no logarithmic drift: early and late windows agree on the rate at x = a
    early = fit_rate(big_abs_sweep_at_a, (1000, 3000)).alpha
    late = fit_rate(big_abs_sweep_at_a, (5000, 10000)).alpha
    assert abs(early - late) < 0.03
    report(4, "solution family: " + "; ".join(lines)
           + f"; log-drift check |{early:.4f} - {late:.4f}| < 0.03")


def test_criterion_05_constrained_family(constrained_sweeps):
    lines = [check_case(constrained_sweeps[-0.99], 2.0, 0.1245),
             check_case(constrained_sweeps[A], 1.0, 0.27557),
             # the 1e-6 case needs the escalated range: beat crests repeat
             # every ~ pi / sqrt(2 xi) ~ 2200 orders
             check_case(constrained_sweeps[-1.0 + 1e-6], 2.0, None, window=(2000, 10000))]
    fam = ConstrainedFamily(a=A)
    growth = constant_growth(fam, -1.0, +1, [1e-1, 1e-2, 1e-3, 1e-4], fixed_alpha=2.0)
    assert growth.exponent == pytest.approx(0.25, abs=0.1)
    report(5, "constrained family: " + "; ".join(lines)
           + f"; boundary constant exponent {growth.exponent:+.4f} (exp +0.25)")


@pytest.mark.xfail(strict=True, reason="published C(-1+1e-6)=0.0013 contradicts the "
                   "family's own xi^(1/4) constant law (which criterion 5 verifies: "
                   "0.40 * (1e-6)^(1/4) = 0.013); evaluated faithfully, the envelope "
                   "constant is ten times the published value (a dropped decimal).")
def test_criterion_05_published_boundary_constant(constrained_sweeps):
    C = pinned_constant(constrained_sweeps[-1.0 + 1e-6], 2.0)
    assert C == pytest.approx(0.0013, rel=CONST_TOL)


def test_criterion_06_constant_growth():
    step = StepDerivativeFamily(a=A)
    sol = AbsShiftFamily(a=A)
    rho_step = constant_growth(step, -1.0, +1, [1e-1, 1e-2, 1e-3, 1e-4], 1.0)
    sigma_step = constant_growth(step, A, +1, [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5], 1.0)
    rho_sol = constant_growth(sol, -1.0, +1, [1e-1, 1e-2, 1e-3, 1e-4], 2.0)
    sigma_sol = constant_growth(sol, A, +1, [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5], 2.0)
    assert rho_step.exponent == pytest.approx(-0.25, abs=0.1)
    assert sigma_step.exponent == pytest.approx(-1.0, abs=0.1)
    assert rho_sol.exponent == pytest.approx(-0.25, abs=0.1)
    assert sigma_sol.exponent == pytest.approx(-1.0, abs=0.1)
    report(6, f"growth exponents: step rho={rho_step.exponent:+.3f}, "
              f"sigma={sigma_step.exponent:+.3f}; solution rho={rho_sol.exponent:+.3f}, "
              f"sigma={sigma_sol.exponent:+.3f}")


@pytest.fixture(scope="module")
def powerabs_series():
    return {beta: power_abs_coeffs(beta, 2201, bigfloat(256))
            for beta in (-5.0 / 6.0, -2.0 / 3.0, -0.5, -1.0 / 16.0)}


def test_criterion_07_power_singularity_grid(powerabs_series):
    interior_x = {-5.0 / 6.0: -0.999, -2.0 / 3.0: -0.99, -0.5: -0.5, -1.0 / 16.0: -0.01}
    lines = []
    for beta, series in powerabs_series.items():
        x = interior_x[beta]
        sweep = error_sweep(series, lambda t: abs(t) ** beta, x, 2200, FLOAT64)
        fit = fit_rate(sweep)
        assert fit.alpha == pytest.approx(1.0 + beta, abs=RATE_TOL)
        lines.append(f"beta={beta:+.4f}: interior alpha={fit.alpha:.4f}")

        if beta == -0.5:
            values = partial_sum_values(series, 1.0, 2200, FLOAT64)
            chk = bounded_oscillation_check(values, np.arange(1, 2201),
                                            windows=((550, 1100), (1100, 2200)))
            assert chk["bounded"] and chk["non_cauchy"]
            lines.append("beta=-0.5: endpoints bounded, non-convergent")
        elif beta > -0.5:
            for xe in (-1.0, 1.0):
                sweep_e = error_sweep(series, lambda t: abs(t) ** beta, xe, 2200, FLOAT64)
                fit_e = fit_rate(sweep_e)
                assert fit_e.alpha == pytest.approx(beta + 0.5, abs=RATE_TOL)
            lines.append(f"beta={beta:+.4f}: endpoint alpha={fit_e.alpha:.4f}")
        else:
            sweep_d = error_sweep(series, lambda t: None, 1.0, 2200, FLOAT64)
            fit_d = fit_rate(sweep_d)
            assert fit_d.alpha == pytest.approx(beta + 0.5, abs=RATE_TOL)
            lines.append(f"beta={beta:+.4f}: endpoint growth {-fit_d.alpha:.4f}")

        sweep_0 = error_sweep(series, lambda t: None, 0.0, 2200, FLOAT64)
        fit_0 = fit_rate(sweep_0)
        assert fit_0.alpha == pytest.approx(beta, abs=RATE_TOL)
        lines.append(f"beta={beta:+.4f}: growth at 0 = {-fit_0.alpha:.4f}")
    report(7, "; ".join(lines))


def test_criterion_08_endpoint_power_family():
    # the checker's fixed rate band is this suite's
    assert CHECKER_RATE_TOL == RATE_TOL
    verdicts = powershift_suite([-0.5, 0.5, 1.5], pmax=2200)
    bad = [v for v in verdicts if v.status != "pass"]
    assert not bad, f"failing endpoint-family verdicts: {[v.to_dict() for v in bad]}"
    # rate verdicts carry x; the near-edge growth verdicts carry their point
    lines = [f"beta={v.params['beta']:+.2f} "
             + (f"x={v.params['x']:+.2f}: " if "x" in v.params
                else f"growth toward {v.params['point']:+.0f}: ")
             + (f"{v.measured:.4f} (exp {v.conjectured})" if v.measured is not None
                else "rate 0 bounded") for v in verdicts]
    report(8, "; ".join(lines))


def test_criterion_09_variation_bound_closed_constant():
    level, closed = endpoint_identity_bound(A, 100)
    computed = closed * math.sqrt(100)
    assert abs(computed - 0.85738) <= 1e-3
    report(9, f"endpoint closed-form constant {computed:.5f} (exp 0.85738 +- 1e-3)")


@pytest.mark.xfail(strict=True, reason="published bound constant 32.793 at x=0.1 equals "
                   "28 (1-x)^(-3/2) with one counted window; the bound as printed "
                   "(28/p (1-x^2)^(-3/2) sum_k V) evaluates to 56.85 with the exact "
                   "variation routine (two windows contain the jump).")
def test_criterion_09_variation_bound_published_constant():
    rep = theorem1_bound_series(A, 0.1, 2200)
    constant = float(rep.bound[-1] * rep.pvalues[-1])
    assert constant == pytest.approx(32.793, rel=0.01)


def test_criterion_10_interior_identity(step_series, legendre_at_a, step_sweeps):
    sweep = step_sweeps[A]
    rhs = 0.5 * np.abs(legendre_at_a[1:2201] * legendre_at_a[2:2202])
    rel = np.abs(sweep.abs_error - rhs) / rhs
    worst = float(np.max(rel[1:]))
    assert worst <= 1e-12
    report(10, f"interior error identity: worst relative deviation {worst:.2e} over p <= 2200")


def test_criterion_11_endpoint_identities(step_sweeps, legendre_at_a):
    # entry p of the sweep is |error at order p|; pair with P_p, P_{p+1}
    lhs_m = step_sweeps[-1.0].abs_error
    rhs_m = 0.5 * np.abs(legendre_at_a[1:2201] - legendre_at_a[2:2202])
    lhs_p = step_sweeps[1.0].abs_error
    rhs_p = 0.5 * np.abs(legendre_at_a[1:2201] + legendre_at_a[2:2202])
    rel_m = np.abs(lhs_m - rhs_m) / rhs_m
    rel_p = np.abs(lhs_p - rhs_p) / rhs_p
    assert float(np.max(rel_m)) <= 1e-12
    assert float(np.max(rel_p)) <= 1e-12
    report(11, f"endpoint telescoping identities: worst relative deviations "
               f"{np.max(rel_m):.2e} (x=-1), {np.max(rel_p):.2e} (x=+1)")


def test_criterion_12_envelope_bound_grid():
    xs = np.arange(-0.999, 0.9995, 0.001)
    table = legendre_range_array(2200, xs)
    k = np.arange(1, 2201)
    bound = (1.0 - xs * xs) ** -0.25 * np.sqrt(2.0 / (np.pi * k[:, None]))
    ratio = np.abs(table[1:]) / bound
    assert float(ratio.max()) <= 1.0 + 1e-12
    report(12, f"envelope bound holds for k <= 2200 on the 1e-3 grid "
               f"(max |P|/bound = {float(ratio.max()):.6f})")


def test_criterion_13_parseval_vs_quadrature(step_series, abs_series):
    step_fam = StepDerivativeFamily(a=A)
    abs_fam = AbsShiftFamily(a=A)
    norm_abs = model_norm_sq(A)
    worst = 0.0
    for p in (5, 20, 50):
        t1 = parseval_tail(step_series, p, exact_norm_sq=(1 - A * A) / 2)
        q1 = squared_error_quadrature(step_series, step_fam.exact, p, breakpoints=(A,))
        t2 = parseval_tail(abs_series, p, exact_norm_sq=norm_abs)
        q2 = squared_error_quadrature(abs_series, abs_fam.exact, p, breakpoints=(A,))
        worst = max(worst, abs(t1 - q1) / q1, abs(t2 - q2) / q2)
    assert worst <= 1e-8
    report(13, f"Parseval tails match split quadrature to {worst:.2e} at p in (5, 20, 50)")


def test_criterion_14_endpoint_moment_construction():
    worst = 0.0
    out_ctx = bigfloat(128)
    for beta in (-0.5, 0.5, 1.5):
        series = power_shift_coeffs_appendixA(beta, 50, out_ctx)
        bits = 256
        with mpmath.workprec(bits):
            I = [binomial_moment_oracle(k, beta, bits) for k in range(51)]
            for k, row in legendre_monomial_rows(50):
                ref = mpmath.mpf(0)
                for power, num in row:
                    ref += num * I[power]
                ref = ref * (2 * k + 1) / mpmath.mpf(2) ** (k + 1)
                got = mpmath.mpf(series.coeffs[k])
                scale = max(abs(ref), mpmath.mpf(1) / (2 * k + 1))
                worst = max(worst, float(abs(got - ref) / scale))
    assert worst <= 1e-18
    report(14, f"hypergeometric-moment construction matches the binomial oracle "
               f"to {worst:.2e} for k <= 50")


def test_criterion_15_fem_equivalence():
    from leglab.pfem import Mesh1D, assemble_and_solve

    sol = assemble_and_solve(Mesh1D.uniform(1, 101), A)
    series = constrained_pversion_coeffs(A, 100)
    worst = 0.0
    for x in np.linspace(-0.95, 0.95, 21):
        v_fem = float(sol.evaluate(float(x)))
        v_series = float(partial_sum(series, 100, float(x)))
        worst = max(worst, abs(v_fem - v_series) / max(abs(v_series), 1e-6))
    assert worst <= 1e-10

    mesh = Mesh1D.uniform(4, 8)
    sol4 = assemble_and_solve(mesh, 0.3)
    worst_off = 0.0
    for x in (-0.95, -0.7, -0.5, -0.2, 0.0, 0.55, 0.8, 1.0):
        worst_off = max(worst_off, abs(sol4.error(x)))
    assert worst_off <= 1e-12
    report(15, f"single-element solve matches the constrained expansion to {worst:.2e}; "
               f"multi-element solution exact off the singular element to {worst_off:.2e}")


def test_criterion_16_bound_soundness(step_sweeps, big_step_sweep_x6, legendre_at_a):
    fam = StepDerivativeFamily(a=A)
    series = step_derivative_coeffs(A, 2201)
    grid = (-0.9, -0.5, 0.1, A, 0.9)
    worst = 0.0
    for x in grid:
        rep = theorem1_bound_series(A, x, 2200)
        sweep = step_sweeps.get(x) or error_sweep(series, fam.exact, x, 2200)
        rep.measured = sweep.abs_error[1:]
        assert np.all(rep.measured <= rep.bound), f"bound violated at x={x}"
        worst = max(worst, float(np.max(rep.ratio)))
    # endpoint levels never exceed (|P_p| + |P_{p+1}|)/2
    level = 0.5 * (np.abs(legendre_at_a[1:2201]) + np.abs(legendre_at_a[2:2202]))
    assert np.all(step_sweeps[-1.0].abs_error <= level * (1 + 1e-12))
    assert np.all(step_sweeps[1.0].abs_error <= level * (1 + 1e-12))
    # and the interior identity never exceeds its classical ceiling
    pv = np.arange(2, 2201)
    ceiling = 1.0 / (math.pi * pv) * (1 - A * A) ** -0.5
    assert np.all(step_sweeps[A].abs_error[1:2200] <= ceiling * (1 + 1e-12))
    report(16, f"variation bound dominates measured error on the grid "
               f"(max measured/bound = {worst:.3f}); endpoint and interior ceilings hold")
