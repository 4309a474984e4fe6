import json

import numpy as np
import pytest

from leglab.functions import StepDerivativeFamily
from leglab.legendre import legendre_range_array
from leglab.ratefit import (FitUnreliable, GridTooCoarse, _sup_grid, bounded_oscillation_check,
                            constant_growth, fit_lower_bound, fit_rate, gibbs_probe,
                            pinned_constant, weighted_sup_norm)
from leglab.runner import run_figures
from leglab.series_eval import ErrorSweep

A = 0.5


def _synthetic(alpha, C=1.0, pmax=2000, osc=None):
    p = np.arange(1, pmax + 1)
    e = C * p ** -float(alpha)
    if osc is not None:
        e = e * osc(p)
    return ErrorSweep(0.0, p, e, "synthetic", "synthetic")


def test_power_law_recovery_is_exact():
    fit = fit_rate(_synthetic(1.0))
    assert fit.alpha == pytest.approx(1.0, abs=1e-10)
    assert fit.C == pytest.approx(1.0, rel=1e-10)
    fit = fit_rate(_synthetic(0.5, C=3.7))
    assert fit.alpha == pytest.approx(0.5, abs=1e-10)
    assert fit.C == pytest.approx(3.7, rel=1e-10)


def test_oscillatory_envelope_fit():
    osc = lambda p: np.abs(np.sin(0.7 * p)) + 1e-12
    fit = fit_rate(_synthetic(1.5, C=2.0, osc=osc))
    assert fit.alpha == pytest.approx(1.5, abs=0.02)
    assert fit.C == pytest.approx(2.0, rel=0.05)
    assert fit.envelope_size >= 8


def test_envelope_dominance_invariant(step_sweeps):
    for x, sweep in step_sweeps.items():
        try:
            fit = fit_rate(sweep)
        except FitUnreliable:
            continue
        lo, hi = fit.window
        m = (sweep.pvalues >= lo) & (sweep.pvalues <= hi)
        assert np.all(sweep.abs_error[m] <= fit.C * sweep.pvalues[m] ** -fit.alpha * (1 + 1e-6))


def test_window_robustness_on_paper_cases(step_sweeps):
    # shifting the window by x1.5 moves alpha by at most 0.05
    for x, expected in ((-1.0, 0.5), (1.0, 0.5), (A, 1.0), (0.1, 1.0)):
        sweep = step_sweeps[x]
        base = fit_rate(sweep, (1100, 2200)).alpha
        shifted = fit_rate(sweep, (733, 2200)).alpha
        assert abs(base - shifted) <= 0.05
        assert base == pytest.approx(expected, abs=0.05)


def test_fit_unreliable_on_noise():
    rng = np.random.default_rng(7)
    p = np.arange(1, 500)
    e = np.exp(rng.normal(0, 2, size=p.size))
    with pytest.raises(FitUnreliable):
        fit_rate(ErrorSweep(0.0, p, e, "noise", "noise"))


def test_fit_requires_enough_points():
    with pytest.raises(FitUnreliable):
        fit_rate(_synthetic(1.0, pmax=20))


def test_pinned_constant(step_sweeps):
    c = pinned_constant(step_sweeps[-1.0], 0.5)
    assert c == pytest.approx(0.44194, rel=0.25)


def test_lower_bound_synthetic_matches_upper():
    fit_up = fit_rate(_synthetic(1.0))
    fit_lo = fit_lower_bound(_synthetic(1.0))
    assert fit_lo.lower
    assert fit_lo.alpha == pytest.approx(fit_up.alpha, abs=1e-8)
    assert fit_lo.C == pytest.approx(1.0, rel=1e-8)


def test_lower_bound_step_endpoints(step_sweeps):
    fit = fit_lower_bound(step_sweeps[-1.0])
    assert fit.alpha == pytest.approx(0.5, abs=0.05)
    # level quoted as roughly 0.15; the strict minimum sits a bit below
    assert 0.08 <= fit.C <= 0.2


def test_lower_bound_unreliable_interior(step_sweeps):
    with pytest.raises(FitUnreliable):
        fit_lower_bound(step_sweeps[0.1])


def test_constant_growth_step_rho():
    fam = StepDerivativeFamily(a=A)
    fit = constant_growth(fam, -1.0, +1, [1e-1, 1e-2, 1e-3, 1e-4], fixed_alpha=1.0)
    assert fit.exponent == pytest.approx(-0.25, abs=0.1)
    assert fit.fixed_alpha == 1.0
    assert len(fit.xi) == 4


def test_constant_growth_step_sigma():
    fam = StepDerivativeFamily(a=A)
    fit = constant_growth(fam, A, +1, [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5], fixed_alpha=1.0)
    assert fit.exponent == pytest.approx(-1.0, abs=0.1)


def test_constant_growth_rejects_a_side_other_than_one():
    # checked before any probe runs, for API callers as for configs
    for side in (0, 3, -2):
        with pytest.raises(ValueError, match=f"growth side must be -1 or 1, not {side}"):
            constant_growth(StepDerivativeFamily(a=A), A, side, [1e-1], fixed_alpha=1.0)


def test_constant_growth_drops_out_of_domain():
    fam = StepDerivativeFamily(a=A)
    # every x falls outside [-1, 1]; nothing remains to fit
    with pytest.raises(FitUnreliable):
        constant_growth(fam, -1.0, -1, [1e-1, 1e-2], fixed_alpha=1.0,
                        pmax=600, pmax_ceiling=600)


@pytest.mark.parametrize("point,side,reason", [
    (0.9, +1, "at an endpoint"),  # 0.9 + 0.1 == 1.0 in float64
    (1.0, -1, "at the singular point"),  # 1.0 - 0.1 == 0.9
])
def test_constant_growth_drops_probes_on_other_features(point, side, reason):
    fam = StepDerivativeFamily(a=0.9)
    grid = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5]
    fit = constant_growth(fam, point, side, grid, fixed_alpha=1.0, pmax=600)
    assert fit.dropped == [(0.1, reason)]
    assert fit.xi.tolist() == grid[1:]


def test_constant_growth_keeps_a_probe_on_the_cap():
    # (1 - 0.6) / 4 rounds to 0.1 exactly, so a probe at the cap stays
    assert (1.0 - 0.6) / 4 == 0.1
    fam = StepDerivativeFamily(a=0.6)
    grid = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5]
    fit = constant_growth(fam, 0.6, +1, grid, fixed_alpha=1.0, pmax=600, xi_cap=(1.0 - 0.6) / 4)
    assert fit.dropped == [] and fit.xi.tolist() == grid
    fit = constant_growth(fam, 0.6, +1, grid, fixed_alpha=1.0, pmax=600, xi_cap=0.05)
    assert fit.dropped == [(0.1, "above the cap 0.05")]


def test_gibbs_probe(step_series, step_family):
    report = gibbs_probe(step_series, step_family.exact, A, [500, 1000, 2000])
    assert report.D == pytest.approx(2.7777, rel=0.05)
    mags = report.magnitudes
    assert np.max(mags) / np.min(mags) < 1.05
    # near-point decay follows xi^(-1)
    assert report.decay_exponent == pytest.approx(-1.0, abs=0.15)


def test_gibbs_grid_too_coarse(step_series, step_family):
    with pytest.raises(GridTooCoarse, match="scan boundary"):
        gibbs_probe(step_series, step_family.exact, A, [1000], span=0.5)
    with pytest.raises(GridTooCoarse, match="left the domain"):
        gibbs_probe(step_series, step_family.exact, 1.5, [1000])
    with pytest.raises(IndexError):
        gibbs_probe(step_series, step_family.exact, A, [1000, step_series.degree + 1])


def test_gibbs_probe_per_order_results_ignore_the_order_of_pvalues(step_series, step_family):
    pvalues = [500, 707, 1000, 1414]
    ahead = gibbs_probe(step_series, step_family.exact, A, pvalues)
    behind = gibbs_probe(step_series, step_family.exact, A, pvalues[::-1])
    assert ahead.locations.tobytes() == behind.locations[::-1].tobytes()
    assert ahead.magnitudes.tobytes() == behind.magnitudes[::-1].tobytes()


# fig04's crests for p = 500, 707, 1000, 1414, 2000.  S_p(x) comes from numpy
# elementwise IEEE arithmetic alone (the Legendre step, c_k P_k and a
# left-to-right running sum), so these floats are the same on every machine.
# The gibbs.json hash is not pinned: its decay_exponent goes through
# np.polyfit (LAPACK) and np.log (libm).
FIG04_LOCATIONS = [0.5054, 0.5038472418670439, 0.49728, 0.49807637906647806, 0.50136]
FIG04_MAGNITUDES = [0.08967192065505891, 0.08961544412127909, 0.08955712731864274,
                    0.08953741136657883, 0.08953544653562817]


def test_fig04_overshoot_crests_are_pinned(tmp_path):
    run_figures(str(tmp_path), only=["fig04"])
    report = json.loads((tmp_path / "fig04" / "fig04.gibbs.json").read_text())
    assert report["locations"] == FIG04_LOCATIONS
    assert report["magnitudes"] == FIG04_MAGNITUDES


def test_weighted_sup_norm(step_series, step_family):
    sweep = weighted_sup_norm(step_series, step_family.exact, (0.5, 0.5, 1.0), A, 2200)
    fit = fit_rate(sweep)
    assert fit.alpha == pytest.approx(1.0, abs=0.1)
    # the cumulative table sum equals order-by-order running sums bit for bit
    grid = np.array([-0.9, -0.2, 0.49, 0.51, 0.8])
    small = weighted_sup_norm(step_series, step_family.exact, (0.5, 0.5, 1.0), A, 40, grid)
    w = np.abs(1.0 - grid) ** 0.5 * np.abs(1.0 + grid) ** 0.5 * np.abs(grid - A)
    fx = np.array([step_family.exact(t) for t in grid])
    c, table = step_series.as_floats(), legendre_range_array(40, grid)
    running = c[0] * table[0]
    for k in range(1, 41):
        running = running + c[k] * table[k]
        assert small.abs_error[k - 1] == np.max(np.abs(fx - running) * w)


def _weighted_sup_table(series, exact, weights, a, pmax, grid):
    """The table form of weighted_sup_norm: the full (pmax+1) x grid Legendre
    table, its coefficient-weighted cumulative sum and one max per row."""
    w = (np.abs(1.0 - grid) ** weights[0] * np.abs(1.0 + grid) ** weights[1]
         * np.abs(grid - a) ** weights[2])
    fx = np.array([exact(t) for t in grid])
    c = series.as_floats()[: pmax + 1]
    running = np.cumsum(c[:, None] * legendre_range_array(pmax, grid), axis=0)
    return np.max(np.abs(fx - running[1:]) * w, axis=1)


@pytest.mark.parametrize("weights,pmax", [((0.5, 0.5, 1.0), 2200), ((0.5, 0.5, 0.0), 300),
                                          ((0.0, 0.25, 2.0), 1)])
def test_weighted_sup_row_loop_has_the_bits_of_the_table_form(step_series, step_family,
                                                             weights, pmax):
    sweep = weighted_sup_norm(step_series, step_family.exact, weights, A, pmax)
    want = _weighted_sup_table(step_series, step_family.exact, weights, A, pmax,
                               np.array(_sup_grid(A, pmax)))
    assert sweep.abs_error.tobytes() == want.tobytes()
    grid = np.array([-0.9, -0.2, 0.49, 0.5, 0.51, 0.8])
    small = weighted_sup_norm(step_series, step_family.exact, weights, A, pmax, grid)
    want = _weighted_sup_table(step_series, step_family.exact, weights, A, pmax, grid)
    assert small.abs_error.tobytes() == want.tobytes()
    with pytest.raises(IndexError, match="exceeds the series degree 2201"):
        weighted_sup_norm(step_series, step_family.exact, weights, A, 2202, grid)


def test_weighted_sup_without_singular_weight_stalls(step_series, step_family):
    sweep = weighted_sup_norm(step_series, step_family.exact, (0.5, 0.5, 0.0), A, 800)
    # the overshoot is O(1): no decay without the |x-a| weight
    try:
        fit = fit_rate(sweep)
        assert fit.alpha < 0.2
    except FitUnreliable:
        pass


def test_bounded_oscillation_check():
    p = np.arange(1, 4001)
    values = 1.0 + 0.5 * np.sin(p)
    chk = bounded_oscillation_check(values, p, windows=((1000, 2000), (2000, 4000)))
    assert chk["bounded"] and chk["non_cauchy"]
    decaying = 1.0 + 1.0 / p
    chk = bounded_oscillation_check(decaying, p, windows=((1000, 2000), (2000, 4000)))
    assert chk["bounded"] and not chk["non_cauchy"]


def test_record_json_text_is_pinned():
    # the sha256 of the indented JSON text of one record of each kind, with
    # ndarrays and the window tuple written as lists; the keys follow the fields
    import hashlib

    from leglab.coefficients import step_derivative_coeffs
    from leglab.conjecture import clause1_interior
    from leglab.series_eval import error_sweep

    fam = StepDerivativeFamily(a=A)
    series = step_derivative_coeffs(A, 601)
    records = {
        "7477c37d569c6d844d63783d41c547e3534a82a68c6b9866b47a087157089a37":
            fit_rate(error_sweep(series, fam.exact, 0.1, 600)),
        "744970840d5273bd7078073b26a6fdea24d58c449d8fca1c811c06a88381e5c3":
            constant_growth(StepDerivativeFamily(a=0.9), 0.9, +1,
                            [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5], 1.0, pmax=600),
        "064468584593035739308851ecde8b228e0a607ca928c7cac101d95b7cb5127c":
            gibbs_probe(series, fam.exact, A, [300, 600]),
        "011b3f1bf7a40981be24e2c58960c9cbe1fed4d10bb61fbdbab3ef538b2102e9":
            clause1_interior(0.5, A, pmax=600)[0],
    }
    for digest, record in records.items():
        text = json.dumps(record.to_dict(), indent=1, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (type(record), text)
    growth = next(r for r in records.values() if hasattr(r, "dropped"))
    assert list(growth.to_dict()) == ["xi", "C", "exponent", "prefactor", "fixed_alpha",
                                      "dropped"]
