import hashlib
import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab.coefficients import (Generator, LegendreSeries, abs_shift_coeffs,
                                 constrained_pversion_coeffs, power_abs_coeffs,
                                 singular_term_coeffs, step_derivative_coeffs)
from leglab.functions import (AbsShiftFamily, PowerAbsFamily, StepDerivativeFamily,
                              exact_solution, exact_solution_derivative)
from leglab.legendre import legendre_eval_range, legendre_fixed_range
from leglab.precision import FLOAT64, bigfloat, to_fixed
from leglab.runner import SWEEP_DTYPE, ExperimentConfig, read_sweep, run_experiment, run_figures
from leglab.series_eval import (ErrorSweep, NormSweep, _fixed_terms, _running_sums, error_sweep,
                                norm_sweep, parseval_tail, partial_sum, partial_sum_values)

from oracles import (fixed_running_sums_loop, model_norm_sq, neumaier_sum,
                     squared_error_quadrature)

A = 0.5


def test_partial_sum_trivial():
    s = LegendreSeries([1.0, 1.0], Generator.CUSTOM_SPEC, FLOAT64)
    assert partial_sum(s, 0, 0.3) == 1.0
    assert partial_sum(s, 1, 0.3) == pytest.approx(1.3, abs=1e-15)
    with pytest.raises(IndexError):
        partial_sum(s, 2, 0.3)
    # order 0 of the constrained family is the zero function
    assert partial_sum(constrained_pversion_coeffs(A, 5), 0, 0.3) == 0.0


def test_nan_point_is_rejected():
    # NaN compares false with both ends of [-1, 1]; it must not pass as a point
    for series in (step_derivative_coeffs(A, 10), constrained_pversion_coeffs(A, 10)):
        for ctx in (FLOAT64, bigfloat(128)):
            with pytest.raises(ValueError):
                partial_sum(series, 5, float("nan"), ctx)
            with pytest.raises(ValueError):
                error_sweep(series, 0.0, float("nan"), 5, ctx)
        with pytest.raises(ValueError):
            partial_sum_values(series, float("nan"), 5)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(a=st.floats(-0.95, 0.95), p=st.integers(1, 1103), big=st.booleans())
@example(a=A, p=1, big=False)
@example(a=A, p=1103, big=False)
@example(a=A, p=1103, big=True)
def test_partial_sum_step_identity(a, p, big):
    # exact value minus the partial sum telescopes to P_{p+1}(a) P_p(a) / 2;
    # at the jump the exact value is the mean of the limits, a / 2
    ctx = bigfloat(256) if big else FLOAT64
    Pa = legendre_eval_range(p + 1, a, ctx)
    with ctx.active():
        err = ctx.convert(a) / 2 - partial_sum(step_derivative_coeffs(a, p, ctx), p, a)
        want = Pa[p + 1] * Pa[p] / 2
    assert float(err) == pytest.approx(float(want), rel=1e-11)


def test_constrained_partial_sum_vanishes_at_endpoints():
    b = constrained_pversion_coeffs(A, 30)
    for p in (1, 2, 11, 30):
        assert abs(partial_sum(b, p, -1.0)) < 5e-15
        assert abs(partial_sum(b, p, 1.0)) < 5e-15
    with pytest.raises(IndexError):
        partial_sum(b, 31, 0.0)


def _direct_error(exact, series, p, x):
    """|exact - S_p(x)| from partial_sum, reduced to float as a sweep does."""
    with series.ctx.active():
        return abs(float(series.ctx.convert(exact) - partial_sum(series, p, x)))


def test_error_sweep_matches_partial_sum(step_series, step_family=None):
    # sweeps and pointwise sums share one kernel, so they agree bit for bit
    exact = exact_solution_derivative(0.37, A)
    for series in (step_series, step_derivative_coeffs(A, 60, bigfloat(128))):
        sweep = error_sweep(series, lambda x: exact_solution_derivative(x, A), 0.37, 50)
        for p in (1, 13, 50):
            assert sweep.abs_error[p - 1] == _direct_error(exact, series, p, 0.37)
        assert sweep.pvalues[0] == 1 and sweep.pmax == 50


def test_error_sweep_polynomial_target_exact():
    series = power_abs_coeffs(2.0, 10)
    sweep = error_sweep(series, lambda x: x * x, 0.3, 10)
    assert np.all(sweep.abs_error[1:] < 1e-15)


def test_error_sweep_magnitude_mode():
    series = power_abs_coeffs(-0.5, 200, bigfloat(128))
    for ctx in (FLOAT64, bigfloat(128)):
        sweep = error_sweep(series, lambda x: None, 0.0, 200, ctx)
        values = partial_sum_values(series, 0.0, 200, ctx)
        assert np.array_equal(sweep.abs_error, np.abs(values))
        # divergent: magnitudes grow
        assert sweep.abs_error[-1] > sweep.abs_error[10]


def test_error_sweep_bigfloat_context(step_family):
    series = step_derivative_coeffs(A, 301, bigfloat(128))
    sweep_big = error_sweep(series, step_family.exact, -1.0, 300)
    series64 = step_derivative_coeffs(A, 301)
    sweep64 = error_sweep(series64, step_family.exact, -1.0, 300)
    assert sweep_big.abs_error == pytest.approx(sweep64.abs_error, rel=1e-10)


def test_f64_sweep_of_bigfloat_series_reads_its_rounded_copy():
    series = singular_term_coeffs(A, -0.5, 401, bigfloat(256))
    rounded = LegendreSeries([float(c) for c in series.coeffs], series.generator, FLOAT64)
    exact = PowerAbsFamily(beta=-0.5, a=A).exact
    for x in (-1.0, 0.1, 1.0):
        want = error_sweep(rounded, exact, x, 400, FLOAT64).abs_error
        # the second sweep reads the image the first one made
        for _ in range(2):
            assert np.array_equal(error_sweep(series, exact, x, 400, FLOAT64).abs_error, want)


def test_constrained_sweep_matches_pointwise():
    for b in (constrained_pversion_coeffs(A, 60), constrained_pversion_coeffs(A, 60, bigfloat(128))):
        sweep = error_sweep(b, lambda x: exact_solution(x, A), 0.2, 60)
        for p in (1, 9, 60):
            assert sweep.abs_error[p - 1] == _direct_error(exact_solution(0.2, A), b, p, 0.2)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=st.floats(-0.95, 0.95))
@example(a=A)
def test_parseval_tail_and_quadrature(a):
    norm_step = (1 - a * a) / 2  # closed form of the squared step norm
    # solution family: squared norm from exact quadrature of the piecewise line
    norm_abs = model_norm_sq(a)
    for series, exact, norm_sq in ((step_derivative_coeffs(a, 2201),
                                    StepDerivativeFamily(a=a).exact, norm_step),
                                   (abs_shift_coeffs(a, 2201), AbsShiftFamily(a=a).exact,
                                    norm_abs)):
        for p in (5, 20, 50):
            tail = parseval_tail(series, p, exact_norm_sq=norm_sq)
            quad = squared_error_quadrature(series, exact, p, breakpoints=(a,))
            assert tail == pytest.approx(quad, rel=1e-8)


def test_norm_sweep_needs_a_tail_term_above_pmax():
    series = StepDerivativeFamily(a=A).series(50)
    ns = norm_sweep(series, exact_norm_sq=(1 - A * A) / 2, pmax=series.degree - 1)
    assert len(ns.pvalues) == len(ns.norm_error) == series.degree - 1
    with pytest.raises(IndexError, match="at most 49"):
        norm_sweep(series, exact_norm_sq=(1 - A * A) / 2, pmax=series.degree)


def test_sweep_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="equal length"):
        ErrorSweep(0.1, np.arange(1, 4), [0.3, 0.2], "t", "s")
    with pytest.raises(ValueError, match="equal length"):
        NormSweep(np.arange(1, 51), np.ones(49))


@pytest.mark.parametrize("p", [[1, 2, 2], [1, 3, 2], [3, 2, 1], [0, 0]])
def test_sweep_orders_that_do_not_increase_are_rejected(p):
    with pytest.raises(ValueError, match="strictly increasing"):
        ErrorSweep(0.1, p, np.full(len(p), 0.5), "t", "s")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -1.0])
def test_sweep_errors_that_are_not_finite_and_nonnegative_are_rejected(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ErrorSweep(0.1, np.arange(1, 4), [0.3, bad, 0.1], "t", "s")


def test_sweep_with_one_order_or_a_zero_error_is_accepted():
    assert ErrorSweep(0.1, [7], [0.0], "t", "s").pmax == 7
    assert ErrorSweep(0.1, [1, 2], [0.0, 0.0], "t", "s").pmax == 2


def test_norm_sweep_energy_slope(step_series):
    norm_step = (1 - A * A) / 2
    ns = norm_sweep(step_series, exact_norm_sq=norm_step, pmax=100, norm="Energy")
    assert ns.norm == "Energy"
    assert np.all(np.diff(ns.norm_error) < 0)
    coef = np.polyfit(np.log(ns.pvalues[9:]), np.log(ns.norm_error[9:]), 1)
    assert coef[0] == pytest.approx(-0.5, abs=0.05)


def test_norm_sweep_l2_slope(abs_series):
    ns = norm_sweep(abs_series, exact_norm_sq=model_norm_sq(A), pmax=100, norm="L2")
    coef = np.polyfit(np.log(ns.pvalues[9:]), np.log(ns.norm_error[9:]), 1)
    assert coef[0] == pytest.approx(-1.5, abs=0.05)


def test_norm_sweep_finite_series_is_zero():
    series = power_abs_coeffs(2.0, 30)
    ns = norm_sweep(series, pmax=20, norm="L2")
    assert np.all(ns.norm_error[2:] < 1e-15)


def test_norm_sweep_truncation_warning():
    series = step_derivative_coeffs(A, 120)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norm_sweep(series, pmax=100, norm="Energy")
    assert any("tail" in str(w.message) for w in caught)


def test_sweep_npy_roundtrip(tmp_path, step_series, step_family):
    sweep = error_sweep(step_series, step_family.exact, 0.1, 40)
    cfg = ExperimentConfig(id="s", kind="sweep", family="step", params={"a": A}, x=[0.1],
                           pmax=40)
    run_experiment(cfg, str(tmp_path))
    path = tmp_path / "s.x+0.1.sweep.npy"
    rows = np.load(path, allow_pickle=False)
    assert rows.dtype == SWEEP_DTYPE and rows.shape == (40,)
    assert rows["p"].tolist() == sweep.pvalues.tolist()
    assert rows["abs_error"].view(np.uint64).tolist() == sweep.abs_error.view(np.uint64).tolist()
    # the bytes np.save writes for the same array
    saved = tmp_path / "saved.npy"
    np.save(saved, rows)
    assert path.read_bytes() == saved.read_bytes()
    back = read_sweep(path)
    assert back.pvalues.tolist() == sweep.pvalues.tolist()
    assert back.abs_error.tolist() == sweep.abs_error.tolist()
    plot = np.loadtxt(tmp_path / "s.x+0.1.plot.csv", delimiter=",", skiprows=1)
    assert np.array_equal(plot, np.log10(np.column_stack([sweep.pvalues, sweep.abs_error])))


def test_plot_csv_keeps_the_largest_error_per_hundredth_decade(tmp_path):
    cfg = ExperimentConfig(id="s", kind="sweep", family="step", params={"a": A}, x=[0.1],
                           pmax=2200)
    run_experiment(cfg, str(tmp_path))
    rows = np.load(tmp_path / "s.x+0.1.sweep.npy")
    p, err = rows["p"], rows["abs_error"]
    assert len(p) == 2200 and np.all(err > 0)
    lp, le = np.log10(p).tolist(), np.log10(err).tolist()
    # the first order with the largest error of each bin floor(100 log10 p)
    best = {}
    for i, b in enumerate(np.floor(100 * np.log10(p)).tolist()):
        if b not in best or err[i] > err[best[b]]:
            best[b] = i
    want = sorted(best.values())
    lines = (tmp_path / "s.x+0.1.plot.csv").read_text().splitlines()
    assert lines[0] == "log10_p,log10_abs_error"
    data = [line for line in lines[1:] if not line.startswith("#")]
    assert data == [f"{lp[i]!r},{le[i]!r}" for i in want]
    # every p <= 41 has a bin of its own
    assert len(data) == 214 and data[:41] == [f"{lp[i]!r},{le[i]!r}" for i in range(41)]
    fit = json.loads((tmp_path / "s.x+0.1.fit.json").read_text())["fit"]
    assert lines[1 + len(data):] == [
        f"# fit_line,{float(np.log10(q))!r},{float(np.log10(fit['C'] * q ** -fit['alpha']))!r}"
        for q in fit["window"]]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 0.95), x=st.floats(-1.0, 1.0), p=st.integers(0, 300))
def test_f64_partial_sums_are_neumaier_sums_of_their_terms(a, x, p):
    # the float64 accumulator performs the IEEE operations of
    # oracles.neumaier_sum, in order, over c_k P_k(x) and over the
    # constrained bumps
    Px = legendre_eval_range(p + 1, x)
    prefix = step_derivative_coeffs(a, 300)
    terms = [c * Px[k] for k, c in enumerate(prefix.coeffs[: p + 1])]
    assert partial_sum(prefix, p, x) == neumaier_sum(terms)
    Pa = legendre_eval_range(p + 1, a)
    bumps = [0.5 * (Pa[k - 1] - Pa[k + 1]) * (Px[k + 1] - Px[k - 1]) / (2 * k + 1)
             for k in range(1, p + 1)]
    assert partial_sum(constrained_pversion_coeffs(a, max(p, 1)), p, x) == neumaier_sum(bumps)


def _scalar_neumaier_running_sums(terms):
    """total + comp after each term of the scalar loop of oracles.neumaier_sum."""
    total, comp, sums = 0.0, 0.0, []
    for t in terms:
        s = total + t
        comp += (total - s) + t if abs(total) >= abs(t) else (t - s) + total
        total = s
        sums.append(total + comp)
    return sums


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 0.95), x=st.floats(-1.0, 1.0), where=st.sampled_from(["x", "-1", "1", "a"]),
       p=st.one_of(st.sampled_from([0, 1]), st.integers(0, 2200)),
       ref=st.one_of(st.none(), st.floats(-2.0, 2.0)))
@example(a=A, x=0.0, where="1", p=0, ref=None)
@example(a=A, x=0.0, where="-1", p=1, ref=0.25)
@example(a=-0.3, x=0.0, where="a", p=2200, ref=-0.15)
def test_f64_running_sums_equal_the_scalar_neumaier_recurrence(a, x, where, p, ref):
    # every running sum d[0..p], not only S_p, has the bits of the scalar
    # Neumaier loop over the same terms, for prefix and constrained series
    x = {"x": x, "-1": -1.0, "1": 1.0, "a": a}[where]
    Px = legendre_eval_range(p + 1, x)
    Pa = legendre_eval_range(p + 1, a)
    prefix = step_derivative_coeffs(a, max(p, 1))
    cases = [(prefix, [c * Px[k] for k, c in enumerate(prefix.coeffs[: p + 1])]),
             (constrained_pversion_coeffs(a, max(p, 1)),
              [0.0] + [(Pa[k - 1] - Pa[k + 1]) / 2 * (Px[k + 1] - Px[k - 1]) / (2 * k + 1)
                       for k in range(1, p + 1)])]
    for series, terms in cases:
        sums = _scalar_neumaier_running_sums(terms)
        assert sums[-1] == neumaier_sum(terms)
        want = sums if ref is None else [ref - v for v in sums]
        d, S = _running_sums(series, x, p, FLOAT64, ref)
        assert d.tobytes() == np.array(want).tobytes()
        assert type(S) is float and np.array(S).tobytes() == np.array(sums[-1]).tobytes()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(-0.95, 0.95), P=st.integers(1, 200), p=st.integers(0, 200))
def test_constrained_partial_sums_vanish_at_the_endpoints(a, P, p):
    p = min(p, P)
    for ctx in (FLOAT64, bigfloat(128)):
        series = constrained_pversion_coeffs(a, P, ctx)
        for x in (-1.0, 1.0):
            assert partial_sum(series, p, x) == 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 0.95), x=st.floats(-1.0, 1.0), p=st.integers(1, 300),
       family=st.sampled_from(["step", "absshift", "constrained"]))
def test_f64_sweeps_agree_with_big256_sweeps(a, x, p, family):
    # float64 coefficients and sums against big:256 ones; the worst of 1050
    # scratch draws (a, x, p as here) was 1.54e-15, and the bound is 10x that
    gen, exact = {"step": (step_derivative_coeffs, exact_solution_derivative),
                  "absshift": (abs_shift_coeffs, exact_solution),
                  "constrained": (constrained_pversion_coeffs, exact_solution)}[family]
    f64 = error_sweep(gen(a, p + 1), lambda t: exact(t, a), x, p)
    big = error_sweep(gen(a, p + 1, bigfloat(256)), lambda t: exact(t, a), x, p, bigfloat(256))
    assert np.max(np.abs(f64.abs_error - big.abs_error)) <= 1.6e-14


def _mpf_running_sums(series, x, p, ctx, ref):
    """The big-float running sum the fixed-point one replaced: terms from
    legendre_eval_range in mpf, summed in mpf and rounded to float order by
    order; returns (d, S_p) as series_eval._running_sums does."""
    with ctx.active():
        Px = legendre_eval_range(p + 1, x, ctx)
        if series.generator is Generator.CONSTRAINED_PVERSION:
            Pa = legendre_eval_range(p + 1, series.params["a"], ctx)
            terms = [ctx.zero()] + [(Pa[k - 1] - Pa[k + 1]) / 2 * (Px[k + 1] - Px[k - 1]) / (2 * k + 1)
                                    for k in range(1, p + 1)]
        else:
            terms = [ctx.convert(c) * Px[k] for k, c in enumerate(series.coeffs[: p + 1])]
        refv = None if ref is None else ctx.convert(ref)
        total, d = ctx.zero(), []
        for t in terms:
            total += t
            d.append(float(total if refv is None else refv - total))
        return np.array(d), total


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 0.95), x=st.floats(-1.0, 1.0), where=st.sampled_from(["x", "-1", "1", "a"]),
       p=st.integers(1, 300), bits=st.sampled_from([128, 192, 256]),
       coeff_bits=st.sampled_from([None, 0, 64]),
       # singular_term_coeffs refuses a top coefficient near 0 (beta near an integer)
       beta=st.floats(-0.9, 3.0).filter(lambda b: abs(b - round(b)) > 1e-3),
       family=st.sampled_from(["step", "absshift", "constrained", "powerabs"]))
def test_fixed_point_sums_match_the_mpf_running_sum(a, x, where, p, bits, coeff_bits, beta, family):
    # big-float partial sums run on integers round(v 2^(bits+64)); d is
    # bit-identical to the mpf running sum, and S_p within p 2^-bits of it,
    # relative to the largest |S_k| where that exceeds 1 (the mpf sum
    # rounds relative to its running total).
    # Coefficients come in float64 (None), at the sweep's bits (0), or at 64
    # more bits, which the sweep rounds to its own context first.
    x = {"x": x, "-1": -1.0, "1": 1.0, "a": a}[where]
    ctx = bigfloat(bits)
    cctx = FLOAT64 if coeff_bits is None else bigfloat(bits + coeff_bits)
    if family == "powerabs":
        series = singular_term_coeffs(a, beta, p + 1, bigfloat(cctx.bits or 256))
        ref = PowerAbsFamily(beta=beta, a=a).exact(x)
    else:
        gen, exact = {"step": (step_derivative_coeffs, exact_solution_derivative),
                      "absshift": (abs_shift_coeffs, exact_solution),
                      "constrained": (constrained_pversion_coeffs, exact_solution)}[family]
        series, ref = gen(a, p + 1, cctx), exact(x, a)
    d, S = _running_sums(series, x, p, ctx, ref)
    want_d, want_S = _mpf_running_sums(series, x, p, ctx, ref)
    assert np.array_equal(d, want_d)
    with ctx.active():
        scale = max(1.0, float(np.max(np.abs(_running_sums(series, x, p, ctx)[0]))))
        assert abs(S - want_S) <= p * scale * mpmath.mpf(2) ** -bits


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coeffs=st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-40, 1e-40),
                                 st.sampled_from([0.0, -0.0, 5e-324, -2.5e-323, 1e-300])),
                       min_size=2, max_size=40),
       x=st.floats(-1.0, 1.0), bits=st.sampled_from([64, 128, 256, 1024]))
@example(coeffs=[1e-300, -5e-324, 0.75, -0.0], x=0.3, bits=128)
@example(coeffs=[1.5 * 2.0 ** -128, 2.5 * 2.0 ** -128, -0.5 * 2.0 ** -128], x=1.0, bits=64)  # ties
@example(coeffs=[1.5, -2.0 ** -1070, 3 * 2.0 ** -1074], x=-0.7, bits=1024)
def test_bulk_fixed_point_coefficients_equal_per_coefficient_to_fixed(coeffs, x, bits):
    # float64 coefficients enter the fixed-point sum scaled by 2^S in one
    # array pass and rounded by round(); those below 2^-S round to nearest,
    # ties to even, and at 1024 bits 2^S c_k overflows and to_fixed takes over
    ctx, S = bigfloat(bits), bits + 64
    series = LegendreSeries(coeffs, Generator.CUSTOM_SPEC, FLOAT64)
    p = len(coeffs) - 1
    Px = legendre_fixed_range(p, ctx.convert(x), S)
    want = [(to_fixed(c, S) * P + (1 << (S - 1))) >> S for c, P in zip(coeffs, Px)]
    assert list(_fixed_terms(series, x, p, ctx, S)) == want


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
@pytest.mark.parametrize("pmax", [0, 1, 2, 2200])
@pytest.mark.parametrize("coeffs", ["f64", "big"])
def test_streamed_fixed_point_sums_equal_the_per_term_loop(bits, pmax, coeffs):
    # the streamed differences have the bits of the per-term loop, with and
    # without a reference; past 2^1024 (big:1024 with a reference) they are
    # divided as the loop divides
    ctx = bigfloat(bits)
    family = AbsShiftFamily(a=-0.3)
    series = family.series(max(pmax, 1), FLOAT64 if coeffs == "f64" else ctx)
    for x, ref in ((0.1, family.exact(0.1)), (-1.0, None), (0.7, 0.25)):
        d, S = _running_sums(series, x, pmax, ctx, ref)
        want_d, want_S = fixed_running_sums_loop(series, x, pmax, ctx, ref)
        assert d.tobytes() == want_d.tobytes()
        assert S == want_S and S._mpf_ == want_S._mpf_


def test_streamed_fixed_point_sums_round_subnormal_and_overflowing_values_once():
    # at big:1024 (S = 1088) a sum below the least normal float is an integer
    # that float(int) then ldexp would round twice, so the division rounds
    # it; with a reference near 1, 2^1088 |d| does not convert to float at all
    series = LegendreSeries([3e-320, -2.5e-321, 1e-322, 7e-321], Generator.CUSTOM_SPEC, FLOAT64)
    for bits, x, ref in ((1024, 0.3, None), (1024, -0.9, 2e-320), (1024, 0.5, 1.0),
                         (128, 0.3, None)):
        ctx = bigfloat(bits)
        d, S = _running_sums(series, x, 3, ctx, ref)
        want_d, want_S = fixed_running_sums_loop(series, x, 3, ctx, ref)
        assert d.tobytes() == want_d.tobytes() and S == want_S
    assert 0 < abs(_running_sums(series, 0.3, 3, bigfloat(1024))[0][-1]) < np.finfo(float).tiny
    # S_1 2^1088 = 2^60 + 2^13 + 1: float() rounds it to 2^60 + 2^13, which
    # ldexp then rounds to even, 2^-1028; rounded once it is 2^-1028 + 2^-1074
    tie = LegendreSeries([2.0 ** -1028, 2.0 ** -1074], Generator.CUSTOM_SPEC, FLOAT64)
    d, _ = _running_sums(tie, 0.5 + 2.0 ** -14, 1, bigfloat(1024))
    assert d[-1] == 2.0 ** -1028 + 2.0 ** -1074


def test_sweeps_of_a_held_series_build_no_mpf_list():
    # the float64 image and the fixed-point terms read the held pairs
    family = PowerAbsFamily(beta=-0.5, a=0.5)
    series = family.series(2201)
    error_sweep(series, family.exact, 0.1, 2200, FLOAT64)
    error_sweep(family.series(300), family.exact, -0.3, 300, bigfloat(192))
    partial_sum_values(series, 0.9, 1000, FLOAT64)
    assert series._coeffs is None and series.degree == 2201
    assert family.series(300)._coeffs is None


# sha256 of sweeps made only by Python float, numpy elementwise and
# pure-Python mpmath arithmetic (no BLAS, and libm only in the one pow of a
# power family's reference value, fig11a and fig12c), so the same on every
# machine; a change that moves one states the numerical reason.  Each is
# the hash of the sweep's text "p,abs_error" with one row "p,repr(error)"
# per order, keyed by that text's file name; the run writes the same
# numbers as <tag>.sweep.npy
PINNED_SWEEPS = {
    "fig02/fig02.x+0.5.sweep.csv":
        "65f8e143bdd6826ad99af1ee996141664ea7a2dee92fe81db3c390ab9cb40163",
    "fig03d/fig03d.x-0.999999.sweep.csv":
        "1093a969def0b161d42f21c660c4e39e46db2228958561f34a0590092fdb880a",
    "fig06c/fig06c.x+0.1.sweep.csv":
        "c5eb57205f95d9ce3dcffa0f6bdb538f090c07e9b3ba871bb8a25895a3b41f07",
    "fig07a/fig07a.x+0.5.sweep.csv":
        "a5de3d2a9af963e7658e4256003be524da1af0c821d0935462f2dca5488c9cc9",
    "fig09a/fig09a.x-0.999999.sweep.csv":
        "7bcf53a5fba8511cda4171b7d12c4b88b8b0c04fe848fd631fa2a8e3d066d131",
    "fig09b/fig09b.x-0.99.sweep.csv":
        "9e7844cb710d59751b43d77e55c71af0c38e0109aa500e2f58c2d9b8036a779b",
    "fig11a/fig11a.x-0.999.sweep.csv":  # big:256 |x|^beta coefficients, f64 sums
        "6f4a2b91becdcce1e0b683e1aaba54ddf6bf24bd65a16e5fdbdd1d5eb5291e66",
    "fig12b/fig12b.x-1.sweep.csv":
        "086b791ceb41a925bbe96fbbb6976dde134239ba182623324cd348d1882b9018",
    "fig12c/fig12c.x-0.1.sweep.csv":
        "1deb4cd8fd774155a6d6082dfa6fb48113680e1ab7f3e3207c9536f890b6f46c",
}


def _sweep_text(path) -> str:
    rows = np.load(path)
    return "p,abs_error\n" + "".join(f"{p},{e!r}\n" for p, e in
                                     zip(rows["p"].tolist(), rows["abs_error"].tolist()))


def test_partial_sum_kernel_bytes_are_pinned(tmp_path):
    # prefix sums in f64, big:192 and big:256, constrained sums in f64, up to p = 10000
    run_figures(str(tmp_path), only=sorted({k.split("/")[0] for k in PINNED_SWEEPS}))
    got = {k: hashlib.sha256(_sweep_text(tmp_path / (k[:-4] + ".npy")).encode()).hexdigest()
           for k in PINNED_SWEEPS}
    assert got == PINNED_SWEEPS
