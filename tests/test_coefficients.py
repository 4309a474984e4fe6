import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from leglab import coefficients
from leglab.coefficients import (Generator, LegendreSeries, abs_shift_coeffs,
                                 appendixA_moment, coefficient_text,
                                 constrained_pversion_coeffs, derivative_coeffs,
                                 legendre_monomial_rows, polynomial_legendre_coeffs,
                                 power_abs_coeffs, power_shift_coeffs,
                                 power_shift_coeffs_appendixA, singular_term_coeffs, spec_coeffs,
                                 step_derivative_coeffs)
from leglab.functions import (PowerAbsFamily, PowerShiftFamily, SingularFunctionSpec,
                              exact_solution, exact_solution_derivative)
from leglab.legendre import legendre_eval_range, legendre_fixed_range
from leglab.precision import (FLOAT64, PrecisionError, bigfloat, dyadic, pair_float,
                              pair_floats, pair_nstr, round_bits, to_fixed)
from leglab.runner import ExperimentConfig, run_experiment
from leglab.series_eval import _fixed_terms

from oracles import (binomial_moment_oracle, derivative_loop, legendre_eval, model_coeffs_loop,
                     mu_fixed_loop, partial_sum, piecewise_gauss_coeff, polynomial_horner_loop,
                     quadrature_oracle_coeffs, spec_sum_loop)
# the oracle under the name the two tests that read it have always called:
# a derandomized hypothesis test draws its examples from a digest of its source
from oracles import mu_recurrence as _mu_recurrence


def _rounded(q, ctx):
    """The rational q, an int or a Fraction, rounded once to ctx (mpmath takes no
    Fraction input)."""
    with ctx.active():
        return ctx.convert(q.numerator) / q.denominator


def _refusals(c, a, beta, bits: int):
    """(must, refusals): what ``singular_term_coeffs(a, beta, P, big:bits)``
    may refuse, from the reference coefficients c_0..c_P (mpfs), with
    mu_k = 2 c_k / (2k + 1).  It certifies c_P against a twin run at scale
    2^-(2 bits + 64), or c_(P-1) where mu_P reads 0 there (at P = 1 only for
    an |a| below that scale).  The twin may read a moment below 2^16 of its
    scale as 0.  Below 2^-16 of it, the moment of a non-polynomial comes
    from a tiny |a| or beta and reads 0, while a polynomial's zero moments
    (beta an even integer below P) may read as the recurrence's noise.  A
    refusal (j, "resolves") names a certified c_j with |mu_j| below 2^-74,
    which the fixed point at 2^-(bits + 64) may not resolve to the bits - 16
    bits the certification asks (2^-80), with 6 bits to spare for its own
    error (up to 8 of its units, measured over P <= 300); (P, "rounds to
    0") a certified c_P the twin may read as 0.  ``must``: no polynomial,
    and the certified c_P reads 0 (also c_(P-1) where it could stand in)."""
    P = len(c) - 1
    mu = [abs(2 * ck / (2 * k + 1)) for k, ck in enumerate(c)]
    S2 = 2 * bits + 64
    poly = beta >= 0 and beta % 2 == 0 and beta < P
    faint = [m < mpmath.ldexp(1, 16 - S2) for m in mu]
    zero = [not poly and m < mpmath.ldexp(1, -S2 - 16) for m in mu]
    under = P > 1 or (P == 1 and mpmath.ldexp(abs(a), S2) < 1)  # c_(P-1) may stand in
    if not faint[P]:
        js = {P}
    elif under and zero[P] and not faint[P - 1]:
        js = {P - 1}
    else:
        js = {P - 1, P} if under else {P}
    refusals = {(j, "resolves") for j in js if mu[j] < mpmath.ldexp(1, -74) and not zero[j]}
    refusals |= {(P, "rounds to 0")} if P in js and faint[P] else set()
    return zero[P] and (zero[P - 1] or not under), refusals


def _moments(a, beta, P, bits):
    """(S, [M_0, ..., M_P]): the fixed-point moments singular_term_coeffs
    forms at big:bits, without a twin."""
    S = bits + 64
    start = coefficients._mu_start(a, beta, S)
    return S, coefficients._mu_fixed(a, beta, 1, P, start, (0, 0))[0][: P + 1]


def test_step_examples():
    s = step_derivative_coeffs(0.5, 6)
    assert s.coeffs[0] == 0.0
    # a_1 = (P_0 - P_2)(1/2) / 2 = (1 + 0.125)/2
    assert s.coeffs[1] == pytest.approx(0.5625, abs=1e-15)
    # even-index coefficients vanish for a = 0
    s0 = step_derivative_coeffs(0.0, 8)
    assert all(s0.coeffs[k] == 0.0 for k in (2, 4, 6, 8))


def test_step_domain_error():
    with pytest.raises(ValueError):
        step_derivative_coeffs(1.0, 5)
    with pytest.raises(ValueError):
        step_derivative_coeffs(0.5, 0)


def test_step_against_quadrature_oracle():
    s = step_derivative_coeffs(0.5, 50)
    for k in (1, 2, 7, 25, 50):
        oracle = float(piecewise_gauss_coeff(lambda t: exact_solution_derivative(t, 0.5), 0.5, k))
        assert s.coeffs[k] == pytest.approx(oracle, rel=1e-12, abs=1e-14)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 5e-324]),
                   st.floats(-0.999999, 0.999999)),
       P=st.one_of(st.sampled_from([1, 2, 2201]), st.integers(1, 3000)))
def test_step_f64_coefficients_keep_the_bits_of_the_scalar_loop(a, P):
    # the f64 generator reads the held Legendre row as one array expression;
    # its list holds Python floats with the bits of 0.5 * (P_{k-1}(a) - P_{k+1}(a))
    Pk = legendre_eval_range(P + 1, a)
    want = [0.0] + [0.5 * (Pk[k - 1] - Pk[k + 1]) for k in range(1, P + 1)]
    for _ in range(2):  # a cold row, then the held one
        got = step_derivative_coeffs(a, P).coeffs
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    # the absshift generator reaches the row through it
    assert abs_shift_coeffs(a, P).coeffs[0] == -want[1] / 3


def test_abs_shift_examples():
    c = abs_shift_coeffs(0.5, 6)
    assert c.coeffs[0] == pytest.approx(-0.1875, abs=1e-15)
    # derivative of an exactly-represented polynomial: d/dx x^2 = 2 P_1
    from leglab.coefficients import LegendreSeries
    quad = LegendreSeries([1 / 3, 0.0, 2 / 3], Generator.POWER_ABS, FLOAT64)
    d = derivative_coeffs(quad)
    assert [float(v) for v in d.coeffs] == pytest.approx([0.0, 2.0], abs=1e-15)
    # derivative of the (truncated) solution series approaches the step series;
    # truncation feeds every lower coefficient at the (2k+1)-weighted tail level
    d = derivative_coeffs(abs_shift_coeffs(0.5, 2200))
    s = step_derivative_coeffs(0.5, 30)
    for k in range(31):
        assert float(d.coeffs[k]) == pytest.approx(float(s.coeffs[k]), abs=(2 * k + 1) * 1e-5)


def _value(pair) -> Fraction:
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


def test_f64_derivative_of_absshift_is_correctly_rounded():
    # the backward recurrence this replaced read d_0 = 8.439053690591225e-05,
    # 254 ulp off, and 60 of these 108 cells were not correctly rounded
    series = abs_shift_coeffs(0.5, 108)
    d = derivative_coeffs(series)
    c = [Fraction(v) for v in series.coeffs]
    assert d.coeffs[0] == 8.439053690591569e-05
    assert d.coeffs == [float((2 * k + 1) * sum(c[k + 1::2])) for k in range(108)]
    assert d.params == {"a": 0.5, "derivative": 1} and d.generator is Generator.ABS_SHIFT
    assert derivative_loop(series)[0] == 8.439053690591225e-05
    # the recurrence over the same floats at 512 bits, rounded once
    wide = LegendreSeries.from_pairs(map(dyadic, series.coeffs), series.generator,
                                     bigfloat(512), series.params)
    assert [float(v) for v in derivative_loop(wide)] == d.coeffs


_normal = st.one_of(st.just(0.0), st.floats(1e-200, 1e300), st.floats(-1e300, -1e-200))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(floats=st.lists(_normal, min_size=1, max_size=40),
       pairs=st.lists(st.tuples(st.integers(-2 ** 400, 2 ** 400), st.integers(-700, 0)),
                      min_size=1, max_size=40),
       big=st.booleans())
def test_derivative_is_the_exact_parity_sum_rounded_once(floats, pairs, big):
    # d_k = (2k+1) sum_j c_{k+1+2j}; in float64 the values stay normal, where
    # a float is rounded once
    if big:
        series = LegendreSeries.from_pairs(pairs, Generator.CUSTOM_SPEC, bigfloat(256), {})
    else:
        series = LegendreSeries(floats, Generator.CUSTOM_SPEC, FLOAT64)
    c = list(map(_value, series.pairs()))
    want = [(2 * k + 1) * sum(c[k + 1::2]) for k in range(max(len(c) - 1, 1))]
    got = derivative_coeffs(series)
    if big:
        rounded = [round_bits(q.numerator, 1 - q.denominator.bit_length(), 256) for q in want]
        assert list(map(_value, got.pairs())) == list(map(_value, rounded))
    else:
        assert got.coeffs == list(map(float, want))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(poly=st.lists(st.floats(-1e3, 1e3), max_size=9), P=st.integers(0, 12))
def test_polynomial_coefficients_are_the_horner_loop_in_fractions(poly, P):
    got = polynomial_legendre_coeffs(poly, P)
    assert len(got) == P + 1 and all(type(q) is Fraction for q in got)
    assert got == polynomial_horner_loop(poly, P, Fraction)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(terms=st.lists(st.tuples(st.floats(-4, 4), st.floats(-0.9, 0.9), st.floats(-0.9, 3.5)),
                      max_size=3),
       poly=st.lists(st.floats(-2, 2), max_size=5), P=st.integers(1, 40),
       ctx=st.sampled_from([FLOAT64, bigfloat(256)]))
def test_spec_coefficients_are_the_running_sum_to_one_ulp(terms, poly, P, ctx):
    # the running sum formed 64 bits wider than ctx, over the same rounded
    # term coefficients, and rounded to ctx, is within 1 ulp of the exact sum
    spec = SingularFunctionSpec(terms=tuple(terms), analytic_part=tuple(poly))
    bits = ctx.bits or 53
    try:
        got = spec_coeffs(spec, P, ctx).pairs()
    except PrecisionError:
        with pytest.raises(PrecisionError):
            spec_sum_loop(spec, P, ctx)
        return
    ref = [_value(dyadic(r)) for r in spec_sum_loop(spec, P, ctx, bigfloat(bits + 64))]
    for g, r in zip(map(_value, got), ref):
        assert abs(g - r) <= abs(r) * Fraction(2) ** (1 - bits)


def test_abs_shift_boundary_sum_decays(abs_series):
    assert abs(partial_sum(abs_series, 2200, -1.0)) <= 1e-3


def test_constrained_structure():
    b = constrained_pversion_coeffs(0.5, 12)
    assert len(b.coeffs) == 14
    assert b.coeffs[0] == pytest.approx(-0.1875)
    # stored coefficients reproduce the bump-sum evaluation at full order
    from leglab.legendre import legendre_eval_range

    for x in (-1.0, -0.3, 0.5, 1.0):
        Px = legendre_eval_range(13, x)
        literal = math.fsum(float(c) * Px[k] for k, c in enumerate(b.coeffs))
        assert partial_sum(b, 12, x) == pytest.approx(literal, abs=1e-13)


def test_constrained_vanishes_at_endpoints():
    for P in (1, 2, 5, 40):
        b = constrained_pversion_coeffs(0.5, P)
        for x in (-1.0, 1.0):
            for p in range(1, P + 1):
                assert abs(partial_sum(b, p, x)) < 5e-15


def test_power_abs_trivial_cases():
    c0 = power_abs_coeffs(0.0, 5)
    assert [float(v) for v in c0.coeffs] == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-16)
    c2 = power_abs_coeffs(2.0, 6)
    assert float(c2.coeffs[0]) == pytest.approx(1 / 3, rel=1e-14)
    assert float(c2.coeffs[2]) == pytest.approx(2 / 3, rel=1e-14)
    assert all(abs(float(v)) < 1e-15 for k, v in enumerate(c2.coeffs) if k not in (0, 2))


def test_power_abs_parity_and_guards():
    c = power_abs_coeffs(-0.5, 31, bigfloat(128))
    assert all(float(c.coeffs[k]) == 0.0 for k in range(1, 32, 2))
    with pytest.raises(PrecisionError):
        power_abs_coeffs(-0.5, 10, FLOAT64)
    with pytest.raises(ValueError):
        power_abs_coeffs(-1.0, 10)
    # beta = 2: the ratio recurrence gives 1/3 and 2/3, correctly rounded
    ce = power_abs_coeffs(2.0, 4, bigfloat(256))
    assert ce.coeffs[0] == _rounded(Fraction(1, 3), ce.ctx)
    assert ce.coeffs[2] == _rounded(Fraction(2, 3), ce.ctx)


def test_power_abs_against_splitting_oracle():
    # oracle: integrate x^b (P_2j(x) - P_2j(0)) over (0,1), second term analytic
    beta = -0.5
    c = power_abs_coeffs(beta, 40, bigfloat(192))
    with mpmath.workprec(192):
        b = mpmath.mpf(beta)
        for j in (0, 1, 2, 5, 11, 20):
            k = 2 * j

            def smooth(t, k=k):
                pk0 = legendre_eval(k, 0.0)
                pkt = _leg_mp(k, t)
                return t ** b * (pkt - pk0)

            integral = mpmath.quad(smooth, [0, 1]) + legendre_eval(k, 0.0) / (b + 1)
            oracle = (4 * j + 1) * integral
            assert abs(float(c.coeffs[k]) - float(oracle)) <= 1e-10 * abs(float(oracle))


def _leg_mp(k, x):
    pm1 = mpmath.mpf(1)
    if k == 0:
        return pm1
    pk = x
    for n in range(1, k):
        pm1, pk = pk, ((2 * n + 1) * x * pk - n * pm1) / (n + 1)
    return pk


def test_power_abs_parseval_consistency():
    beta = -0.4
    c = power_abs_coeffs(beta, 400, bigfloat(128)).as_floats()
    k = np.arange(401)
    partial = np.cumsum(c * c * 2.0 / (2 * k + 1))
    norm_sq = 2.0 / (2 * beta + 1)  # int |x|^(2 beta)
    assert np.all(np.diff(partial) >= -1e-18)
    assert partial[-1] <= norm_sq
    # slow approach from below (coefficients decay like k^(-0.1) here)
    assert partial[-1] > partial[100] > partial[10]


def test_singular_term_matches_power_abs():
    c1 = singular_term_coeffs(0.0, -0.5, 40, bigfloat(160))
    c2 = power_abs_coeffs(-0.5, 40, bigfloat(160))
    for k in range(41):
        assert float(c1.coeffs[k]) == pytest.approx(float(c2.coeffs[k]), rel=1e-25, abs=1e-30)


def test_singular_term_matches_abs_shift():
    # |x - a| = 2 u + linear, so coefficients agree twice over for k >= 2
    cm = singular_term_coeffs(0.5, 1.0, 30, bigfloat(128))
    cu = abs_shift_coeffs(0.5, 30)
    for k in range(2, 31):
        assert float(cm.coeffs[k]) == pytest.approx(2 * float(cu.coeffs[k]), rel=1e-12, abs=1e-15)


def test_singular_term_against_quadrature_oracle():
    a, beta = 0.5, -0.5
    series = singular_term_coeffs(a, beta, 12, bigfloat(160))
    with mpmath.workprec(160):
        av = mpmath.mpf(a)
        oracle = quadrature_oracle_coeffs(lambda t: abs(t - av) ** mpmath.mpf(beta),
                                          12, singular_points=(a,), prec_bits=160)
    for k in range(13):
        o = oracle[k]
        assert float(series.coeffs[k]) == pytest.approx(o, rel=1e-10, abs=1e-12)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(min_value=-0.9, max_value=0.9, exclude_min=True, exclude_max=True),
       beta=st.floats(min_value=-0.95, max_value=3.0, exclude_min=True, exclude_max=True),
       P=st.integers(min_value=0, max_value=300))
@example(a=0.0, beta=8e-300, P=2)
def test_singular_term_fixed_point_matches_float_recurrence(a, beta, P):
    ref = _mu_recurrence(a, beta, P, bigfloat(512))
    must, refusals = _refusals(ref, a, beta, 192)
    try:
        fixed = singular_term_coeffs(a, beta, P, bigfloat(192)).coeffs
    except PrecisionError as err:
        # only the certification's own refusal, of a coefficient it certifies
        m = re.search(r"resolves c_(\d+) of .* to (-?[\d.]+) bits|c_(\d+) of .* rounds to 0",
                      str(err))
        assert m, err
        assert ((int(m[1]), "resolves") if m[1] else (int(m[3]), "rounds to 0")) in refusals, err
        assert m[2] is None or float(m[2]) <= 192 - 16  # printed to 0.1 bit
        return
    assert not must
    with mpmath.workprec(512):
        envelope = max(abs(c) for c in ref)
        gap = max(abs(c - r) for c, r in zip(fixed, ref))
        assert gap <= mpmath.mpf(2) ** (20 - 192) * envelope


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.one_of(st.sampled_from([0.0, 0.5, -0.5]), st.floats(-0.99, 0.99)),
       beta=st.one_of(st.sampled_from([-5 / 6, -0.5, -1 / 16, 0.5, 1.0, 2.9]),
                      st.floats(-0.99, 6.0)),
       P=st.integers(0, 400), bits=st.sampled_from([64, 128, 192, 256]))
@example(a=0.5, beta=-5 / 6, P=2201, bits=256)
def test_mu_fixed_moments_equal_the_step_formed_anew(a, beta, P, bits):
    # the step coefficients advanced by addition give the moments of the
    # step that forms them at every k, integer for integer, and the twin run
    # in the same loop gives the top two moments of its own scale
    S, moments = _moments(a, beta, P, bits)
    assert S == bits + 64 and len(moments) == P + 1
    start = coefficients._mu_start(a, beta, S)
    assert moments == mu_fixed_loop(a, beta, P, *start)
    twin = coefficients._mu_start(a, beta, 2 * bits + 64)
    _, top = coefficients._mu_fixed(a, beta, 1, P, start, twin)
    assert list(top) == mu_fixed_loop(a, beta, max(P, 1), *twin)[-2:]


@pytest.mark.parametrize("beta", [-5 / 6, -2 / 3, -0.5, -1 / 16, 0.5, 1.0])
def test_singular_term_f64_image_unchanged_on_default_grid(beta):
    # the conjecture grid's a = 0.5 points read these floats
    fixed = singular_term_coeffs(0.5, beta, 2201)
    assert fixed.as_floats().tolist() == [float(c) for c in _mu_recurrence(0.5, beta, 2201, bigfloat(256))]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
       beta=st.floats(-0.5, 4.5, exclude_min=True))
@example(a=0.3, beta=2.9)
@example(a=-0.7, beta=4.5)
def test_f64_power_coefficients_are_the_big_float_ones_rounded_once(a, beta):
    # float64 |x|^beta and |x - a|^beta read their integer recurrence and
    # round each exact pair once; a big:512 run rounded once gives the same
    # floats (the float64 loops they replaced drifted by up to 35,370 ulp at
    # (0.3, 2.9), and 53 + 64 working bits miss by 977 ulp at (-0.7, 4.5)).
    # Where big:512 cannot certify its top coefficient (|beta| below about
    # 1e-20 at a != 0) there is no reference to compare with.
    try:
        ref = PowerAbsFamily(beta=beta, a=a).series(2201, bigfloat(512))
    except PrecisionError:
        reject()
    got = PowerAbsFamily(beta=beta, a=a).series(2201, FLOAT64).as_floats()
    assert got.tobytes() == pair_floats(list(ref.pairs())).tobytes()


def test_a_top_coefficient_zero_by_parity_certifies_the_one_under_it():
    # at an |a| below the twin's resolution the odd c_2201 reads 0 by parity;
    # c_2200 holds 27 of the 37 bits its certification asks, and unchecked,
    # 1100 even coefficients came out up to 1.2e8 ulp off in float64
    with pytest.raises(PrecisionError, match="c_2200"):
        singular_term_coeffs(2.2250738585e-313, 1.401298464324817e-45, 2201, FLOAT64)
    # where c_2200 is resolved the series passes, with c_2201 = 0
    got = singular_term_coeffs(1e-300, 0.5, 2201, FLOAT64).as_floats()
    ref = singular_term_coeffs(1e-300, 0.5, 2201, bigfloat(256))
    assert got[-1] == 0 and got.tobytes() == pair_floats(list(ref.pairs())).tobytes()


@pytest.mark.parametrize("shift,raises,ctx", [
    pytest.param(110, True, bigfloat(128), id="110-True"),
    pytest.param(114, False, bigfloat(128), id="114-False"),
    pytest.param(35, True, FLOAT64, id="f64-35-True"),
    pytest.param(39, False, FLOAT64, id="f64-39-False"),
])
def test_singular_term_certification_threshold(monkeypatch, shift, raises, ctx):
    # the top moment of the doubled-precision twin moved by 2^-shift
    # relative, against the 2^(16-128) threshold at big:128 and against
    # 2^(16-53) in float64, whose run carries 128 + 64 bits
    real = coefficients._mu_fixed

    def perturbed(*args):
        moments, (t_prev, t) = real(*args)
        return moments, (t_prev, t + (abs(t) >> shift))

    monkeypatch.setattr(coefficients, "_mu_fixed", perturbed)
    if raises:
        with pytest.raises(PrecisionError):
            singular_term_coeffs(0.5, -0.5, 200, ctx)
    else:
        singular_term_coeffs(0.5, -0.5, 200, ctx)


def test_singular_term_zero_top_coefficient_raises_unless_exact():
    # every c_k with k >= 1 of |x - 0.5|^(1e-100) is of order 1e-100 and
    # rounds to 0 in float64's fixed point (the true c_1 is -1.37e-100);
    # at beta = 1e-20 big:256 resolves c_P but cannot certify it, and more
    # context bits would not change that
    for beta, ctx in ((1e-100, FLOAT64), (-1e-100, FLOAT64), (1e-20, None)):
        with pytest.raises(PrecisionError, match=r"\|beta\| is too close to 0") as exc:
            singular_term_coeffs(0.5, beta, 2201, ctx)
        assert "raise the context bits" not in str(exc.value)
    # exact zeros pass: the constant (beta = 0, a default-grid cell), a
    # polynomial of lower degree, and odd degrees of |x|^beta
    for a, beta, P, ctx in ((0.5, 0.0, 2201, FLOAT64), (0.5, 0.0, 2201, None),
                            (0.5, 2.0, 2201, FLOAT64), (0.3, 4.0, 2201, bigfloat(256)),
                            (0.3, 4.0, 6, FLOAT64), (0.0, 0.5, 2201, FLOAT64),
                            (0.0, -0.5, 2201, None)):
        series = singular_term_coeffs(a, beta, P, ctx)
        assert series.coeffs[P] == 0, (a, beta, P)
    # float64 resolves beta = 1e-20 and big:256 beta = 1e-3: no zero, no raise
    assert singular_term_coeffs(0.5, 1e-20, 2201, FLOAT64).coeffs[2201] != 0
    assert singular_term_coeffs(0.5, 1e-3, 2201, bigfloat(256)).coeffs[2201] != 0


def test_singular_term_zero_c1_at_p1_raises_unless_exact():
    # at P = 1 the twin's pair is (mu_0, mu_1) and mu_0 is never 0, so a zero
    # T_1 passes only where two zero moments would: a polynomial or an |a|
    # below the twin's resolution
    with pytest.raises(PrecisionError, match=r"beta = 1e-100.*\|beta\| is too close to 0"):
        singular_term_coeffs(0.5, 1e-100, 1, FLOAT64)
    for a, beta in ((0.0, 0.5), (0.5, 0.0)):
        assert singular_term_coeffs(a, beta, 1, FLOAT64).coeffs[1] == 0


def test_power_shift_trivial():
    c0 = power_shift_coeffs_appendixA(0.0, 4)
    assert [float(v) for v in c0.coeffs] == pytest.approx([1, 0, 0, 0, 0], abs=1e-25)
    c1 = power_shift_coeffs_appendixA(1.0, 5)
    assert float(c1.coeffs[0]) == pytest.approx(1.0, rel=1e-14)
    assert float(c1.coeffs[1]) == pytest.approx(1.0, rel=1e-14)
    # zero up to the cancellation floor of the 64 + ceil(1.6 P) bit rule
    assert all(abs(float(v)) < 1e-20 for v in c1.coeffs[2:])


def test_power_shift_guards():
    with pytest.raises(ValueError):
        power_shift_coeffs_appendixA(-1.5, 5)


def _closed_form_vs_appendixA(beta, P, oracle_bits=192):
    """Largest gap between the closed form at big:192 and the Appendix-A
    oracle, relative to the envelope max(|c_k|, 1/(2k+1))."""
    closed = power_shift_coeffs(beta, P, bigfloat(192)).coeffs
    oracle = power_shift_coeffs_appendixA(beta, P, bigfloat(oracle_bits)).coeffs
    with mpmath.workprec(oracle_bits + 64):
        return max(abs(c - o) / max(abs(o), mpmath.mpf(1) / (2 * k + 1))
                   for k, (c, o) in enumerate(zip(closed, oracle)))


# Near integer beta the oracle's top coefficient is nearly 0; at 1024 bits it
# clears its own cancellation there.
@pytest.mark.parametrize("beta,P,oracle_bits",
                         [(b, 300, 192) for b in (-5.0 / 6.0, -0.5, 0.5, 1.5)]
                         + [(b, 60, 1024) for b in (1e-100, -1e-20, 1 + 2.0 ** -40,
                                                    2 - 1e-15, 3 + 1e-12)])
def test_power_shift_closed_form_matches_appendixA(beta, P, oracle_bits):
    assert _closed_form_vs_appendixA(beta, P, oracle_bits) <= 1e-50


def test_power_shift_closed_form_f64_bit_identical_to_appendixA():
    for beta in (-0.9, -5.0 / 6.0, -0.5, -0.1, 0.3, 0.5, 1.5, 2.7):
        closed = power_shift_coeffs(beta, 300).coeffs
        assert closed == power_shift_coeffs_appendixA(beta, 300).coeffs, beta
        assert all(type(c) is float for c in closed)


# The oracle runs at big:384 here: at low P it works at only max(64 + 1.6 P + 32,
# out bits) bits and cancels about 1.6 bits per degree, so at big:192 it is
# itself off by 1.3e-50 at beta = 2.90625, P = 17 (the closed form: 4e-59).
# Within 1e-6 of an integer the oracle cannot certify its near-zero top
# coefficient; the near-integer cases of the fixed test above cover that band.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(beta=st.floats(min_value=-0.95, max_value=4.0).filter(lambda b: abs(b - round(b)) > 1e-6),
       P=st.integers(min_value=0, max_value=120))
def test_power_shift_closed_form_matches_appendixA_random(beta, P):
    assert _closed_form_vs_appendixA(beta, P, oracle_bits=384) <= 1e-50


def test_power_shift_tiny_beta_is_log():
    # (1+x)^beta = 1 + beta log(1+x) + O(beta^2), and log(1+x) has the Legendre
    # coefficients (-1)^(k-1) (2k+1)/(k(k+1)) for k >= 1; beta + 1 - P rounded
    # at working precision would drop beta here
    for beta in (1e-300, -1e-300):
        series = power_shift_coeffs(beta, 60, bigfloat(192))
        assert series.coeffs[0] == 1
        with mpmath.workprec(256):
            for k in range(1, 61):
                log_k = mpmath.mpf((-1) ** (k - 1) * (2 * k + 1)) / (k * (k + 1))
                assert abs(series.coeffs[k] / (beta * log_k) - 1) <= 1e-50, k


def test_power_shift_closed_form_guards():
    with pytest.raises(ValueError):
        power_shift_coeffs(-1.5, 5)
    with pytest.raises(ValueError):
        power_shift_coeffs(-1.0, 5)
    with pytest.raises(ValueError):
        power_shift_coeffs(0.5, -1)


def test_power_shift_closed_form_against_gamma_form():
    # far beyond the oracle's reach: P = 5000 and a large exponent
    series = power_shift_coeffs(7.5, 5000, bigfloat(128))
    with mpmath.workprec(256):
        b = mpmath.mpf(7.5)
        for k in (0, 9, 1000, 5000):
            ref = (2 ** b * (2 * k + 1) * mpmath.gamma(b + 1) ** 2
                   / (mpmath.gamma(b + k + 2) * mpmath.gamma(b + 1 - k)))
            assert abs(series.coeffs[k] - ref) <= abs(ref) * mpmath.mpf(2) ** -125, k


@pytest.mark.parametrize("side,raises", [(1, True), (-1, False)], ids=["above", "below"])
@pytest.mark.parametrize("P", [1, 801, 2201])
@pytest.mark.parametrize("ctx", [None, bigfloat(192)], ids=["f64", "big192"])
def test_power_shift_certification_threshold(monkeypatch, ctx, P, side, raises):
    # c_P moved by 2^(32 - bits) (1 +- 1/16) relative, against the Gamma
    # form's threshold 2^(32 - bits) at the run's bits = max(128, output
    # bits) + 64; the run's own error, about P 2^-bits, is far inside 1/16
    bits = max(128, (ctx or FLOAT64).bits) + 64
    real = coefficients._ratio_run

    def perturbed(*args):
        run = list(real(*args))
        M, E = run[-1]
        run[-1] = (M + ((M * (16 + side)) >> (bits - 28)), E)
        return run

    monkeypatch.setattr(coefficients, "_ratio_run", perturbed)
    if raises:
        with pytest.raises(PrecisionError, match="Gamma form"):
            power_shift_coeffs(0.5, P, ctx)
    else:
        power_shift_coeffs(0.5, P, ctx)


@pytest.mark.parametrize("ctx", [None, bigfloat(192)])
def test_power_shift_integer_beta_is_polynomial(ctx):
    # (1+x)^beta for integer beta: the leading coefficients are those of the
    # polynomial, correctly rounded, and every later one is exactly zero
    # the Legendre coefficients of 1, 1 + x and 1 + 2x + x^2 = 4/3 + 2 P_1 + 2/3 P_2
    polys = {0: [1], 1: [1, 1], 2: [Fraction(4, 3), 2, Fraction(2, 3)]}
    for beta, exact in polys.items():
        series = PowerShiftFamily(beta=beta).series(2201, ctx)
        assert len(series.coeffs) == 2202
        assert series.coeffs[:beta + 1] == [_rounded(e, series.ctx) for e in exact]
        assert all(c == 0 for c in series.coeffs[beta + 1:])
    assert [float(c) for c in PowerShiftFamily(beta=2).series(3).coeffs] == [4 / 3, 2.0, 2 / 3, 0.0]


def _mpf_route(kind, a, beta, P, bits):
    """The coefficients as the generators built them before they held pairs:
    one mpf per coefficient from the same integer kernels, rounded by mpmath
    to big:bits (|x+1|^beta: exact at twice its working bits, then rounded)."""
    ctx = bigfloat(bits)
    if kind == "singular":
        S, moments = _moments(a, beta, P, bits)
        with ctx.active():
            return [mpmath.mpf(((2 * k + 1) * m, -S - 1)) for k, m in enumerate(moments)]
    bn, e = dyadic(beta)
    bd = 1 << -e
    if kind == "powerabs":
        factors = [(bd, bn + bd)] + [(bn - 2 * j * bd, bn + (2 * j + 3) * bd) for j in range(P // 2)]
        out = [mpmath.mpf(0)] * (P + 1)
        with ctx.active():
            for j, (M, E) in enumerate(coefficients._ratio_run(1, 0, factors, bits + 64)):
                out[2 * j] = mpmath.mpf(((4 * j + 1) * M, E))
        return out
    work = max(128, bits) + 64
    with mpmath.workprec(work):
        M, E = dyadic(2 ** (mpmath.mpf(beta) + 1))
    factors = [(bd, bn + bd)] + [(bn - k * bd, bn + (k + 2) * bd) for k in range(P)]
    with mpmath.workprec(2 * work):
        hi = [mpmath.mpf(((2 * k + 1) * M, E - 1))
              for k, (M, E) in enumerate(coefficients._ratio_run(M, E, factors, work))]
    with ctx.active():
        return [+c for c in hi]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["singular", "powerabs", "powershift"]),
       a=st.floats(-0.9, 0.9), P=st.integers(1, 300), x=st.floats(-1.0, 1.0),
       # singular_term_coeffs refuses a top coefficient near 0 (beta near an integer)
       beta=st.floats(-0.95, 3.0).filter(lambda b: abs(b - round(b)) > 1e-3),
       bits=st.sampled_from([128, 192, 256]), eval_bits=st.sampled_from([128, 192, 256]))
@example(kind="singular", a=0.5, P=300, x=-0.3, beta=-5 / 6, bits=256, eval_bits=128)
def test_held_pairs_have_the_bits_of_the_mpf_route(kind, a, P, x, beta, bits, eval_bits):
    series = {"singular": lambda: singular_term_coeffs(a, beta, P, bigfloat(bits)),
              "powerabs": lambda: power_abs_coeffs(beta, P, bigfloat(bits)),
              "powershift": lambda: power_shift_coeffs(beta, P, bigfloat(bits))}[kind]()
    old = _mpf_route(kind, a, beta, P, bits)
    # the float64 image: float() of each mpf
    assert series.as_floats().tolist() == [float(c) for c in old]
    # the fixed-point terms: to_fixed of each mpf, rounded to the sweep's
    # context first where the series has more bits
    ctx = bigfloat(eval_bits)
    S = eval_bits + 64
    Px = legendre_fixed_range(P, ctx.convert(x), S)
    want = [(to_fixed(c if bits <= eval_bits else ctx.convert(c), S) * p + (1 << (S - 1))) >> S
            for c, p in zip(old, Px)]
    assert list(_fixed_terms(series, x, P, ctx, S)) == want
    assert series._coeffs is None  # neither built an mpf
    assert [c._mpf_ for c in series.coeffs] == [c._mpf_ for c in old]


def _mpf_power_shift(beta, P, ctx):
    """The mpf ratio recurrence the integer one replaced: every operation
    rounded at max(128, output bits) + 64 bits, then each coefficient rounded
    to ctx (float64 when None)."""
    with mpmath.workprec(max(128, (ctx or FLOAT64).bits) + 64):
        b = mpmath.mpf(beta)
        I, out = 2 ** (b + 1) / (b + 1), []
        for k in range(P + 1):
            out.append((2 * k + 1) * I / 2)
            I = I * (b - k) / (b + k + 2)
    if ctx is None:
        return [float(c) for c in out]
    with ctx.active():
        return [+c for c in out]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(beta=st.one_of(st.floats(-0.99, 6.0), st.integers(0, 5).map(float)),
       P=st.integers(0, 400), bits=st.sampled_from([None, 64, 128, 192, 256]))
@example(beta=1e-100, P=60, bits=192)
@example(beta=-1e-20, P=60, bits=None)
@example(beta=3.0, P=400, bits=256)
def test_power_shift_integer_recurrence_matches_the_mpf_one(beta, P, bits):
    ctx = None if bits is None else bigfloat(bits)
    assert power_shift_coeffs(beta, P, ctx).coeffs == _mpf_power_shift(beta, P, ctx)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(beta=st.one_of(st.floats(-0.99, 4.0), st.integers(0, 4).map(float)),
       P=st.integers(1, 1200), bits=st.sampled_from([128, 192, 256]))
def test_power_abs_big_coefficients_are_within_one_ulp(beta, P, bits):
    # the integer ratio recurrence carries 64 guard bits and rounds each
    # coefficient once; the mpf loop it replaced had no guard bits and was
    # off by up to 35 ulp at P = 2200
    got = power_abs_coeffs(beta, P, bigfloat(bits)).coeffs
    with mpmath.workprec(bits + 256):
        b = mpmath.mpf(beta)
        I = 1 / (b + 1)
        for j in range(P // 2 + 1):
            want = (4 * j + 1) * I
            _, _, exp, bc = got[2 * j]._mpf_
            ulp = 0 if want == 0 else mpmath.mpf(2) ** (exp + bc - bits)
            assert abs(got[2 * j] - want) <= ulp, j
            I = I * (b - 2 * j) / (b + 2 * j + 3)


def test_appendixA_moment_matches_binomial():
    for beta in (-0.5, 0.5, 1.5):
        for k in (0, 1, 7, 23, 50):
            a1 = appendixA_moment(k, beta, 256)
            orc = binomial_moment_oracle(k, beta, 256)
            scale = max(abs(float(orc)), 1.0 / (k + 1))
            assert abs(float(a1 - orc)) <= 1e-40 * scale


def test_monomial_rows_exact():
    rows = dict(legendre_monomial_rows(3))
    # P_2 = (3 x^2 - 1)/2 -> numerators over 2^2: [(2, 6), (0, -2)]
    assert rows[2] == [(2, 6), (0, -2)]
    assert rows[3] == [(3, 20), (1, -12)]


def test_polynomial_legendre_roundtrip():
    coeffs = polynomial_legendre_coeffs([0.0, 0.0, 1.0], 4)
    assert [float(c) for c in coeffs] == pytest.approx([1 / 3, 0, 2 / 3, 0, 0], abs=1e-15)
    # cubic: x^3 = (2 P_3 + 3 P_1)/5
    coeffs = polynomial_legendre_coeffs([0.0, 0.0, 0.0, 1.0], 4)
    assert [float(c) for c in coeffs] == pytest.approx([0, 0.6, 0, 0.4, 0], abs=1e-15)


def test_spec_coeffs_polynomial_and_linearity():
    spec = SingularFunctionSpec(analytic_part=(0.0, 0.0, 1.0))
    s = spec_coeffs(spec, 4)
    assert [float(c) for c in s.coeffs] == pytest.approx([1 / 3, 0, 2 / 3, 0, 0], abs=1e-15)

    t1 = SingularFunctionSpec(terms=((1.0, 0.25, 0.5),))
    t2 = SingularFunctionSpec(terms=((2.0, -0.4, 1.5),))
    both = SingularFunctionSpec(terms=((1.0, 0.25, 0.5), (2.0, -0.4, 1.5)))
    s1, s2, s12 = (spec_coeffs(t, 20) for t in (t1, t2, both))
    for k in range(21):
        assert float(s12.coeffs[k]) == pytest.approx(float(s1.coeffs[k]) + float(s2.coeffs[k]),
                                                     rel=1e-14, abs=1e-18)


def test_spec_coeffs_single_term_vs_abs_shift():
    spec = SingularFunctionSpec(terms=((1.0, 0.5, 1.0),))
    s = spec_coeffs(spec, 20)
    cu = abs_shift_coeffs(0.5, 20)
    for k in range(2, 21):
        assert float(s.coeffs[k]) == pytest.approx(2 * float(cu.coeffs[k]), rel=1e-12, abs=1e-15)


def test_spec_merges_duplicate_centers():
    spec = SingularFunctionSpec(terms=((1.0, 0.3, 0.5), (2.5, 0.3, 0.5)))
    assert spec.terms == ((3.5, 0.3, 0.5),)


def test_abs_shift_against_quadrature_oracle():
    # piecewise-linear integrand: two-piece Gauss integration is exact
    c = abs_shift_coeffs(0.5, 40)
    for k in (0, 1, 2, 9, 25, 40):
        oracle = piecewise_gauss_coeff(lambda t: exact_solution(t, 0.5), 0.5, k)
        assert float(c.coeffs[k]) == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def _ulps_off(pair, ref_pair, bits):
    """|pair - ref| in units of the last place of ref rounded to ``bits`` bits."""
    n, e = round_bits(*ref_pair, bits)
    if n == 0:
        return math.inf if pair[0] else 0
    value = Fraction(pair[0]) * Fraction(2) ** pair[1]
    ref = Fraction(n) * Fraction(2) ** e
    return abs(value - ref) / Fraction(2) ** (e + abs(n).bit_length() - bits)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(a=st.floats(-0.95, 0.95).filter(lambda t: t != 0),
       gen=st.sampled_from(["step", "absshift", "constrained"]))
@example(a=0.5, gen="absshift")
@example(a=0.25, gen="absshift")
@example(a=0.5, gen="step")
@example(a=-0.7, gen="constrained")
def test_big256_step_and_absshift_within_one_ulp_of_big512(a, gen):
    # each c_k is one exact integer combination of fixed-point values with
    # 64 guard bits, rounded to the context once
    f = {"step": step_derivative_coeffs, "absshift": abs_shift_coeffs,
         "constrained": constrained_pversion_coeffs}[gen]
    got, ref = f(a, 2200, bigfloat(256)), f(a, 2200, bigfloat(512))
    assert max(_ulps_off(p, q, 256) for p, q in zip(got.pairs(), ref.pairs())) <= 1


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(-0.95, 0.95), P=st.one_of(st.integers(1, 60), st.just(2200)))
def test_f64_model_coefficients_have_the_bits_of_the_scalar_loops(a, P):
    ak = step_derivative_coeffs(a, P + 1).coeffs
    free, constrained = abs_shift_coeffs(a, P), constrained_pversion_coeffs(a, P)
    assert free.as_floats().tobytes() == np.array(model_coeffs_loop(ak, P)).tobytes()
    want = np.array(model_coeffs_loop(ak[: P + 1], P, constrained=True))
    assert constrained.as_floats().tobytes() == want.tobytes()
    # the list is made from the held image on first read, with the same floats
    assert free.coeffs == free.as_floats().tolist()


def test_exact_rational_generators():
    # at a = 1/2 these values are dyadic rationals, exact in big-float
    big = bigfloat(256)
    s = step_derivative_coeffs(0.5, 6, big)
    assert s.coeffs[1] == _rounded(Fraction(9, 16), big)
    c = abs_shift_coeffs(0.5, 6, big)
    assert c.coeffs[0] == _rounded(Fraction(-3, 16), big)
    b = constrained_pversion_coeffs(0.5, 4, big)
    # exact endpoint cancellation of the full constrained sum
    with big.active():
        total = sum(bk * (-1) ** k for k, bk in enumerate(b.coeffs))
    assert total == 0


def test_random_polynomial_specs_reproduce_exactly():
    # polynomial targets are reproduced exactly once p reaches the degree
    rng = np.random.default_rng(3)
    for _ in range(5):
        deg = int(rng.integers(1, 7))
        mono = rng.normal(0, 1, deg + 1)
        spec = SingularFunctionSpec(analytic_part=tuple(mono))
        series = spec_coeffs(spec, deg + 2)
        for x in rng.uniform(-1, 1, 4):
            want = float(np.polynomial.polynomial.polyval(x, mono))
            got = float(partial_sum(series, deg, float(x)))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_series_metadata_and_export(tmp_path):
    s = step_derivative_coeffs(0.5, 8)
    assert s.generator is Generator.STEP_DERIVATIVE
    assert "StepDerivative" in s.series_id
    cfg = ExperimentConfig(id="series", kind="coeffs", family="step", params={"a": 0.5}, pmax=8)
    run_experiment(cfg, str(tmp_path))
    path = tmp_path / "series.coeffs.csv"
    text = path.read_text().splitlines()
    assert text[0] == "k,coeff"
    assert len(text) == 10
    assert text[1:] == [f"{k},{c!r}" for k, c in enumerate(s.coeffs)]
    import json

    sidecar = json.loads((tmp_path / "series.coeffs.csv.json").read_text())
    assert sidecar["generator"] == "StepDerivative"
    assert sidecar["precision"] == "f64"


def _nstr_of_pairs(pairs, bits):
    """What the big-float export wrote before: mpmath.nstr of each pair's mpf."""
    dps = int(bits * 0.30103) + 3
    with mpmath.workprec(bits):
        return [mpmath.nstr(mpmath.mpf(p), dps) for p in pairs]


def _text_of_pairs(pairs, bits):
    dps = int(bits * 0.30103) + 3
    return [pair_nstr(n, e, dps, {}) for n, e in pairs]


@pytest.mark.parametrize("bits", [64, 256])
def test_big_float_export_text_is_the_nstr_of_each_coefficient(bits):
    # the coeffs kind renders each held pair, also those of mpf values
    values = [mpmath.mpf(0), -mpmath.mpf(2) ** -3600, mpmath.mpf(1) / 3]
    for series in (abs_shift_coeffs(-0.25, 300, bigfloat(bits)),
                   LegendreSeries.from_pairs(map(dyadic, values), Generator.CUSTOM_SPEC,
                                             bigfloat(bits), {})):
        assert coefficient_text(series) == _nstr_of_pairs(list(series.pairs()), bits)
        with series.ctx.active():
            assert coefficient_text(series) == [mpmath.nstr(c, int(bits * 0.30103) + 3)
                                                for c in series.coeffs]


def test_a_big_float_series_of_mpf_values_holds_their_exact_pairs():
    # the values are read exactly as pairs, and every view reads the pairs
    ctx = bigfloat(128)
    with ctx.active():
        values = [mpmath.mpf(1) / 3, mpmath.mpf(0), -mpmath.mpf(2) ** -1100, mpmath.sqrt(2)]
    series = LegendreSeries.from_pairs(map(dyadic, values), Generator.CUSTOM_SPEC, ctx, {})
    assert series._coeffs is None and series.degree == 3
    assert series.pairs() == [dyadic(v) for v in values]
    assert [c._mpf_ for c in series.coeffs] == [v._mpf_ for v in values]
    assert series.as_floats().tolist() == [float(v) for v in values]
    assert series.prefix(1).pairs() == [dyadic(v) for v in values[:2]]
    assert series.prefix(2).as_floats().tolist() == [float(v) for v in values[:3]]


@st.composite
def _pairs_at_bits(draw):
    """(bits, pairs): bits in 53..1024 and pairs (n, e) of at most that many
    significant bits, both signs, with decimal exponents on both sides of
    nstr's fixed/e-notation switch, near 0, past |e + bitcount| = 3500, and
    mantissas of nines that may carry, plus zero."""
    bits = draw(st.integers(53, 1024))
    dps = int(bits * 0.30103) + 3
    switch = draw(st.sampled_from([min(-(dps // 3), -5), 0, dps]))
    pairs = [(0, draw(st.integers(-5000, 5000)))]
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.one_of(st.integers(1, 2 ** bits - 1),
                           st.integers(1, 330).map(lambda k: 10 ** k - 1)))
        top = draw(st.one_of(
            st.integers(-3, 3).map(lambda d: math.floor((switch + d) * math.log2(10))),
            st.integers(-4000, 4000),
            st.sampled_from([-3502, -3501, -3500, -3499, 3499, 3500, 3501, 3502])))
        n, e = round_bits(m, top - m.bit_length(), bits)
        pairs.append((-n if draw(st.booleans()) else n, e))
    return bits, pairs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_pairs_at_bits())
@example(case=(53, [(2 ** 53 - 1, -53), (-(2 ** 53 - 1), 3447), (1, 3499), (1, 3500)]))
@example(case=(256, [(10 ** 77 - 1, -300), (-(10 ** 77 - 1), 0), (3, -3600), (0, 0)]))
@example(case=(1024, [(2 ** 1024 - 1, -1024), (-(2 ** 1023), 2476), (12345, -5000)]))
def test_coefficient_text_is_the_nstr_of_each_pair(case):
    bits, pairs = case
    assert _text_of_pairs(pairs, bits) == _nstr_of_pairs(pairs, bits)


def _largest_pair_below_power_of_ten(bits: int, K: int) -> tuple:
    """(M, e): the largest M 2^e < 10^K with M of at most ``bits`` bits."""
    t = Fraction(10) ** K
    e = t.numerator.bit_length() - t.denominator.bit_length() - bits - 1
    while math.ceil(t / Fraction(2) ** e) > 2 ** bits:
        e += 1
    return math.ceil(t / Fraction(2) ** e) - 1, e


# (bits, K) where the largest pair below 10^K has nstr digits 99..9 that
# round up to 10^K: in fixed notation (-6 and -4) and in e-notation (153)
@pytest.mark.parametrize("bits,K", [(149, -6), (491, -4), (53, 153), (176, -13)])
def test_coefficient_text_carries_a_run_of_nines(bits, K):
    M, e = _largest_pair_below_power_of_ten(bits, K)
    assert M.bit_length() <= bits and Fraction(M) * Fraction(2) ** e < Fraction(10) ** K
    pairs = [(M, e), (-M, e)]
    text = _text_of_pairs(pairs, bits)
    assert text == _nstr_of_pairs(pairs, bits)
    assert Fraction(text[0]) == Fraction(10) ** K and Fraction(text[1]) == -Fraction(10) ** K


def _per_pair_floats(pairs, bits):
    """The float64 image one pair at a time: pair_float of each pair rounded to bits."""
    return np.array([pair_float(*round_bits(n, e, bits)) if bits else pair_float(n, e)
                     for n, e in pairs])


def _midpoint_case(top: int, bits: int, side: str, rest: int, low: int) -> int:
    """A positive n whose rounding to ``bits`` bits lands on a 53-bit midpoint:
    the 53 leading bits ``top``, then the bits - 53 bits 100...0 with
    nonzero lower bits that round down (side "100"), or 011...1 with lower
    bits of at least half an ulp that round up (side "011"), then ``rest``
    lower bits, read from ``low``."""
    w = bits - 53
    field = 1 << (w - 1) if side == "100" else (1 << (w - 1)) - 1
    half = 1 << (rest - 1)
    tail = 1 + low % (half - 1) if side == "100" else half + low % half
    return (((top << w) | field) << rest) | tail


@st.composite
def _float_image_cases(draw):
    bits = draw(st.one_of(st.none(), st.integers(55, 1024)))
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "random", "tie", "zero"]))
        length = draw(st.integers(1, 1100))
        n = draw(st.integers(1 << (length - 1), (1 << length) - 1))
        if kind == "tie" and bits is not None:
            n = _midpoint_case(draw(st.integers(1 << 52, (1 << 53) - 1)), bits,
                               draw(st.sampled_from(["100", "011"])), draw(st.integers(2, 80)),
                               draw(st.integers(0, 2 ** 80)))
        # the value lies in [2^(top-1), 2^top): near 1, the least normal
        # float or the largest float
        top = draw(st.sampled_from([1, -1021, 1024])) + draw(st.integers(-3, 3))
        e = top - n.bit_length()
        if kind == "zero":
            n, e = 0, draw(st.integers(-2200, 40))
        pairs.append((-n if draw(st.booleans()) else n, e))
    return bits, pairs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_float_image_cases())
@example(case=(256, [(2 ** 1100 - 1, -1100), (-(2 ** 1023 + 1), -1), (5, -1076), (0, 0)]))
@example(case=(None, [(2 ** 54 - 1, 970), (3, -1075), (1, -1074)]))
def test_bulk_float_image_equals_the_per_pair_rounding(case):
    # mixed exponents, both signs, zeros, tie candidates and values whose
    # result would be subnormal or overflow; OverflowError as per pair
    bits, pairs = case
    try:
        want = _per_pair_floats(pairs, bits)
    except OverflowError:
        with pytest.raises(OverflowError):
            pair_floats(pairs, bits)
        return
    assert pair_floats(pairs, bits).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [55, 56, 61, 62, 63, 64, 128, 256, 1024])
def test_bulk_float_image_rounds_midpoints_once_to_bits_first(bits):
    # n rounds to a 53-bit midpoint at ``bits`` and then to even, while
    # float(n) rounds n itself the other way: the leading 53 bits are even
    # where n lies above the midpoint and odd where it lies below
    pairs = []
    for top in (-300, 1, 40):  # the value lies in [2^(top-1), 2^top)
        for rest, low in ((2, 0), (7, 5), (64, 2 ** 63 + 12345), (300, 3 ** 150)):
            for n in (_midpoint_case((1 << 52) | 2, bits, "100", rest, low),
                      -_midpoint_case((1 << 52) | 3, bits, "011", rest, low)):
                pairs.append((n, top - n.bit_length()))
    direct = _per_pair_floats(pairs, None)
    want = _per_pair_floats(pairs, bits)
    assert (direct != want).all()
    assert pair_floats(pairs, bits).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [53, 54])
def test_bulk_float_image_of_a_narrow_context_takes_the_exact_path(bits):
    # a one-bit field (54) rounds twice whenever its bit is set; at 53 the
    # field is empty
    top = (1 << 52) | 2
    pairs = [(((top << 1 | 1) << 5) | 3, -60), (-(((top << 1 | 1) << 9) | 1), 0), (top, 0)]
    assert pair_floats(pairs, bits).tobytes() == _per_pair_floats(pairs, bits).tobytes()


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("beta", [-5 / 6, 0.3])
def test_held_ratio_run_floats_equal_the_per_pair_rounding(beta, bits):
    # the |x|^beta ratio run: zeros and one exponent per coefficient
    series = power_abs_coeffs(beta, 2201, bigfloat(bits))
    raw = list(series._pairs)
    assert series.as_floats().tobytes() == _per_pair_floats(raw, bits).tobytes()
    assert list(series.pairs()) == [round_bits(n, e, bits) for n, e in raw]


# the default conjecture grid's nonzero betas; |x|^beta generates in big:256
# for beta <= -1/2 and in float64 above, and both grow from the held series
GRID_BETAS = [-5 / 6, -2 / 3, -0.5, -1 / 16, 0.5, 1.0]


def _series_outcome(make):
    try:
        series = make()
    except PrecisionError as exc:
        return None, str(exc)
    # the float64 image first, from exact pairs, then the rounded pairs
    return (series.as_floats().tobytes(), list(series.pairs()), series.series_id), None


@pytest.mark.parametrize("a", [0.5, 0.0])
@pytest.mark.parametrize("beta", GRID_BETAS)
def test_grown_series_equals_a_fresh_one(monkeypatch, a, beta):
    family = PowerAbsFamily(beta=beta, a=a)
    calls = []
    for name in ("_mu_fixed", "_ratio_run"):
        real = getattr(coefficients, name)
        monkeypatch.setattr(coefficients, name,
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    held = family.series(2201)
    for P in (4401, 8801):
        calls.clear()
        grown = _series_outcome(lambda: family.series(P))
        # the integer recurrence continues where it stopped
        d = held.degree
        assert calls and all(args[2] == d if a else len(args[2]) == (P - d) // 2
                             for args in calls)
        assert grown == _series_outcome(lambda: PowerAbsFamily(beta=beta, a=a).series(P))
        held = family.series(P) if grown[0] is not None else held
