import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab import legendre
from leglab.legendre import (bernstein_bound, gauss_rule, legendre_eval,
                             legendre_eval_range, legendre_range_array)
from leglab.precision import EXACT_RATIONAL, FLOAT64, PrecisionError, bigfloat


def test_low_degree_values():
    assert legendre_eval(0, 0.3) == 1.0
    for k in (1, 5, 12):
        assert legendre_eval(k, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-16)


def test_range_values():
    assert legendre_eval_range(2, 0.5) == pytest.approx([1.0, 0.5, -0.125])
    assert legendre_eval_range(1, -1.0) == [1.0, -1.0]
    assert legendre_eval_range(3, 0.0) == [1.0, 0.0, -0.5, 0.0]


def test_range_consistent_with_scalar():
    vals = legendre_eval_range(40, 0.37)
    for k in (0, 7, 40):
        assert vals[k] == legendre_eval(k, 0.37)


def test_domain_errors():
    with pytest.raises(ValueError):
        legendre_eval(3, 1.5)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)
    with pytest.raises(ValueError):
        legendre_eval_range(-2, 0.0)


def test_exact_endpoints():
    for k in range(0, 25):
        assert legendre_eval(k, Fraction(1), EXACT_RATIONAL) == 1
        assert legendre_eval(k, Fraction(-1), EXACT_RATIONAL) == (-1) ** k


def test_exact_rational_interior():
    # the recurrence stays in exact rationals
    v = legendre_eval(4, Fraction(1, 2), EXACT_RATIONAL)
    assert v == Fraction(-37, 128)


def test_vectorized_matches_scalar():
    xs = np.array([-0.9, 0.0, 0.63])
    table = legendre_range_array(6, xs)
    for j, x in enumerate(xs):
        for k in (0, 3, 6):
            assert table[k, j] == pytest.approx(legendre_eval(k, float(x)), rel=1e-14)


def test_bernstein_values():
    assert bernstein_bound(1, 0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
    # P_4(0) = 3/8
    assert abs(legendre_eval(4, 0.0)) == pytest.approx(0.375)
    assert abs(legendre_eval(4, 0.0)) <= bernstein_bound(4, 0.0)
    with pytest.raises(ValueError):
        bernstein_bound(5, 1.0)
    with pytest.raises(ValueError):
        bernstein_bound(0, 0.5)


def test_bernstein_envelope_at_half():
    table = legendre_range_array(2200, np.array([0.5]))[:, 0]
    k = np.arange(1, 2201)
    bound = bernstein_bound(1, 0.5) / np.sqrt(k)
    assert np.all(np.abs(table[1:]) <= bound * (1 + 1e-12))


def test_gauss_low_orders():
    r1 = gauss_rule(1)
    assert r1.nodes == [0.0] and r1.weights == [2.0]
    r2 = gauss_rule(2)
    assert r2.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert r2.weights == pytest.approx([1.0, 1.0])
    assert r2.integrate(lambda t: t * t) == pytest.approx(2 / 3, rel=1e-14)


def test_gauss_invariants():
    for order in (3, 10, 35):
        r = gauss_rule(order)
        assert math.fsum(r.weights) == pytest.approx(2.0, abs=1e-14)
        assert all(-1 < t < 1 for t in r.nodes)
        assert all(w > 0 for w in r.weights)
        # exactness at degree 2*order - 1 (odd power integrates to zero)
        d = 2 * order - 1
        val = r.integrate(lambda t: t ** d + t ** (d - 1))
        assert val == pytest.approx(2.0 / d, rel=1e-12, abs=1e-13)


def test_gauss_exactness_explicit():
    r = gauss_rule(4)
    # int x^6 = 2/7, degree 6 <= 2*4-1
    assert r.integrate(lambda t: t ** 6) == pytest.approx(2 / 7, rel=1e-13)


def test_gauss_symmetry_bitwise():
    r = gauss_rule(8)
    nodes = np.array(r.nodes)
    assert np.all(nodes == -nodes[::-1])


def test_gauss_rejects_exact_mode():
    with pytest.raises(PrecisionError):
        gauss_rule(3, EXACT_RATIONAL)
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_orthogonality_f64():
    order = 61
    r = gauss_rule(order)
    nodes = np.array(r.nodes)
    weights = np.array(r.weights)
    table = legendre_range_array(60, nodes)
    gram = (table * weights) @ table.T
    diag = 2.0 / (2 * np.arange(61) + 1)
    assert np.max(np.abs(gram - np.diag(diag))) < 10 * np.finfo(float).eps


def test_orthogonality_bigfloat():
    ctx = bigfloat(128)
    r = gauss_rule(21, ctx)
    with ctx.active():
        table = [legendre_eval_range(20, t, ctx) for t in r.nodes]
        for j in (0, 3, 11, 20):
            for k in (0, 7, 20):
                s = sum(w * row[j] * row[k] for w, row in zip(r.weights, table))
                target = ctx.convert(0) if j != k else ctx.convert(2) / (2 * k + 1)
                assert abs(float(s - target)) < 1e-30


def test_f64_vs_bigfloat_agreement():
    big = bigfloat(256)
    for k in (5, 50, 500, 2200):
        for x in (-0.999, -0.5, 0.0, 0.3, 0.99, 1.0):
            v64 = legendre_eval(k, x)
            vbig = float(legendre_eval(k, x, big))
            scale = max(abs(vbig), bernstein_bound(k, x) if abs(x) < 1 else 1.0)
            assert abs(v64 - vbig) <= 1e-12 * scale


def _int_step_range(kmax, x):
    """[P_0(x), ..., P_kmax(x)] by the float64 step with int coefficients,
    ((2n+1) x P_n - n P_{n-1}) / (n+1), each int converted at its operation."""
    x = float(x)
    pm1, pn = 1.0, x
    out = [pm1, pn][: kmax + 1]
    for n in range(1, kmax):
        pm1, pn = pn, ((2 * n + 1) * x * pn - n * pm1) / (n + 1)
        out.append(pn)
    return out


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kmaxes=st.lists(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 10001)),
                       min_size=1, max_size=4),
       x=st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0)))
@example(kmaxes=[10001, 0, 1, 2], x=0.3)
@example(kmaxes=[0, 1, 2, 10001], x=-0.0)
def test_f64_range_equals_the_int_coefficient_step(kmaxes, x):
    # the float table starts from scratch and grows in the drawn order of kmax;
    # values compare as bytes, so the sign of a zero counts too
    del legendre._FLOATS[2:]
    for kmax in kmaxes:
        got = legendre_eval_range(kmax, x)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(_int_step_range(kmax, x)).tobytes()
