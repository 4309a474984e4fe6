import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab.precision import (FLOAT64, PrecisionContext, bigfloat, dyadic, pair_float,
                              parse_precision, round_bits, to_fixed)

from oracles import neumaier_sum


def test_modes_and_validation():
    assert FLOAT64.mode == "f64" and FLOAT64.eps == 2.0 ** -52
    assert bigfloat(256).bits == 256
    with pytest.raises(ValueError):
        PrecisionContext("big", 32)
    with pytest.raises(ValueError):
        PrecisionContext("f64", 128)
    with pytest.raises(ValueError):
        PrecisionContext("weird")


def test_parse_precision():
    assert parse_precision("f64") is FLOAT64
    assert parse_precision("big:512").bits == 512
    assert parse_precision("big").bits == 256
    with pytest.raises(ValueError):
        parse_precision("quad")


def test_exact_rationals_are_not_a_mode():
    # two modes, f64 and big:<bits>; an exact value is checked in big-float
    with pytest.raises(ValueError, match="cannot parse precision spec 'exact'"):
        parse_precision("exact")
    with pytest.raises(ValueError, match="unknown precision mode 'exact'"):
        PrecisionContext("exact")


def test_convert_roundtrip():
    big = bigfloat(128)
    assert float(big.convert(0.25)) == 0.25
    assert type(FLOAT64.convert(3)) is float and FLOAT64.convert(3) == 3.0


def test_neumaier_sum_matches_fsum():
    vals = [1e16, 1.0, -1e16, 3.0, 0.1, -0.1] * 50
    assert neumaier_sum(vals) == math.fsum(vals)


def test_context_is_immutable():
    with pytest.raises(AttributeError):
        FLOAT64.bits = 128


@settings(derandomize=True, max_examples=200, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False), S=st.integers(-64, 1200))
@example(v=5e-324, S=1074)
@example(v=-5e-324, S=1073)
@example(v=-2.2250738585072014e-308 / 3, S=1100)
@example(v=0.75, S=1)
@example(v=-0.25, S=1)
def test_float_dyadic_and_fixed_point(v, S):
    # subnormals included; to_fixed is round(v 2^S) with ties to even
    n, e = dyadic(v)
    assert e <= 0 and Fraction(n, 2 ** -e) == Fraction(v)
    assert to_fixed(v, S) == round(Fraction(v) * Fraction(2) ** S)
    if S >= -e:
        assert to_fixed(v, S) / 2 ** S == v


@settings(derandomize=True, max_examples=100, deadline=None)
@given(man=st.integers(1, 2 ** 300), exp=st.integers(-600, 100), negative=st.booleans(),
       bits=st.sampled_from([64, 128, 256]))
@example(man=3, exp=0, negative=True, bits=64)
def test_mpf_dyadic_and_fixed_point(man, exp, negative, bits):
    # the sign comes from _mpf_: mpf.man drops it in mpmath 1.3.0
    with mpmath.workprec(bits):
        v = mpmath.mpf((-man if negative else man, exp)) / 7
        n, e = dyadic(v)
        assert (n < 0) == negative and e <= 0
        assert mpmath.mpf((n, e)) == v
        S = -e + 5
        assert to_fixed(v, S) == n << 5
        assert mpmath.mpf((to_fixed(v, S), -S)) == v
        assert to_fixed(v, -e - 3) == round(Fraction(n, 8))


def test_dyadic_rejects_non_finite_mpf():
    for v in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError):
            dyadic(v)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(r=st.integers(0, 2 ** 300), low=st.integers(0, 2 ** 80), extra=st.integers(0, 80),
       tie=st.booleans(), negative=st.booleans(), e=st.integers(-1400, 40),
       bits=st.sampled_from([53, 64, 128, 256]))
@example(r=0, low=0, extra=1, tie=True, negative=False, e=-1100, bits=53)  # a float subnormal
@example(r=0, low=0, extra=1, tie=True, negative=True, e=0, bits=64)  # a tie rounded down
@example(r=1, low=0, extra=1, tie=True, negative=False, e=0, bits=64)  # a tie rounded up
def test_round_bits_and_pair_float_round_as_mpmath(r, low, extra, tie, negative, e, bits):
    # n has bits + extra bits: a leading block of exactly ``bits`` bits, then
    # either a half-ulp tie or random low bits
    m = (1 << (bits - 1)) | (r & ((1 << (bits - 1)) - 1))
    n = (m << extra) | ((1 << (extra - 1)) if tie and extra else low & ((1 << extra) - 1))
    n = -n if negative else n
    with mpmath.workprec(bits):
        want = mpmath.mpf((n, e))
    got = round_bits(n, e, bits)
    with mpmath.workprec(2000):
        assert abs(got[0]).bit_length() <= bits + 1 and mpmath.mpf(got) == want
        assert pair_float(n, e) == float(mpmath.mpf((n, e)))
