from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leglab.coefficients import constrained_pversion_coeffs
from leglab.functions import (AbsShiftFamily, ConstrainedFamily, PowerAbsFamily,
                              PowerShiftFamily, SingularFunctionSpec, SpecFamily,
                              StepDerivativeFamily, exact_solution_derivative,
                              family_from_config)
from leglab.precision import FLOAT64, bigfloat

FAMILIES = {
    "step": lambda: StepDerivativeFamily(a=0.5),
    "absshift": lambda: AbsShiftFamily(a=-0.25),
    "powerabs_a0": lambda: PowerAbsFamily(beta=0.5),
    "powerabs_a": lambda: PowerAbsFamily(beta=-0.25, a=0.3),
    "powershift": lambda: PowerShiftFamily(beta=0.5),
    "spec": lambda: SpecFamily(SingularFunctionSpec(terms=((1.0, 0.2, 0.5), (-2.0, -0.4, 1.5)),
                                                    analytic_part=(1.0, 2.0))),
}


@pytest.mark.parametrize("ctx", [FLOAT64, bigfloat(128)], ids=["f64", "big128"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_prefix_slice_equals_fresh_generation(name, ctx):
    family = FAMILIES[name]()
    longest = family.series(60, ctx)
    assert family.series(60, ctx) is longest  # exact hit: the memoized series itself
    for P in (1, 25, 59):
        short, fresh = family.series(P, ctx), FAMILIES[name]().series(P, ctx)
        assert short.coeffs == fresh.coeffs
        assert list(short.pairs()) == list(fresh.pairs())
        assert short.series_id == fresh.series_id
    # a higher P regenerates
    assert family.series(80, ctx).coeffs == FAMILIES[name]().series(80, ctx).coeffs


@pytest.mark.parametrize("held_first", [True, False])
def test_prefix_slice_shares_the_held_f64_image(held_first):
    family = PowerAbsFamily(beta=-0.5, a=0.5)  # big:256 coefficients
    held = family.series(200)
    if held_first:
        image = held.as_floats()
        short = family.series(120).as_floats()
    else:
        short = family.series(120).as_floats()
        image = held.as_floats()
    assert short.tolist() == [float(c) for c in held.coeffs[:121]]
    # the held image is made once and read-only, and the prefix views it:
    # the slice converted nothing
    assert held.as_floats() is image and not image.flags.writeable
    assert np.shares_memory(short, image)
    assert np.shares_memory(family.series(120).as_floats(), image)


def test_constrained_family_served_on_exact_p_only():
    family = ConstrainedFamily(a=0.5)
    top = family.series(60)
    low = family.series(25)
    ref = constrained_pversion_coeffs(0.5, 25)
    assert low.coeffs == ref.coeffs and low.series_id == ref.series_id
    # the top two coefficients of order 25 are not a prefix of order 60
    assert low.coeffs != top.coeffs[:len(low.coeffs)]
    assert family.series(60).coeffs == top.coeffs


def test_power_abs_family_center():
    at0 = PowerAbsFamily(beta=0.5)
    assert at0.describe() == "|x|^0.5" and at0.singular_point() == 0.0
    shifted = family_from_config("powerabs", {"beta": 0.5, "a": 0.3})
    assert shifted.a == 0.3 and shifted.singular_point() == 0.3
    assert shifted.describe() == "|x-(0.3)|^0.5"
    assert shifted.exact(0.3) == 0.0
    assert shifted.exact(-0.7) == pytest.approx(1.0, rel=1e-15)
    assert PowerAbsFamily(beta=-0.5, a=0.3).exact(0.3) is None
    assert family_from_config("powerabs", {"beta": 0.5}).a == 0.0


def test_power_shift_family_is_the_a_minus_one_power_abs_member():
    family = PowerShiftFamily(beta=1.5)
    assert isinstance(family, PowerAbsFamily) and family.a == -1.0
    assert family.describe() == "|x+1|^1.5" and family.singular_point() is None
    assert family.exact(-1.0) == 0.0 and PowerShiftFamily(beta=-0.5).exact(-1.0) is None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(x=st.floats(-1.0, 1.0), beta=st.floats(-0.99, 5.0))
def test_power_shift_value_is_the_ieee_power_of_one_plus_x(x, beta):
    # |x - (-1)| is the same IEEE sum as 1 + x, which is >= 0 on [-1, 1]
    if x > -1.0:
        assert PowerShiftFamily(beta=beta).exact(x) == (1.0 + x) ** beta


@settings(derandomize=True, max_examples=60, deadline=None)
@given(a=st.floats(-0.999, 0.999))
def test_step_value_at_the_jump_is_the_exact_mean_of_the_limits(a):
    # the limits are (a - 1)/2 and (a + 1)/2, so their mean is a/2 exactly
    assert Fraction(exact_solution_derivative(a, a)) == Fraction(a) / 2
