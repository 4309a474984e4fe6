import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab.bounds import (BVFunction, Jump, abs_kink_bv, calibrate_theorem2,
                           endpoint_identity_bound, step_bv, theorem1_bound,
                           theorem1_bound_series, theorem2_bound, theorem3_bound,
                           total_variation, variation_window, window_variations)
from leglab.runner import ExperimentConfig, run_experiment

from oracles import total_variation_loop

A = 0.5
STEP = step_bv(A, (A - 1) / 2, (1 + A) / 2)


def test_total_variation_step():
    assert total_variation(STEP, -1.0, 1.0) == pytest.approx(1.0)
    assert total_variation(STEP, -1.0, 0.0) == 0.0
    assert total_variation(STEP, 0.6, 1.0) == 0.0
    # window edge at the jump sees the half-jump (mean-value convention)
    assert total_variation(STEP, A, 1.0) == pytest.approx(0.5)


def test_total_variation_kink():
    kink = abs_kink_bv(A, -1.0, 1.0)
    assert total_variation(kink, -1.0, 1.0) == pytest.approx(2.0)
    assert total_variation(kink, -1.0, A) == pytest.approx(1.5)


def test_variation_window_shape():
    lo, hi = variation_window(0.1, 1)
    assert (lo, hi) == (-1.0, 1.0)
    lo, hi = variation_window(0.1, 2)
    assert lo == pytest.approx(-0.45) and hi == pytest.approx(0.55)


def test_theorem1_interior_constant():
    # windows contain the jump for k <= (1-x)/(a-x) = 2.25: the literal
    # evaluation gives 2 * 28 * (1-x^2)^(-3/2) at x = 0.1 for large p
    p = 2000
    val = theorem1_bound(STEP, 0.1, p)
    assert val * p == pytest.approx(2 * 28.0 * (1 - 0.01) ** -1.5, rel=1e-12)


def test_theorem1_at_jump_point_does_not_decay():
    v10 = theorem1_bound(STEP, A, 10)
    v1000 = theorem1_bound(STEP, A, 1000)
    const = 28.0 * (1 - A * A) ** -1.5
    assert v10 == pytest.approx(const + 1 / (math.pi * 10 * (1 - A * A)), rel=1e-12)
    assert v1000 == pytest.approx(const, rel=1e-3)


def test_theorem1_domain():
    with pytest.raises(ValueError):
        theorem1_bound(STEP, 1.0, 10)
    with pytest.raises(ValueError):
        theorem1_bound(STEP, 0.1, 1)


def test_theorem1_series_matches_scalar():
    rep = theorem1_bound_series(STEP, 0.1, 50)
    for i, p in enumerate(rep.pvalues):
        assert rep.bound[i] == pytest.approx(theorem1_bound(STEP, 0.1, int(p)), rel=1e-13)


def _bv(kind, a):
    return step_bv(a, (a - 1) / 2, (a + 1) / 2) if kind == "step" else abs_kink_bv(a, -1.0, 1.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["step", "kink"]), a=st.floats(-0.95, 0.95),
       ends=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1,
                     max_size=20),
       on_edge=st.booleans())
@example(kind="step", a=0.5, ends=[(0.5, 1.0), (-1.0, 0.5), (0.5, 0.5)], on_edge=False)
def test_window_variations_have_the_bits_of_the_scalar_loop(kind, a, ends, on_edge):
    f = _bv(kind, a)
    lo, hi = np.array([min(e) for e in ends]), np.array([max(e) for e in ends])
    if on_edge:
        lo[0] = a  # a window edge on the jump or the kink
    hi = np.maximum(lo, hi)
    got = window_variations(f, lo, hi)
    want = [total_variation_loop(f, float(l), float(h)) for l, h in zip(lo, hi)]
    assert got.tolist() == want
    assert [total_variation(f, float(l), float(h)) for l, h in zip(lo, hi)] == want


@pytest.mark.parametrize("kind", ["step", "kink"])
@pytest.mark.parametrize("x", [-0.9, -0.5, 0.1, A, 0.75, 0.999])
def test_theorem1_series_has_the_bits_of_the_window_loop(kind, x):
    # the k loop of scalar windows, clipped to [-1, 1], that the array pass replaced
    f = _bv(kind, A)
    pmax = 2200
    vars_k = [total_variation_loop(f, max(lo, -1.0), min(hi, 1.0))
              for lo, hi in (variation_window(x, k) for k in range(1, pmax + 1))]
    pv = np.arange(2, pmax + 1)
    want = (28.0 / pv * (1.0 - x * x) ** -1.5 * np.cumsum(vars_k)[1:]
            + abs(f.jump_at(x)) / (math.pi * pv * (1.0 - x * x)))
    assert theorem1_bound_series(f, x, pmax).bound.tolist() == want.tolist()


def test_theorem1_soundness(step_sweeps):
    for x in (-0.9, -0.5, 0.1, A):
        rep = theorem1_bound_series(STEP, x, 2200)
        sweep = step_sweeps.get(x)
        if sweep is None:
            continue
        rep.measured = sweep.abs_error[1:]
        assert np.all(rep.measured <= rep.bound)


def test_theorem2_shapes():
    C = 2.0
    # x = 1: the envelope reduces to C p^(-1/2)
    assert theorem2_bound(1.0, 400, C) == pytest.approx(C * 400 ** -0.5, rel=1e-14)
    v = theorem2_bound(0.5, 100, C)
    assert v == pytest.approx(C / (100 * math.sqrt(math.sqrt(0.75) + 0.01)), rel=1e-14)
    assert theorem2_bound(0.9, 200, C) > theorem2_bound(0.9, 400, C)
    with pytest.raises(ValueError):
        theorem2_bound(0.3, 100, C)  # |x| <= 2 delta


def test_theorem2_calibration_touches():
    C = calibrate_theorem2(0.05, 1.0, 100)
    assert theorem2_bound(1.0, 100, C) == pytest.approx(0.05, rel=1e-14)


def test_endpoint_identity_bound_constant():
    level, closed = endpoint_identity_bound(A, 100)
    assert closed * math.sqrt(100) == pytest.approx(0.85738, abs=1e-3)
    assert level <= closed
    # p -> 4p halves the closed bound
    _, closed4 = endpoint_identity_bound(A, 400)
    assert closed4 == pytest.approx(closed / 2, rel=1e-12)


def test_theorem3_rates():
    assert theorem3_bound(1.0) == pytest.approx(0.5)
    assert theorem3_bound(1.5) == pytest.approx(1.0)
    assert theorem3_bound(0.6) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        theorem3_bound(0.5)
    assert theorem3_bound(1.0, p=100) == pytest.approx(0.1)


def test_bv_validation():
    with pytest.raises(ValueError):
        BVFunction(jumps=[Jump(1.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        total_variation(STEP, -2.0, 0.0)


def test_bound_report_csv(tmp_path, step_sweeps):
    cfg = ExperimentConfig(id="b", kind="bounds", family="step", params={"a": A}, x=[0.1],
                           pmax=100)
    run_experiment(cfg, str(tmp_path))
    path = tmp_path / "b.x+0.1.bounds.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "p,bound,measured,ratio"
    assert len(lines) == 100
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    rep = theorem1_bound_series(STEP, 0.1, 100)
    assert np.array_equal(data[:, 0], rep.pvalues)
    assert np.array_equal(data[:, 1], rep.bound)
    assert np.array_equal(data[:, 2], step_sweeps[0.1].abs_error[1:100])
    assert np.array_equal(data[:, 3], data[:, 2] / data[:, 1])
