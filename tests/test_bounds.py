import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab.bounds import theorem1_bound_series, variation_window
from leglab.runner import BOUNDS_DTYPE, ExperimentConfig, run_experiment

from oracles import (BVFunction, Jump, abs_kink_bv, calibrate_theorem2, endpoint_identity_bound,
                     step_bv, theorem1_bound, theorem1_bound_loop, theorem1_bv_series,
                     theorem2_bound, theorem3_bound, total_variation, total_variation_loop,
                     window_variations)

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
    rep = theorem1_bound_series(A, 0.1, 50)
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
    # the k loop of scalar windows, clipped to [-1, 1], that the array pass
    # replaced; the unit jump's closed form has the bits of both
    f = _bv(kind, A)
    want = theorem1_bound_loop(f, x, 2200).tolist()
    assert theorem1_bv_series(f, x, 2200).tolist() == want
    if kind == "step":
        assert theorem1_bound_series(A, x, 2200).bound.tolist() == want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=st.floats(-0.99, 0.99), x=st.floats(-0.99, 0.99), pmax=st.integers(50, 400),
       at=st.sampled_from(["x", "lo", "hi", None]), k=st.integers(2, 50))
@example(a=-0.25, x=0.5, pmax=400, at=None, k=2)  # window k = 2 of x = 0.5 is [-0.25, 0.75]
@example(a=-0.3, x=-0.3, pmax=400, at=None, k=2)  # the jump at the point x
def test_theorem1_closed_form_has_the_bits_of_the_bv_loop(a, x, pmax, at, k):
    # the jump at x itself, or on an edge of window k
    if at == "x":
        a = x
    elif at is not None:
        a = variation_window(x, k)[0 if at == "lo" else 1]
        if not -1.0 < a < 1.0:
            a = x
    f = step_bv(a, (a - 1) / 2, (a + 1) / 2)
    want = theorem1_bound_loop(f, x, pmax).tolist()
    assert theorem1_bound_series(a, x, pmax).bound.tolist() == want


def test_theorem1_soundness(step_sweeps):
    for x in (-0.9, -0.5, 0.1, A):
        rep = theorem1_bound_series(A, x, 2200)
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


def test_bound_report_npy(tmp_path, step_sweeps):
    cfg = ExperimentConfig(id="b", kind="bounds", family="step", params={"a": A}, x=[0.1],
                           pmax=100)
    run_experiment(cfg, str(tmp_path))
    path = tmp_path / "b.x+0.1.bounds.npy"
    data = np.load(path, allow_pickle=False)
    assert data.dtype == BOUNDS_DTYPE and data.dtype.names == ("p", "bound", "measured", "ratio")
    assert len(data) == 99
    rep = theorem1_bound_series(A, 0.1, 100)
    assert np.array_equal(data["p"], rep.pvalues)
    assert np.array_equal(data["bound"], rep.bound)
    assert np.array_equal(data["measured"], step_sweeps[0.1].abs_error[1:100])
    assert np.array_equal(data["ratio"], data["measured"] / data["bound"])
    # the bytes np.save writes for the same array
    buf = io.BytesIO()
    np.save(buf, data)
    assert path.read_bytes() == buf.getvalue()
