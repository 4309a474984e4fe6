import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leglab
from leglab.coefficients import constrained_pversion_coeffs, step_derivative_coeffs
from leglab.functions import exact_solution
from leglab.legendre import legendre_eval_range
from leglab.pfem import FemSolution, Mesh1D, assemble_and_solve, element_error_series, internal_modes
from leglab.precision import FLOAT64, bigfloat
from leglab.runner import ExperimentConfig, run_experiment
from leglab.series_eval import error_sweep

from oracles import (element_error_loop, energy_norm_error, fem_derivative, gauss_rule,
                     mode_derivatives, partial_sum)

A = 0.5


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D([0.0, 1.0], [1])
    with pytest.raises(ValueError):
        Mesh1D([-1.0, 0.5, 0.2, 1.0], [1, 1, 1])
    with pytest.raises(ValueError):
        Mesh1D([-1.0, 1.0], [])
    m = Mesh1D.uniform(4, 3)
    assert m.nodes == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert m.element_of(-0.75) == 0
    assert m.element_of(1.0) == 3


def test_internal_modes_vanish_at_endpoints():
    for k in (2, 3, 7):
        assert abs(float(internal_modes(k, 1.0)[-1])) < 1e-14
        assert abs(float(internal_modes(k, -1.0)[-1])) < 1e-14
    # the modes start at k = 2
    assert internal_modes(1, 0.0) == []


def test_load_at_node_gives_exact_solution():
    sol = assemble_and_solve(Mesh1D.uniform(4, 3), -0.5)
    for x in (-0.75, -0.5, -0.1, 0.2, 0.9, 1.0):
        assert abs(sol.error(x)) < 1e-14
    # boundary conditions exact
    assert float(sol.evaluate(-1.0)) == 0.0
    assert float(sol.evaluate(1.0)) == 0.0


def test_single_element_matches_constrained_series():
    sol = assemble_and_solve(Mesh1D.uniform(1, 101), A)
    b = constrained_pversion_coeffs(A, 100)
    for x in (-0.9, -0.4, 0.0, 0.3, 0.7, 0.95):
        v_fem = float(sol.evaluate(x))
        v_series = float(partial_sum(b, 100, x))
        assert abs(v_fem - v_series) <= 1e-10 * max(abs(v_series), 1e-3)


def test_internal_coefficient_closed_form():
    # coefficient of mode k+1 equals a_k sqrt(2/(2k+1)) on the full interval
    sol = assemble_and_solve(Mesh1D.uniform(1, 20), A)
    ak = step_derivative_coeffs(A, 20).coeffs
    for j in (1, 4, 9, 19):
        got = float(sol.internal[0][j - 1])
        want = float(ak[j]) * math.sqrt(2.0 / (2 * j + 1))
        assert got == pytest.approx(want, abs=1e-15)


def test_multi_element_exact_off_singular_element():
    mesh = Mesh1D.uniform(4, 8)
    sol = assemble_and_solve(mesh, 0.3)  # inside (0, 0.5)
    for x in (-0.95, -0.7, -0.5, -0.2, 0.0, 0.55, 0.8, 1.0):
        assert abs(sol.error(x)) <= 1e-12
    # nodes of the singular element are interpolated exactly as well
    for x in (0.0, 0.5):
        assert abs(sol.error(x)) <= 1e-13


def test_localization_under_degree_change():
    base = assemble_and_solve(Mesh1D([-1.0, 0.0, 1.0], [2, 2]), 0.4)
    rich = assemble_and_solve(Mesh1D([-1.0, 0.0, 1.0], [2, 30]), 0.4)
    for x in (-0.9, -0.5, -0.1):
        assert float(base.evaluate(x)) == pytest.approx(float(rich.evaluate(x)), abs=1e-14)


def test_galerkin_orthogonality():
    mesh = Mesh1D([-1.0, -0.2, 0.7, 1.0], [3, 6, 2])
    a = 0.25
    sol = assemble_and_solve(mesh, a)
    rule = gauss_rule(24)

    def derr(x):
        e = mesh.element_of(x)
        c = (a - 1.0) / 2.0
        due = c if x < a else 1.0 + c
        return due - fem_derivative(sol, e, x)

    # hat test functions
    for i in (1, 2):
        lo, mid, hi = mesh.nodes[i - 1], mesh.nodes[i], mesh.nodes[i + 1]
        total = 0.0
        for plo, phi, slope in ((lo, mid, 1.0 / (mid - lo)), (mid, hi, -1.0 / (hi - mid))):
            pieces = [(plo, a), (a, phi)] if plo < a < phi else [(plo, phi)]
            for qlo, qhi in pieces:
                if qhi > qlo:
                    total += float(rule.integrate(lambda t: derr(t) * slope, qlo, qhi))
        assert abs(total) < 1e-10
    # internal modes of the singular element
    s = mesh.element_of(a)
    lo, hi = mesh.nodes[s], mesh.nodes[s + 1]
    he = hi - lo
    for k in (2, 4):
        def dv(x, k=k):
            return mode_derivatives(k, (2 * x - (lo + hi)) / he, he)[-1]

        total = 0.0
        for qlo, qhi in ((lo, a), (a, hi)):
            total += float(rule.integrate(lambda t: derr(t) * dv(t), qlo, qhi))
        assert abs(total) < 1e-10


def test_energy_optimality_sampled():
    mesh = Mesh1D.uniform(1, 12)
    sol = assemble_and_solve(mesh, A)
    best = energy_norm_error(sol, order=40)
    rng = np.random.default_rng(11)
    for _ in range(6):
        competitor = FemSolution(mesh, A, list(sol.nodal),
                                 [list(np.array(sol.internal[0]) + rng.normal(0, 0.02, len(sol.internal[0])))])
        assert energy_norm_error(competitor, order=40) >= best - 1e-12


def test_element_error_series_matches_constrained_sweep():
    sol = assemble_and_solve(Mesh1D.uniform(1, 61), A)
    sweep_fem = element_error_series(sol, 0.3, 60)
    b = constrained_pversion_coeffs(A, 61)
    sweep_series = error_sweep(b, lambda x: exact_solution(x, A), 0.3, 60)
    assert sweep_fem.abs_error == pytest.approx(sweep_series.abs_error, abs=1e-14)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(a=st.floats(-0.95, 0.95), x=st.floats(-1.0, 1.0), p=st.integers(1, 150))
def test_single_element_sweep_equals_constrained_sweep_random(a, x, p):
    # element degree p + 1 carries N_2..N_{p+1}: the order-p constrained expansion
    sol = assemble_and_solve(Mesh1D.uniform(1, p + 1), a)
    sweep_fem = element_error_series(sol, x, p)
    b = constrained_pversion_coeffs(a, p + 1)
    sweep_series = error_sweep(b, lambda t: exact_solution(t, a), x, p)
    assert sweep_fem.abs_error == pytest.approx(sweep_series.abs_error, abs=1e-14)


def test_element_error_series_at_mesh_node_is_zero():
    mesh = Mesh1D.uniform(2, 40)
    sol = assemble_and_solve(mesh, 0.3)
    sweep = element_error_series(sol, 0.0, 30)  # node of the mesh, edge of element
    assert np.all(sweep.abs_error < 1e-14)


def test_fem_error_rates_on_singular_element():
    sol = assemble_and_solve(Mesh1D.uniform(1, 1000), A)
    from leglab.ratefit import fit_rate

    sweep = element_error_series(sol, -0.99, 999)
    fit = fit_rate(sweep, (500, 999))
    assert fit.alpha == pytest.approx(2.0, abs=0.1)
    sweep_a = element_error_series(sol, A, 999)
    fit_a = fit_rate(sweep_a, (500, 999))
    assert fit_a.alpha == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("ctx", [FLOAT64, bigfloat(128)], ids=["f64", "big128"])
def test_far_edge_of_the_loaded_element(ctx):
    # lo + hi of the loaded element [-1, -1/3] is not a float64, and
    # (2x - (lo + hi)) / (hi - lo) maps its far node to 1.0000000000000002
    mesh = Mesh1D.uniform(3, 10)
    sol = assemble_and_solve(mesh, -0.5, ctx)
    assert [mesh.to_reference(0, t, ctx) for t in mesh.nodes[:2]] == [-1, 1]
    # the FEM solution interpolates the exact one at the nodes
    assert np.all(element_error_series(sol, mesh.nodes[1], 5).abs_error < 1e-15)
    assert abs(sol.error(mesh.nodes[1])) < 1e-15
    assert sol.error(-1.0) == 0.0
    # a load on a node that maps to xi = -1 only through to_reference: no mode is loaded
    mesh6 = Mesh1D.uniform(6, 10)
    assert all(c == 0 for c in assemble_and_solve(mesh6, mesh6.nodes[1], ctx).internal[1])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(1, 4), degree=st.integers(1, 80), a=st.floats(-0.95, 0.95),
       bits=st.sampled_from([128, 192]))
def test_bigfloat_trace_equals_evaluate(n, degree, a, bits):
    # the loaded element's samples come from the integer kernel, each rounded
    # to float once; they are the floats of the mpf sum in evaluate
    sol = assemble_and_solve(Mesh1D.uniform(n, degree), a, bigfloat(bits))
    xs, us = sol.trace()
    assert us == [float(sol.evaluate(x)) for x in xs]


def test_bigfloat_solve_matches_f64():
    from leglab.precision import bigfloat

    mesh = Mesh1D.uniform(2, 6)
    sol64 = assemble_and_solve(mesh, 0.3)
    solbig = assemble_and_solve(Mesh1D.uniform(2, 6), 0.3, bigfloat(128))
    for x in (-0.6, 0.1, 0.4, 0.9):
        assert float(solbig.evaluate(x)) == pytest.approx(float(sol64.evaluate(x)), abs=1e-14)


def test_invalid_load_point():
    with pytest.raises(ValueError):
        assemble_and_solve(Mesh1D.uniform(2, 2), 1.0)
    sol = assemble_and_solve(Mesh1D.uniform(2, 2), 0.3)
    with pytest.raises(ValueError):
        element_error_series(sol, -0.7, 2)  # outside the singular element


def test_solution_export(tmp_path):
    sol = assemble_and_solve(Mesh1D.uniform(2, 4), 0.3)
    cfg = ExperimentConfig(id="fem", kind="fem", params={"a": 0.3}, options={"n": 2, "degree": 4})
    run_experiment(cfg, str(tmp_path))
    path = tmp_path / "fem.fem.csv"
    assert (tmp_path / "fem.fem.csv.trace.csv").exists()
    lines = path.read_text().splitlines()
    assert lines[0] == "element,k,coeff"
    # element 0 holds its two nodal values; element 1 carries the load and N_2..N_4
    rows = [(0, 0, sol.nodal[0]), (0, 1, sol.nodal[1]), (1, 0, sol.nodal[1]),
            (1, 1, sol.nodal[2])] + [(1, k + 2, c) for k, c in enumerate(sol.internal[1])]
    assert lines[1:] == [f"{e},{k},{c!r}" for e, k, c in rows]
    trace = np.loadtxt(str(path) + ".trace.csv", delimiter=",", skiprows=1)
    assert trace.shape == (41, 2)
    assert trace[-1, 0] == 1.0
    assert [sol.evaluate(x) for x in trace[:, 0]] == trace[:, 1].tolist()


def _norm(k, ctx):
    if ctx.mode == "f64":
        return math.sqrt(2 * (2 * k - 1))
    with ctx.active():
        return mpmath.sqrt(ctx.convert(2 * (2 * k - 1)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(p=st.integers(2, 400), xi=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       big=st.booleans())
def test_internal_modes_equal_a_per_call_sqrt_oracle(p, xi, big):
    # the mode norms sqrt(2(2k-1)) are computed once per context; the modes
    # keep the bits of a square root taken at every term of every call
    ctx = bigfloat(128) if big else FLOAT64
    Pk = legendre_eval_range(p, xi, ctx)
    with ctx.active():
        want = [(Pk[k] - Pk[k - 2]) / _norm(k, ctx) for k in range(2, p + 1)]
    got = internal_modes(p, xi, ctx)
    assert [repr(v) for v in got] == [repr(v) for v in want]


@settings(derandomize=True, max_examples=10, deadline=None)
@given(n=st.integers(1, 4), degree=st.integers(1, 60), a=st.floats(-0.95, 0.95),
       xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5), big=st.booleans())
def test_evaluate_equals_a_per_call_sqrt_oracle(n, degree, a, xs, big):
    ctx = bigfloat(128) if big else FLOAT64
    sol = assemble_and_solve(Mesh1D.uniform(n, degree), a, ctx)
    for x in xs:
        e = sol.mesh.element_of(x)
        lo, hi = sol.mesh.nodes[e], sol.mesh.nodes[e + 1]
        with ctx.active():
            # big-float geometry is exact: lo + hi and hi - lo unrounded
            mid, width = ((mpmath.fadd(lo, hi, exact=True), mpmath.fsub(hi, lo, exact=True))
                          if big else (lo + hi, hi - lo))
            xi = (2 * ctx.convert(x) - mid) / width
            want = (ctx.convert(sol.nodal[e]) * (1 - xi) / 2
                    + ctx.convert(sol.nodal[e + 1]) * (1 + xi) / 2)
            coeffs = sol.internal[e]
            if coeffs:
                Pk = legendre_eval_range(len(coeffs) + 1, xi, ctx)
                for k, ck in enumerate(coeffs, start=2):
                    want += ck * (Pk[k] - Pk[k - 2]) / _norm(k, ctx)
        assert repr(sol.evaluate(x)) == repr(want)


def _loaded_element_point(mesh, a, t):
    """The point a fraction t of the way across the element that holds a."""
    s = mesh.element_of(a)
    lo, hi = mesh.nodes[s], mesh.nodes[s + 1]
    return hi if t == 1.0 else min(lo + t * (hi - lo), hi)


# n = 3 has nodes that are not dyadic: its element ends map to xi = -1, 1 only
# through Mesh1D.to_reference
MESH_N = st.integers(1, 4)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=MESH_N, a=st.floats(-0.95, 0.95),
       t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       pmax=st.integers(1, 300), bits=st.sampled_from([128, 192]))
def test_integer_element_sweep_equals_the_mpf_loop(n, a, t, pmax, bits):
    # one rounded integer division per mode and an exact running sum give
    # the floats of the loop that adds each mode's term in mpf
    ctx = bigfloat(bits)
    sol = assemble_and_solve(Mesh1D.uniform(n, 3), a, ctx)
    x = _loaded_element_point(sol.mesh, a, t)
    assert element_error_series(sol, x, pmax).abs_error.tolist() == element_error_loop(sol, x, pmax)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=MESH_N, a=st.floats(-0.95, 0.95),
       t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       pmax=st.one_of(st.integers(1, 300), st.just(2200)))
def test_f64_element_sweep_has_the_bits_of_the_scalar_loop(n, a, t, pmax):
    sol = assemble_and_solve(Mesh1D.uniform(n, 3), a)
    x = _loaded_element_point(sol.mesh, a, t)
    got = element_error_series(sol, x, pmax).abs_error
    assert got.tobytes() == np.array(element_error_loop(sol, x, pmax)).tobytes()


def test_big_float_geometry_is_exact_on_a_non_dyadic_mesh():
    # the node -1/3 is not dyadic, and neither is 1 - 1/3 in float64; a
    # big-float solve forms each element's lo + hi and hi - lo exactly, so
    # big:192 agrees with a 512-bit closed form at N_2 and with big:512 at
    # three points, where float64 geometry left gaps of about 1e-16
    a, mesh = -0.6, Mesh1D.uniform(3, 30)
    s192, s512 = (assemble_and_solve(mesh, a, bigfloat(bits)) for bits in (192, 512))
    with mpmath.workprec(512):
        lo, hi = (mpmath.mpf(t) for t in mesh.nodes[:2])
        xi = (2 * mpmath.mpf(a) - (lo + hi)) / (hi - lo)
        # -(h/2) N_2(xi), N_2 = (P_2 - P_0) / sqrt(6) = 3 (xi^2 - 1) / (2 sqrt(6))
        n2 = -(hi - lo) / 2 * 3 * (xi * xi - 1) / (2 * mpmath.sqrt(6))
    pairs = [(s192.internal[0][0], n2)]
    pairs += [(s192.evaluate(x), s512.evaluate(x)) for x in (-0.9, -0.5, -0.4)]
    for got, want in pairs:
        with mpmath.workprec(192):
            want = +want
        assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** -180


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 0.95),
       x=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1e-3, 1e-3), st.floats(-1.0, 1.0)),
       bits=st.sampled_from([64, 128, 192, 256]), pmax=st.integers(1, 900))
def test_bigfloat_constrained_sweep_is_the_one_element_fem_sweep(a, x, bits, pmax):
    # on the element [-1, 1] the FEM solution of degree p + 1 is the order-p
    # constrained expansion, and both sweeps read one integer kernel
    ctx = bigfloat(bits)
    sol = assemble_and_solve(Mesh1D.uniform(1, pmax + 1), a, ctx)
    fem = element_error_series(sol, x, pmax)
    series = constrained_pversion_coeffs(a, pmax + 1, ctx)
    con = error_sweep(series, lambda t: exact_solution(t, a), x, pmax, ctx)
    assert fem.abs_error.tobytes() == con.abs_error.tobytes()


FEM_RUNS = [{"id": "f64", "params": {"a": 0.5}, "x": [-0.2, 0.6],
             "options": {"n": 1, "degree": 40}, "pmax": 30},
            {"id": "big128", "params": {"a": -0.5}, "x": [-0.9, -0.4], "precision": "big:128",
             "options": {"n": 3, "degree": 60}, "pmax": 50},
            {"id": "big192", "params": {"a": 0.3}, "x": [0.1], "precision": "big:192",
             "options": {"n": 2, "degree": 25}, "pmax": 20}]


def _fem_bytes(outdir, run) -> dict:
    name = f"{run['id']}.fem.csv"
    return {n: (outdir / n).read_bytes() for n in (name, name + ".trace.csv")}


def test_fem_outputs_do_not_depend_on_the_solves_before(tmp_path):
    # each run alone in a fresh process, then all in one process in both
    # orders: no norms held at another degree or in another context
    src = os.path.dirname(os.path.dirname(leglab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys; from leglab.runner import ExperimentConfig, run_experiment; "
            "run_experiment(ExperimentConfig(kind='fem', **json.loads(sys.argv[1])), sys.argv[2])")
    alone = {}
    for run in FEM_RUNS:
        out = tmp_path / "alone" / run["id"]
        subprocess.run([sys.executable, "-c", code, json.dumps(run), str(out)], env=env, check=True)
        alone[run["id"]] = _fem_bytes(out, run)
    for order in (FEM_RUNS, FEM_RUNS[::-1]):
        for run in order:
            out = tmp_path / "together" / run["id"]
            run_experiment(ExperimentConfig(kind="fem", **run), str(out))
            assert _fem_bytes(out, run) == alone[run["id"]], run["id"]
