import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leglab import legendre
from leglab.legendre import legendre_eval_range, legendre_range_array, legendre_sums_array
from leglab.precision import bigfloat

from oracles import bernstein_bound, gauss_rule, legendre_eval, legendre_mpf


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
    big = bigfloat(128)
    for k in range(0, 25):
        assert legendre_eval(k, 1.0, big) == 1
        assert legendre_eval(k, -1.0, big) == (-1) ** k


def test_exact_rational_interior():
    # P_4(1/2) = -37/128 is dyadic: the big-float value is exact
    v = legendre_eval(4, 0.5, bigfloat(128))
    assert v == mpmath.mpf(-37) / 128


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


def test_gauss_rejects_order_zero():
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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(x=st.floats(-1.0, 1.0), kmax=st.integers(0, 400), bits=st.sampled_from([64, 128, 256]))
@example(x=0.999, kmax=400, bits=256)
@example(x=4.895306196575964e-110, kmax=77, bits=128)  # odd P_k(x) are O(x)
def test_bigfloat_range_is_within_an_ulp(x, kmax, bits):
    # the integer kernel with 64 guard bits below |x|, rounded once: each
    # value is within 2^-bits relative of a 1024-bit run (the mpf
    # recurrence it replaced was off by many ulp near the zeros of P_k)
    got = legendre_eval_range(kmax, x, bigfloat(bits))
    with mpmath.workprec(1024):
        xv, want = mpmath.mpf(x), [mpmath.mpf(1), mpmath.mpf(x)]
        for n in range(1, kmax):
            want.append(((2 * n + 1) * xv * want[n] - n * want[n - 1]) / (n + 1))
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= abs(w) * mpmath.mpf(2) ** -bits, k


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


def _allocating_range_array(kmax, x):
    """The float64 rows with each step written as one allocating expression,
    ((2n+1) x P_n - n P_{n-1}) / (n+1): the reference for the buffered step."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for n in range(1, kmax):
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
    return out


_EDGE_X = st.sampled_from([1.0, -1.0, 0.0, -0.0])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kmax=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)),
       x=st.lists(st.one_of(_EDGE_X, st.floats(-1.0, 1.0)), max_size=20))
@example(kmax=2200, x=[1.0, -1.0, 0.0, -0.0, 0.5])
def test_range_array_keeps_the_bits_of_the_allocating_step(kmax, x):
    got = legendre_range_array(kmax, np.array(x))
    assert got.tobytes() == _allocating_range_array(kmax, np.array(x)).tobytes()


def _cumsum_oracle(c, orders, x):
    """Entry j of the running sums over the full table: S_{orders[j]}(x[j])."""
    kmax = int(max(orders, default=0))
    sums = np.cumsum(c[: kmax + 1, None] * legendre_range_array(kmax, x), axis=0)
    return sums[orders, np.arange(len(x))]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cols=st.lists(st.tuples(st.one_of(st.sampled_from([0, 1, 2, 57]), st.integers(0, 600)),
                               st.one_of(_EDGE_X, st.floats(-1.0, 1.0))), max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
@example(cols=[], seed=0)
@example(cols=[(57, 0.3), (0, 1.0), (57, -0.0), (1, -1.0), (600, 0.0), (1, 0.7), (0, -0.0)],
         seed=1)
def test_sums_array_equals_the_cumsum_oracle(cols, seed):
    # unsorted orders with repeats; compared as bytes, so the sign of a zero counts too
    orders = np.array([o for o, _ in cols], dtype=int)
    x = np.array([t for _, t in cols], dtype=float)
    c = np.random.default_rng(seed).standard_normal(601)
    got = legendre_sums_array(c, orders, x)
    assert got.shape == x.shape
    assert got.tobytes() == _cumsum_oracle(c, orders, x).tobytes()


def test_sums_array_rejects_bad_orders():
    c = np.ones(4)
    with pytest.raises(IndexError):
        legendre_sums_array(c, [1, 4], [0.1, 0.2])
    with pytest.raises(ValueError):
        legendre_sums_array(c, [-1], [0.1])
    with pytest.raises(ValueError):
        legendre_sums_array(c, [1, 2], [0.1])


def _clear_rows():
    legendre._ROWS.clear()
    legendre._held = 0


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(x=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310]),
                   st.floats(-1.0, 1.0)))
@example(x=0.5)
@example(x=-0.0)
def test_row_grown_along_the_escalation_path_has_the_bits_of_one_pass(x):
    # the held row starts at P_0..P_1 and grows 2200 -> 4400 -> 8800 -> 10000,
    # as a pmax escalation asks; every view, and a shorter read after, is the
    # fresh recurrence pass bit for bit (so the sign of a zero counts too)
    _clear_rows()
    for kmax in (0, 2200, 4400, 8800, 10000, 2200):
        row = legendre.legendre_row(kmax, x)
        assert row.dtype == np.float64 and len(row) == kmax + 1
        assert row.tobytes() == _bytes(legendre_eval_range(kmax, x))
    assert legendre._held == 10001


def test_row_keeps_signed_zeros_apart():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        _clear_rows()
        a, b = legendre.legendre_row(5, first), legendre.legendre_row(5, second)
        assert a.tobytes() == _bytes(legendre_eval_range(5, first))
        assert b.tobytes() == _bytes(legendre_eval_range(5, second))
        assert a.tobytes() != b.tobytes() and math.copysign(1.0, b[1]) == math.copysign(1.0, second)
        assert len(legendre._ROWS) == 2


def test_rows_are_read_only_and_outlive_growth():
    _clear_rows()
    short = legendre.legendre_row(10, 0.3)
    kept = short.copy()
    with pytest.raises(ValueError):
        short[0] = 2.0
    longer = legendre.legendre_row(50, 0.3)
    with pytest.raises(ValueError):
        longer[-1] = 2.0
    # growth builds a new row; the earlier view still reads its own values
    assert short.tobytes() == kept.tobytes() == longer[:11].tobytes()
    with pytest.raises(ValueError):
        legendre.legendre_row(-1, 0.3)
    with pytest.raises(ValueError):
        legendre.legendre_row(3, 1.5)


def test_row_budget_holds_and_evicts_least_recently_used(monkeypatch):
    assert legendre._ROW_BUDGET == 2 ** 17
    monkeypatch.setattr(legendre, "_ROW_BUDGET", 100)
    _clear_rows()

    def held():
        assert legendre._held == sum(map(len, legendre._ROWS.values())) <= 100
        return [float.fromhex(k) for k in legendre._ROWS]

    for x in (0.1, 0.2, 0.3):
        legendre.legendre_row(29, x)
    assert held() == [0.1, 0.2, 0.3]
    legendre.legendre_row(10, 0.1)  # a hit makes 0.1 the most recently used
    assert held() == [0.2, 0.3, 0.1]
    legendre.legendre_row(29, 0.4)  # 120 floats: 0.2 goes
    assert held() == [0.3, 0.1, 0.4]
    legendre.legendre_row(59, 0.3)  # 0.3 grows to 60 floats: 0.1 goes
    assert held() == [0.4, 0.3]
    # a row longer than the budget is returned but not held
    row = legendre.legendre_row(149, 0.5)
    assert row.tobytes() == _bytes(legendre_eval_range(149, 0.5))
    assert held() == []
    _clear_rows()


def test_nan_is_rejected_in_every_context():
    nan = float("nan")
    for call in (lambda: legendre_eval_range(3, nan), lambda: legendre_eval(3, nan),
                 lambda: legendre.legendre_row(3, nan),
                 lambda: legendre_eval_range(3, mpmath.mpf("nan"), bigfloat(128)),
                 lambda: legendre_eval(3, mpmath.mpf("nan"), bigfloat(128)),
                 lambda: legendre_eval_range(3, nan, bigfloat(128))):
        with pytest.raises(ValueError, match="outside"):
            call()
    assert all(k != nan.hex() for k in legendre._ROWS)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300)),
       x=st.one_of(_EDGE_X, st.sampled_from([1e-30, 4.895306196575964e-110]),
                   st.floats(-1.0, 1.0)),
       bits=st.sampled_from([64, 128, 192, 256]))
@example(k=0, x=0.3, bits=128)
def test_bigfloat_eval_rounds_only_p_k_with_the_bits_of_the_range(k, x, bits):
    ctx = bigfloat(bits)
    for xv in (x, ctx.convert(x) / 3):
        got = legendre_eval(k, xv, ctx)
        want = legendre_eval_range(k, xv, ctx)[k]
        assert isinstance(got, mpmath.mpf) and got._mpf_ == want._mpf_
        # the tanh-sinh oracle's P_k, rounded alone, has the same bits
        with ctx.active():
            assert legendre_mpf(k, ctx.convert(xv))._mpf_ == want._mpf_
