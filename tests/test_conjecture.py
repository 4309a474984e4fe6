import json

import pytest

from leglab import legendre
from leglab.conjecture import (clause1_interior, clause2_boundary_growth, clause3_singular_growth,
                               clause4_endpoints, clause5_singular_point,
                               conjecture_family, conjecture_suite, measured_rate,
                               powershift_suite, summarize)
from leglab.functions import PowerAbsFamily, StepDerivativeFamily
from leglab.ratefit import fit_rate
from leglab.series_eval import error_sweep


def test_family_dispatch():
    fam = conjecture_family(0.0, 0.5)
    assert isinstance(fam, StepDerivativeFamily)
    fam = conjecture_family(0.5, 0.25)
    assert isinstance(fam, PowerAbsFamily) and fam.a == 0.25
    assert fam.exact(0.25) == 0.0
    assert fam.exact(0.75) == pytest.approx(0.5 ** 0.5)
    neg = conjecture_family(-0.5, 0.0)
    assert neg.exact(0.0) is None


def test_clause1_pass():
    verdicts = clause1_interior(0.5, 0.5)
    assert all(v.status == "pass" for v in verdicts)
    assert all(abs(v.measured - 1.5) <= 0.05 for v in verdicts)


def test_growth_probes_keep_a_quarter_of_the_distance_to_the_next_feature():
    # at a = 0.9 the default grids reach other features: clause 3's first
    # probe 0.9 + 0.1 is the endpoint, clause 2's 1 - 0.1 is a; the caps
    # (1 - |a|)/4 and |e - a|/4 drop every probe beyond them, and say why
    left, right = clause2_boundary_growth(2.5, 0.9)
    singular = clause3_singular_growth(2.5, 0.9)
    assert all(v.status == "pass" for v in [left, right])
    assert left.fit["dropped"] == [] and len(left.fit["xi"]) == 4
    assert right.fit["dropped"] == [(0.1, "above the cap 0.025")]
    # clause 3 keeps two probes, too few for a growth fit
    dropped = [(0.1, "above the cap 0.025"), (10 ** -1.5, "above the cap 0.025")]
    for v in singular:
        assert v.status == "preasymptotic" and v.fit is None
        assert v.detail == f"fewer than three usable xi entries for the growth fit; dropped {dropped}"


@pytest.mark.parametrize("beta", [-0.9, -0.25, 0.25, 2.5])
def test_singular_growth_on_two_probes_is_preasymptotic(beta):
    # a line through two points has no residual, so the two probes left
    # below the cap at a = 0.9 cannot confirm the xi^-1 law: not a pass
    verdicts = clause3_singular_growth(beta, 0.9)
    assert [v.status for v in verdicts] == ["preasymptotic", "preasymptotic"]


def test_empty_growth_window_is_a_preasymptotic_verdict():
    # at beta = 4.5 the float64 error toward x = 1 is exactly 0 over the
    # whole window (2200, 4400): the cell reads preasymptotic, and the run
    # goes on instead of ending in an argmax of an empty sequence
    left, right = clause2_boundary_growth(4.5, 0.001)
    assert left.status == "pass"
    assert right.status == "preasymptotic"
    assert right.detail == "no nonzero error in window (2200, 4400) at x = 0.9"


def test_clause4_divergent_and_bounded():
    div = clause4_endpoints(-2.0 / 3.0, 0.0)
    assert all(v.status == "pass" for v in div)
    assert all(v.measured == pytest.approx(-1.0 / 6.0, abs=0.05) for v in div)
    bnd = clause4_endpoints(-0.5, 0.0)
    assert all(v.status == "pass" for v in bnd)
    assert all("bounded" in v.detail for v in bnd)


def test_clause5_modes():
    [v] = clause5_singular_point(1.0, 0.5)
    assert v.status == "pass" and v.measured == pytest.approx(1.0, abs=0.05)
    [v] = clause5_singular_point(-0.5, 0.5)
    assert v.status == "pass" and v.measured == pytest.approx(-0.5, abs=0.05)
    [v] = clause5_singular_point(0.0, 0.5)
    assert v.status == "pass" and v.measured == pytest.approx(1.0, abs=0.05)
    assert "limit mean" in v.detail


def test_verdict_embeds_reproducible_fit():
    v = clause1_interior(0.75, 0.0)[1]
    assert v.params["x"] == 0.5 and v.status == "pass" and v.fit is not None
    fam = conjecture_family(0.75, 0.0)
    series = fam.series(2201, None)
    from leglab.precision import FLOAT64

    sweep = error_sweep(series, fam.exact, 0.5, 2200, FLOAT64)
    refit = fit_rate(sweep, tuple(v.fit["window"]))
    assert refit.alpha == pytest.approx(v.fit["alpha"], abs=1e-12)
    assert refit.C == pytest.approx(v.fit["C"], rel=1e-12)


def test_a_cell_that_cannot_be_certified_is_its_own_verdict(monkeypatch):
    # a PrecisionError on one side of a growth probe, or at one endpoint, is
    # that cell's error verdict; its sibling keeps its measurement
    import leglab.conjecture as conjecture
    from leglab.precision import PrecisionError

    growth, rate = conjecture.constant_growth, conjecture.measured_rate

    def growth_failing_on_the_left(family, point, side, *args, **kwargs):
        if side == -1:
            raise PrecisionError("cannot certify")
        return growth(family, point, side, *args, **kwargs)

    def rate_failing_at_one(family, x, *args, **kwargs):
        if x == 1.0:
            raise PrecisionError("cannot certify")
        return rate(family, x, *args, **kwargs)

    monkeypatch.setattr(conjecture, "constant_growth", growth_failing_on_the_left)
    monkeypatch.setattr(conjecture, "measured_rate", rate_failing_at_one)
    verdicts = conjecture_suite([0.5], [0.5], clauses=(2, 3, 4))
    assert [(v.clause, v.status) for v in verdicts] == [
        (2, "pass"), (2, "error"), (3, "pass"), (3, "error"), (4, "pass"), (4, "error")]
    errors = [v.to_dict() for v in verdicts if v.status == "error"]
    assert errors == [
        {"clause": 2, "params": {"beta": 0.5, "a": 0.5, "point": 1.0, "side": -1},
         "measured": None, "conjectured": -0.25, "tolerance": 0.1, "status": "error",
         "fit": None, "detail": "cannot certify"},
        {"clause": 3, "params": {"beta": 0.5, "a": 0.5, "point": 0.5, "side": -1},
         "measured": None, "conjectured": -1.0, "tolerance": 0.1, "status": "error",
         "fit": None, "detail": "cannot certify"},
        {"clause": 4, "params": {"beta": 0.5, "a": 0.5, "x": 1.0},
         "measured": None, "conjectured": 1.0, "tolerance": 0.05, "status": "error",
         "fit": None, "detail": "cannot certify"}]
    assert all(v.measured is not None for v in verdicts if v.status == "pass")


def test_measured_rate_exact_degenerate():
    fam = conjecture_family(0.0, 0.0)  # jump at 0: odd symmetry makes x=0 exact
    fit, status, _ = measured_rate(fam, 0.0, pmax=400, ceiling=400)
    assert fit is None and status == "exact"


def test_suite_grid_and_errors():
    verdicts = conjecture_suite([0.5], [0.5], clauses=(1, 5), pmax=1200)
    assert {v.clause for v in verdicts} == {1, 5}
    assert all(v.status == "pass" for v in verdicts)
    text = summarize(verdicts)
    assert "clause 1" in text and "summary:" in text
    with pytest.raises(ValueError):
        conjecture_suite([-1.5], [0.0])
    with pytest.raises(ValueError):
        conjecture_suite([0.5], [1.0])


def test_powershift_suite_small():
    verdicts = powershift_suite([0.5], pmax=600)
    rates = [v for v in verdicts if "x" in v.params]
    assert [v.conjectured for v in rates] == pytest.approx([1.0, 2.0, 2.5])
    assert all(v.status == "pass" for v in rates)


def test_powershift_near_edge_growth():
    verdicts = powershift_suite([0.5], pmax=600)
    growth = [v for v in verdicts if "point" in v.params]
    assert [v.conjectured for v in growth] == pytest.approx([-0.75, -0.25])
    assert all(v.status == "pass" for v in growth)


def test_powershift_rate_zero_bounded():
    verdicts = powershift_suite([-0.5], pmax=700)
    at_plus1 = [v for v in verdicts if v.params.get("x") == 1.0]
    assert len(at_plus1) == 1 and at_plus1[0].status == "pass"
    assert "rate 0" in at_plus1[0].detail


# beta = 1/2 escalates one clause to pmax 4400; the series is generated once per size
@pytest.mark.parametrize("beta,sizes", [(-0.5, [2201]), (0.5, [2201, 4401])])
def test_conjecture_point_generates_each_series_once(monkeypatch, beta, sizes):
    import leglab.coefficients as coefficients
    import leglab.functions as functions

    calls = []
    original = coefficients.singular_term_coeffs

    def counted(*args, **kwargs):
        calls.append(args[2])  # P
        return original(*args, **kwargs)

    monkeypatch.setattr(coefficients, "singular_term_coeffs", counted)
    monkeypatch.setattr(functions, "_held", (None, None, None))
    verdicts = conjecture_suite([beta], [0.5])
    assert len(verdicts) == 9 and all(v.status == "pass" for v in verdicts)
    assert calls == sizes


@pytest.mark.parametrize("beta", [0.0, 1.0, 2])
def test_powershift_rejects_integer_beta(beta):
    # |x+1|^beta is then a polynomial: its error vanishes, so no rate exists
    with pytest.raises(ValueError, match="polynomial"):
        powershift_suite([0.5, beta], pmax=600)


def test_cli_conjecture_rejects_integer_powershift_beta(tmp_path, capsys):
    from leglab.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--out", str(tmp_path), "--beta-grid", "0.5", "--a-grid", "0.5",
              "--clauses", "1", "--pmax", "400", "--powershift-betas", "1"])
    assert exc.value.code == 2
    assert "polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1", "-1"])
def test_cli_conjecture_checks_powershift_betas_before_the_grid(tmp_path, monkeypatch, beta):
    import leglab.runner
    from leglab.cli import main

    calls = []
    monkeypatch.setattr(leglab.runner, "conjecture_suite", lambda *a, **k: calls.append(a) or [])
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--out", str(tmp_path), "--powershift-betas", beta])
    assert exc.value.code == 2
    assert calls == []


def test_default_grid_verdicts_do_not_depend_on_the_point_order():
    # the grid points share their sweep points; run forward and in reverse,
    # each from an empty Legendre row memo, every point gives the same verdicts
    from leglab.runner import ExperimentConfig, resolve

    _, opts = resolve(ExperimentConfig(id="c", kind="conjecture"))
    points = [(beta, a) for beta in opts["beta_grid"] for a in opts["a_grid"]]
    runs = []
    for order in (points, points[::-1]):
        legendre._ROWS.clear()
        legendre._held = 0
        runs.append({pt: json.dumps([v.to_dict() for v in conjecture_suite([pt[0]], [pt[1]])],
                                    sort_keys=True) for pt in order})
    assert len(runs[0]) == 14 and runs[0] == runs[1]
