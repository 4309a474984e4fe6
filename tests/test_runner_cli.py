import hashlib
import json
import os
import sys
import warnings

import mpmath
import numpy as np
import pytest

from leglab.cli import main
from leglab.coefficients import power_abs_coeffs, power_shift_coeffs
from leglab.functions import (AbsShiftFamily, PowerAbsFamily, PowerShiftFamily, StepDerivativeFamily,
                              family_from_config)
from leglab.legendre import gauss_rule
from leglab.precision import FLOAT64, PrecisionError
from leglab.ratefit import fit_rate
from leglab.runner import (BOUNDS_DTYPE, ExperimentConfig, InfiniteNorm, _exact_norm_sq,
                           figure_config_dir, list_figure_configs, resolve, run_experiment,
                           run_figures)
from leglab.series_eval import error_sweep

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _hash_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_config_roundtrip(tmp_path):
    doc = {"id": "t1", "kind": "sweep", "family": "step", "params": {"a": 0.5},
           "x": [0.1], "pmax": 300, "precision": "f64", "expect": {"alpha": 1.0}}
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.load(path)
    assert cfg.id == "t1" and cfg.pmax == 300
    assert cfg.eval_ctx().mode == "f64"


def test_sweep_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(id="s", kind="sweep", family="step", params={"a": 0.5},
                           x=[-1.0], pmax=1200, expect={"alpha": 0.5, "C": 0.44194})
    manifest = run_experiment(cfg, str(tmp_path))
    assert not manifest["errors"]
    names = {o["path"] for o in manifest["outputs"]}
    assert any(n.endswith(".sweep.npy") for n in names)
    assert any(n.endswith(".plot.csv") for n in names)
    res = manifest["results"]["x=-1"]
    assert res["fit"]["alpha"] == pytest.approx(0.5, abs=0.05)
    assert res["C_pinned"] == pytest.approx(0.44194, rel=0.25)
    assert abs(res["C_ratio"] - 1.0) < 0.25


def test_reproducibility_bitwise(tmp_path):
    cfg_path = os.path.join(figure_config_dir(), "fig02.json")
    cfg = ExperimentConfig.load(cfg_path)
    run_experiment(cfg, str(tmp_path / "r1"))
    run_experiment(cfg, str(tmp_path / "r2"))
    h1, h2 = _hash_tree(tmp_path / "r1"), _hash_tree(tmp_path / "r2")
    assert h1 == h2


def test_precision_error_recorded_not_silent(tmp_path):
    cfg = ExperimentConfig(id="bad", kind="sweep", family="powerabs",
                           params={"beta": -0.5}, x=[0.5], pmax=200,
                           coeff_precision="f64")
    manifest = run_experiment(cfg, str(tmp_path))
    assert manifest["errors"]
    assert manifest["errors"][0]["type"] == "PrecisionError"
    assert manifest["results"] == {}


def test_exact_norm_closed_forms():
    assert _exact_norm_sq(PowerAbsFamily(beta=0.25), "L2") == 4 / 3
    assert _exact_norm_sq(PowerAbsFamily(beta=-0.25), "L2") == 4.0
    assert _exact_norm_sq(PowerAbsFamily(beta=0.0), "L2") == 2.0
    assert _exact_norm_sq(PowerShiftFamily(beta=0.5), "L2") == 2.0
    assert _exact_norm_sq(PowerShiftFamily(beta=1.0), "L2") == pytest.approx(8 / 3, rel=1e-15)
    assert _exact_norm_sq(PowerShiftFamily(beta=-0.25), "L2") == pytest.approx(2 * 2 ** 0.5, rel=1e-15)
    # no closed form for the derivative: the sweep's truncation warning takes over
    assert _exact_norm_sq(PowerAbsFamily(beta=0.75), "Energy") is None
    assert _exact_norm_sq(PowerShiftFamily(beta=0.0), "Energy") is None
    for family in (PowerAbsFamily(beta=-0.5), PowerShiftFamily(beta=-0.75)):
        with pytest.raises(InfiniteNorm):
            _exact_norm_sq(family, "L2")
    for family in (PowerAbsFamily(beta=0.5), PowerShiftFamily(beta=0.25)):
        with pytest.raises(InfiniteNorm):
            _exact_norm_sq(family, "Energy")
    # |x - a|^beta off center: split Gauss-Legendre is exact for |x - 0.3|^(2 * 0.5)
    rule = gauss_rule(12, FLOAT64)
    split = (rule.integrate(lambda t: abs(t - 0.3), -1.0, 0.3)
             + rule.integrate(lambda t: abs(t - 0.3), 0.3, 1.0))
    assert _exact_norm_sq(PowerAbsFamily(beta=0.5, a=0.3), "L2") == pytest.approx(split, rel=1e-14)
    # the piecewise-polynomial families keep their exact Gauss route
    assert _exact_norm_sq(StepDerivativeFamily(a=0.5), "L2") == pytest.approx(0.375, rel=1e-14)
    assert _exact_norm_sq(AbsShiftFamily(a=0.5), "Energy") == pytest.approx(0.375, rel=1e-14)


def test_exact_norm_of_a_spec_integrates_between_its_singular_points():
    # int |x - 0.3|^0.5 = (0.7^1.5 + 1.3^1.5) / 1.5; a 12-point Gauss rule on
    # each side of 0.3 gave 1.3787028
    one = family_from_config("spec", {"terms": [[1.0, 0.3, 0.25]]})
    assert _exact_norm_sq(one, "L2") == pytest.approx((0.7 ** 1.5 + 1.3 ** 1.5) / 1.5, rel=1e-14)
    # two centres: tanh-sinh on each of the three pieces, against a 200-bit run
    two = family_from_config("spec", {"terms": [[1.0, 0.2, 0.5], [-2.0, -0.4, 1.5]]})
    with mpmath.workprec(200):
        want = mpmath.quad(lambda t: two.spec.value(t) ** 2, [-1, -0.4, 0.2, 1])
    assert _exact_norm_sq(two, "L2") == pytest.approx(float(want), rel=1e-14)
    # |x - 0.3|^-0.8 defeats the quadrature at its working precision: no
    # number, so the sweep warns; an exponent at most -1/2 has no norm
    assert _exact_norm_sq(family_from_config("spec", {"terms": [[1.0, 0.3, -0.4]]}), "L2") is None
    with pytest.raises(InfiniteNorm):
        _exact_norm_sq(family_from_config("spec", {"terms": [[1.0, 0.3, -0.5]]}), "L2")
    assert _exact_norm_sq(one, "Energy") is None


# The Parseval tail of a 20000-term series misses about N^-1.5 beyond it for
# |x|^0.25 (coefficients ~ k^-0.75).  For |x+1|^0.5 it misses nothing visible,
# and the sweep's f64 difference exact - head (2 - 1.2e-9) limits agreement.
# For |x+1|^1.5 that difference (about 1e-24) is below the rounding of the
# f64 sum (1e-15, against e_100^2 of about 1e-16), so the sweep must drop it
# rather than add the rounding to every p.
@pytest.mark.parametrize("family,beta,series,rel", [("powerabs", 0.25, power_abs_coeffs, 5e-4),
                                                    ("powershift", 0.5, power_shift_coeffs, 1e-6),
                                                    ("powershift", 1.5, power_shift_coeffs, 1e-6)])
def test_norm_experiment_power_families_exact(tmp_path, family, beta, series, rel):
    cfg = ExperimentConfig(id="n", kind="norm", family=family, params={"beta": beta}, pmax=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(cfg, str(tmp_path))
    assert not manifest["errors"]
    last = np.loadtxt(tmp_path / "n.norm.csv", delimiter=",", skiprows=1)[-1]
    c = series(beta, 20000).as_floats()
    k = np.arange(len(c))
    tail = np.sqrt(np.sum((c * c * 2 / (2 * k + 1))[101:][::-1]))
    assert last[0] == 100
    assert last[1] == pytest.approx(tail, rel=rel)
    if family == "powerabs":
        # 200000 terms give 0.0099934594; the quadrature norm used to report 0.0143
        assert last[1] == pytest.approx(0.0099935, rel=1e-4)


def test_cli_norm_of_polynomial_target_exits_2(tmp_path):
    # (1 + x)^1 has e_p = 0 exactly for p >= 2: no slope, and no NaN in the manifest
    out = tmp_path / "o"
    rc = main(["norm", "--family", "powershift", "--beta", "1", "--norm", "l2", "--pmax", "100",
               "--out", str(out)])
    assert rc == 2

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    manifest = json.loads((out / "norm.manifest.json").read_text(), parse_constant=reject)
    assert [e["type"] for e in manifest["errors"]] == ["FitUnreliable"]
    assert "slope" not in manifest["results"]


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"\['pmx', 'precison'\]"):
        ExperimentConfig.from_dict({"id": "t", "kind": "sweep", "pmx": 50, "precison": "big:256"})
    cfg = ExperimentConfig.from_dict({"id": "t", "kind": "growth", "options": {"point": 1.0}})
    assert cfg.options == {"point": 1.0}


def test_fem_experiment(tmp_path):
    cfg = ExperimentConfig(id="fem1", kind="fem", family="step", params={"a": 0.5},
                           x=[0.3], pmax=200, options={"n": 1, "degree": 201})
    manifest = run_experiment(cfg, str(tmp_path))
    assert not manifest["errors"]
    assert "fit" in manifest["results"]["x=+0.3"]


def test_conjecture_experiment(tmp_path):
    cfg = ExperimentConfig(id="cj", kind="conjecture", pmax=1000,
                           options={"beta_grid": [0.5], "a_grid": [0.5], "clauses": [1]})
    manifest = run_experiment(cfg, str(tmp_path))
    counts = manifest["results"]["verdicts"]
    assert counts["pass"] == 2 and counts["fail"] == 0


def test_figure_configs_all_load():
    names = list_figure_configs()
    assert len(names) >= 30
    for name in names:
        cfg = ExperimentConfig.load(os.path.join(figure_config_dir(), name))
        assert cfg.kind in ("sweep", "norm", "gibbs", "growth", "fem")
        resolve(cfg)


def test_benchmark_specs_validate(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    for name in workloads.WORKLOADS:
        for op in workloads.universe(name) + workloads.ops_for(name, 0):
            if op.kind == "experiment":
                resolve(op.prepare().config)
    sys.modules.pop("workloads")


@pytest.mark.parametrize("doc,match", [
    ({"kind": "growth", "options": {"point": -1.0, "fixed_alpha": 1.0, "xii": [0.1]}},
     r"growth options: unknown \['xii'\]"),
    ({"kind": "growth", "options": {"point": -1.0}}, r"growth options: missing \['fixed_alpha'\]"),
    ({"kind": "conjecture", "options": {"tolerances": {"rate_tl": 0.5}}},
     r"tolerances: unknown \['rate_tl'\]"),
    ({"kind": "fit", "x": [0.1]}, r"unknown experiment kind 'fit'"),
    ({"kind": "coeffs", "family": "step", "params": {"beta": 0.7}},
     r"family 'step' params: unknown \['beta'\]"),
    ({"kind": "gibbs", "pmax": 1200, "options": {"pvalues": [500, 2000]}},
     r"gibbs pvalues \[500, 2000\] must be non-empty and lie in \[1, pmax = 1200\]"),
    # config fields and expect keys the kind does not read
    ({"kind": "fem", "coeff_precision": "big:64", "options": {"n": 1, "degree": 20}},
     r"fem does not read the config fields \['coeff_precision'\]"),
    ({"kind": "norm", "x": [0.3], "window": [10, 40], "expect": {"alpha": 2}},
     r"norm does not read the config fields \['window', 'x'\]"),
    ({"kind": "norm", "expect": {"alpha": 2}}, r"norm expect: unknown \['alpha'\]"),
    ({"kind": "gibbs", "expect": {"D": 2.7777}}, r"gibbs does not read the config fields \['expect'\]"),
    ({"kind": "growth", "window": [10, 40], "options": {"point": -1.0, "fixed_alpha": 1.0}},
     r"growth does not read the config fields \['window'\]"),
    ({"kind": "conjecture", "family": "absshift"},
     r"conjecture does not read the config fields \['family'\]"),
    # point lists
    ({"kind": "sweep", "family": "step", "pmax": 100}, r"sweep needs at least one point x"),
    ({"kind": "bounds", "pmax": 50}, r"bounds needs at least one point x"),
    ({"kind": "sweep", "x": [0.1, 1.5]}, r"sweep point x = 1.5 lies outside \[-1, 1\]"),
    ({"kind": "bounds", "x": [0.1, 1.0], "pmax": 50},
     r"bounds point x = 1.0 lies outside \(-1, 1\)"),
    ({"kind": "fem", "params": {"a": 0.3}, "x": [0.1, 0.6], "options": {"n": 4}},
     r"fem point x = 0.6 lies outside \[0, 0.5\]"),
    # coeffs reads one precision field
    ({"kind": "coeffs", "precision": "f64", "coeff_precision": "big:256"},
     r"coeffs does not read the config fields \['coeff_precision'\]"),
])
def test_run_rejects_input_it_would_not_honour(tmp_path, doc, match):
    # rejected before any work: no output directory, no manifest
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentConfig.from_dict({"id": "t", **doc}), str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_options_merge_defaults_and_keep_config_as_given(tmp_path):
    options = {"point": -1.0, "fixed_alpha": 1.0, "note": "defaults for side, xi, ceiling"}
    cfg = ExperimentConfig(id="g", kind="growth", params={"a": 0.5}, pmax=600, options=options)
    manifest = run_experiment(cfg, str(tmp_path))
    assert manifest["config"]["options"] == options
    xi = np.loadtxt(tmp_path / "g.growth.csv", delimiter=",", skiprows=1)[:, 0]
    assert xi.tolist() == [1e-1, 1e-2, 1e-3, 1e-4]
    # the conjecture grid defaults to the 7 x 2 grid the CLI used to spell out
    _, opts = resolve(ExperimentConfig(id="c", kind="conjecture"))
    assert len(opts["beta_grid"]) == 7 and opts["a_grid"] == (0.0, 0.5)


def test_run_figures_subset(tmp_path):
    manifests = run_figures(str(tmp_path), only=["fig01a", "figB4a"])
    assert [m["experiment"] for m in manifests] == ["fig01a", "figB4a"]
    assert all(not m["errors"] for m in manifests)
    with pytest.raises(ValueError):
        run_figures(str(tmp_path), only=["nope"])


def test_figures_do_not_depend_on_the_config_order(tmp_path):
    # configs sharing a = 0.5 and their sweep points, run in order and in
    # reverse, each from an empty Legendre row memo, write the same bytes
    from leglab import legendre

    names = ["fig01a", "fig02", "fig06c", "fig09b", "fig09c", "figB4a"]
    for sub, order in (("fwd", names), ("rev", names[::-1])):
        legendre._ROWS.clear()
        legendre._held = 0
        for name in order:
            config = ExperimentConfig.load(os.path.join(figure_config_dir(), name + ".json"))
            run_experiment(config, str(tmp_path / sub / name))
    fwd, rev = _hash_tree(tmp_path / "fwd"), _hash_tree(tmp_path / "rev")
    assert len(fwd) >= 6 and fwd == rev


@pytest.mark.parametrize("first,second,reused", [
    (("fig12b", 800), ("fig12c", 800), True),  # fig12c reads fig12b's series
    (("fig03d", None), ("fig04", None), True),  # a prefix of a longer f64 step series
    (("fig09a", None), ("fig09b", None), True),  # constrained: not prefix-stable
    (("figB7b", None), ("fig06a", None), True),  # a growth whose pmax escalates, then a sweep
    (("fig12b", 800), ("fig12d", 800), False),  # the same family name, another beta
], ids=["fig12b-fig12c", "fig03d-fig04", "fig09a-fig09b", "figB7b-fig06a", "fig12b-fig12d"])
def test_a_reused_family_writes_the_bytes_of_a_fresh_one(tmp_path, monkeypatch, first, second,
                                                         reused):
    # a config whose family name and params equal its predecessor's runs on
    # that config's family and its memoized series; each output keeps the
    # sha256 of a run on a fresh family
    from leglab import functions, runner

    configs = []
    for name, pmax in (first, second):
        config = ExperimentConfig.load(os.path.join(figure_config_dir(), name + ".json"))
        config.pmax = pmax or config.pmax
        configs.append(config)
    families = []
    monkeypatch.setattr(runner, "family_from_config",
                        lambda *args: families.append(functions.family_from_config(*args))
                        or families[-1])
    monkeypatch.setattr(functions, "_held", (None, None, None))
    for config in configs:
        run_experiment(config, str(tmp_path / "pair" / config.id))
    assert (families[0] is families[1]) == reused
    for config in configs:
        monkeypatch.setattr(functions, "_held", (None, None, None))
        run_experiment(config, str(tmp_path / "fresh" / config.id))
    assert families[2] is not families[3]
    pair, fresh = _hash_tree(tmp_path / "pair"), _hash_tree(tmp_path / "fresh")
    assert len(pair) >= 6 and pair == fresh


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    rc = main(["sweep", "--family", "step", "--a", "0.5", "--x", "-1.0",
               "--pmax", "600", "--out", str(tmp_path / "o1"), "--id", "cli1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"alpha"' in out


def test_cli_fit_verb(tmp_path, capsys):
    main(["sweep", "--family", "step", "--a", "0.5", "--x", "0.1",
          "--pmax", "600", "--out", str(tmp_path), "--id", "c2"])
    capsys.readouterr()
    sweep_npy = tmp_path / "c2.x+0.1.sweep.npy"
    rc = main(["fit", str(sweep_npy), "--window", "300", "600"])
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["alpha"] == pytest.approx(1.0, abs=0.1)
    family = StepDerivativeFamily(a=0.5)
    sweep = error_sweep(family.series(601), family.exact, 0.1, 600)
    assert fit == json.loads(json.dumps(fit_rate(sweep, (300, 600)).to_dict()))


def test_cli_fit_reads_only_sweep_npy_files(tmp_path, capsys):
    csv = tmp_path / "old.sweep.csv"
    csv.write_text("p,abs_error\n1,0.5\n2,0.25\n")
    other = tmp_path / "other.npy"
    np.save(other, np.arange(4.0))
    for path in (csv, other, tmp_path / "missing.sweep.npy"):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(path)])
        assert exc.value.code == 2
        assert ".sweep.npy" in capsys.readouterr().err


def test_cli_fit_rejects_a_bounds_file_naming_the_format(tmp_path, capsys):
    main(["bounds", "--family", "step", "--a", "0.5", "--x", "0.1", "--pmax", "50",
          "--out", str(tmp_path), "--id", "b"])
    capsys.readouterr()
    bounds_npy = tmp_path / "b.x+0.1.bounds.npy"
    assert np.load(bounds_npy).dtype == BOUNDS_DTYPE
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(bounds_npy)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{bounds_npy} is not a .sweep.npy file" in err
    assert "fields p <i8, abs_error <f8" in err


def test_cli_conjecture_exit(tmp_path, capsys):
    rc = main(["conjecture", "--beta-grid", "0.5", "--a-grid", "0.5",
               "--clauses", "1", "--pmax", "1000", "--out", str(tmp_path)])
    assert rc == 0
    assert "pass=2" in capsys.readouterr().out


def test_cli_figures_exit_status(tmp_path, capsys, monkeypatch):
    assert main(["figures", "--only", "fig02", "--out", str(tmp_path / "ok")]) == 0

    def fail(self, P, ctx=None):
        raise PrecisionError("forced")

    monkeypatch.setattr(PowerShiftFamily, "series", fail)
    rc = main(["figures", "--only", "fig02", "fig12a", "--out", str(tmp_path / "bad")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "fig12a: 0 outputs  errors=1" in out


@pytest.mark.parametrize("norm", ["l2", "energy"])
def test_cli_norm_infinite_norm_recorded(tmp_path, norm):
    # |x|^-0.5 and its derivative are not square integrable: an error in the
    # manifest and exit status 2, no traceback and no output files
    out = tmp_path / norm
    rc = main(["norm", "--family", "powerabs", "--beta", "-0.5", "--norm", norm,
               "--pmax", "50", "--out", str(out)])
    assert rc == 2
    with open(out / "norm.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["errors"][0]["type"] == "InfiniteNorm"
    assert manifest["outputs"] == []


def test_cli_figures_list(capsys):
    rc = main(["figures", "--list"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert "fig01a" in names and "fig14" in names


def test_cli_gibbs(tmp_path, capsys):
    rc = main(["gibbs", "--family", "step", "--a", "0.5", "--pmax", "1200",
               "--pvalues", "500", "1000", "--out", str(tmp_path), "--id", "g1"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["D"] == pytest.approx(2.7777, rel=0.05)


def test_cli_rejects_ignored_flags(capsys):
    # every verb runs serially, the conjecture suite evaluates in float64 and
    # coeffs exports in --precision, so these flags would be accepted and then ignored
    verbs = [["coeffs"], ["sweep"], ["norm"], ["gibbs"], ["bounds", "--x", "0.1"], ["fem"],
             ["growth", "--point", "-1", "--fixed-alpha", "1"], ["conjecture"], ["figures"]]
    for argv in [v + ["--jobs", "2"] for v in verbs] + [["conjecture", "--precision", "big:999"],
                                                         ["coeffs", "--coeff-precision", "big:256"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["coeffs", "--family", "step", "--beta", "0.7", "--pmax", "3"],
     "family 'step' params: unknown ['beta']"),
    (["coeffs", "--family", "powershift", "--beta", "0.5", "--a", "0.3"],
     "family 'powershift' params: unknown ['a']"),
    (["norm", "--family", "powershift", "--pmax", "20"], "family 'powershift' params: missing ['beta']"),
    (["gibbs", "--pvalues", "500", "2000", "--pmax", "1200"], "gibbs pvalues [500, 2000]"),
    (["growth", "--point", "-1"], "growth options: missing ['fixed_alpha']"),
    (["coeffs", "--config", os.path.join(figure_config_dir(), "fig02.json"), "--pmax", "5"],
     "--config holds the whole run; drop ['pmax']"),
    # a verb offers a config-field flag only where its kind reads the field
    (["fem", "--coeff-precision", "big:64", "--n", "1", "--degree", "20"],
     "unrecognized arguments: --coeff-precision big:64"),
    (["norm", "--precision", "big:256", "--pmax", "50"],
     "unrecognized arguments: --precision big:256"),
    (["sweep", "--family", "step", "--pmax", "100"], "sweep needs at least one point x"),
    (["sweep", "--x", "1.5", "--pmax", "10"], "sweep point x = 1.5 lies outside [-1, 1]"),
    (["sweep", "--x", "0.1", "1.5"], "sweep point x = 1.5 lies outside [-1, 1]"),
    (["bounds", "--x", "0.1", "1.0", "--pmax", "50"],
     "bounds point x = 1.0 lies outside (-1, 1)"),
    (["growth", "--coeff-precision", "big:64", "--point", "-1", "--fixed-alpha", "1"],
     "unrecognized arguments: --coeff-precision big:64"),
    (["gibbs", "--precision", "big:256", "--pmax", "2000"],
     "unrecognized arguments: --precision big:256"),
    # a pmax below what the kind runs; the Theorem 1 series starts at p = 2
    (["sweep", "--x", "0.1", "--pmax", "0"], "sweep needs pmax >= 1, not 0"),
    (["growth", "--point", "0.5", "--fixed-alpha", "1", "--pmax", "0"],
     "growth needs pmax >= 1, not 0"),
    (["fem", "--x", "0.3", "--pmax", "0"], "fem needs pmax >= 1, not 0"),
    (["bounds", "--x", "0.1", "--pmax", "1"], "bounds needs pmax >= 2, not 1"),
    (["conjecture", "--pmax", "0"], "conjecture needs pmax >= 1, not 0"),
    (["fem", "--n", "0"], "a uniform mesh needs at least one element"),
    (["fem", "--n", "-2"], "a uniform mesh needs at least one element"),
    # two arithmetic modes: f64 and big:<bits>
    (["sweep", "--x", "0.1", "--precision", "exact"], "cannot parse precision spec 'exact'"),
    (["coeffs", "--precision", "quad"], "cannot parse precision spec 'quad'"),
    # the kink family has no jump, so its largest excursion is at the scan's edge: a recorded error
    (["gibbs", "--family", "absshift", "--a", "0.5"], "GridTooCoarse"),
    # the order-p constrained approximation is not a prefix of the coefficients
    (["norm", "--family", "constrained", "--pmax", "50"],
     "norm reads coefficient prefixes, and the order-p approximations of constrained a=0.5"),
    (["gibbs", "--family", "constrained"],
     "gibbs reads coefficient prefixes, and the order-p approximations of constrained a=0.5"),
    # a precision spec is f64, big (big:256) or big:<bits>
    (["coeffs", "--family", "step", "--a", "0.5", "--pmax", "3", "--precision", "big999"],
     "cannot parse precision spec 'big999'"),
    (["coeffs", "--precision", "bigfoo"], "cannot parse precision spec 'bigfoo'"),
    (["coeffs", "--precision", "big:"], "cannot parse precision spec 'big:'"),
    # each point names its output files by the tag x{x:+.7g}
    (["sweep", "--family", "step", "--a", "0.5", "--pmax", "300", "--x", "0.1", "0.10000000001"],
     "sweep points x = 0.1 and x = 0.10000000001 share the output tag x+0.1"),
    (["bounds", "--x", "-0.25", "0.5", "-0.25", "--pmax", "50"],
     "bounds points x = -0.25 and x = -0.25 share the output tag x-0.25"),
    (["fem", "--x", "0.3", "0.29999999999", "--pmax", "50"],
     "fem points x = 0.3 and x = 0.29999999999 share the output tag x+0.3"),
    (["conjecture", "--clauses", "1", "6"], "clause 6 is not one of 1, 2, 3, 4, 5"),
    # a repeated entry would run again and be counted again
    (["conjecture", "--beta-grid", "0.5", "--a-grid", "0.5", "--clauses", "5", "5", "--pmax", "600"],
     "clauses lists 5 more than once"),
    (["conjecture", "--beta-grid", "0.5", "0.5", "--a-grid", "0.5", "--clauses", "5"],
     "beta_grid lists 0.5 more than once"),
    (["conjecture", "--a-grid", "0.5", "0.0", "0.5"], "a_grid lists 0.5 more than once"),
    (["conjecture", "--powershift-betas", "0.5", "0.5"],
     "powershift_betas lists 0.5 more than once"),
    (["growth", "--family", "step", "--a", "0.5", "--point", "-1.0", "--fixed-alpha", "1.0",
      "--xi", "0.1", "0.1", "0.1"], "growth xi lists 0.1 more than once"),
    (["gibbs", "--family", "step", "--a", "0.5", "--pvalues", "500", "500", "1000"],
     "gibbs pvalues lists 500 more than once"),
    # coeffs exports in its one precision field
    (["coeffs", "--precision", "f64", "--coeff-precision", "big:256"],
     "unrecognized arguments: --coeff-precision big:256"),
])
def test_cli_input_errors_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    if message == "GridTooCoarse":
        # the run records its error in the manifest, which it writes
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
        assert [e["type"] for e in manifest["errors"]] == [message]
        return
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_resolve_rejects_a_precision_spec_before_any_work():
    for field in ("precision", "coeff_precision"):
        cfg = ExperimentConfig(id="s", kind="sweep", x=[0.1], **{field: "exact"})
        with pytest.raises(ValueError, match="cannot parse precision spec 'exact'"):
            resolve(cfg)


def test_cli_unknown_family_exits_2_naming_the_six(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "abs_shift", "--a", "0.3", "--x", "0.1", "--pmax", "50",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert ("unknown family 'abs_shift'; accepted: ['absshift', 'constrained', 'powerabs', "
            "'powershift', 'spec', 'step']") in capsys.readouterr().err


def test_cli_config_file_errors_exit_2(tmp_path, capsys):
    doc = {"id": "g", "kind": "growth", "options": {"point": -1.0, "fixed_alpha": 1.0,
                                                     "xii": [0.1]}}
    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--config", str(tmp_path / "g.json"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unknown ['xii']" in capsys.readouterr().err


def test_cli_growth_config_side_other_than_one_exits_2(tmp_path, capsys):
    # --side offers only -1 and 1; a config file is checked by the run
    doc = {"id": "g", "kind": "growth", "options": {"point": 0.5, "fixed_alpha": 1.0, "side": 3}}
    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--config", str(tmp_path / "g.json"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "growth side must be -1 or 1, not 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_gibbs_decay_window_outside_domain(tmp_path):
    # at p = 20 the decay window xi in [0.1, 0.25] right of a = 0.95 leaves [-1, 1]
    rc = main(["gibbs", "--a", "0.95", "--pvalues", "20", "--pmax", "100",
               "--out", str(tmp_path)])
    assert rc == 2
    manifest = json.loads((tmp_path / "gibbs.manifest.json").read_text())
    assert [e["type"] for e in manifest["errors"]] == ["FitUnreliable"]


def test_cli_records_only_the_flags_given(tmp_path):
    # the norm defaults to L2 (the CLI used to default to the energy norm)
    assert main(["norm", "--family", "absshift", "--pmax", "50", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "norm.manifest.json").read_text())
    assert manifest["config"]["options"] == {}
    assert manifest["config"]["params"] == {}
    assert manifest["config"]["family"] == "absshift"
    assert (tmp_path / "norm.norm.csv").read_text().startswith("p,l2_error\n")


@pytest.mark.parametrize("argv,params,a", [
    (["--beta", "0.5", "--a", "0.3"], {"a": 0.3, "beta": 0.5}, 0.3),
    (["--beta", "0.5"], {"beta": 0.5}, 0.0),
])
def test_cli_coeffs_powerabs_takes_a(tmp_path, argv, params, a):
    assert main(["coeffs", "--family", "powerabs", "--pmax", "4", "--out", str(tmp_path)]
                + argv) == 0
    manifest = json.loads((tmp_path / "coeffs.manifest.json").read_text())
    assert manifest["config"]["params"] == params
    rows = (tmp_path / "coeffs.coeffs.csv").read_text().splitlines()[1:]
    want = PowerAbsFamily(beta=0.5, a=a).series(4, FLOAT64).coeffs
    assert [float(r.split(",")[1]) for r in rows] == want


# the norm tail, the exact norm, the growth ceiling, the powershift growth
# checks and the worker count are constants, and constant_rel is no
# tolerance: a config that sets one is rejected like any unknown key
@pytest.mark.parametrize("kind,options,name", [
    ("norm", {"tail_margin": 800}, "tail_margin"),
    ("norm", {"exact_norm_sq": 0.375}, "exact_norm_sq"),
    ("growth", {"point": -1.0, "fixed_alpha": 1.0, "ceiling": 10000}, "ceiling"),
    ("conjecture", {"growth_checks": True}, "growth_checks"),
    ("conjecture", {"tolerances": {"constant_rel": 0.25}}, "constant_rel"),
    ("conjecture", {"jobs": 2}, "jobs"),
])
def test_removed_options_are_rejected(tmp_path, capsys, kind, options, name):
    doc = {"id": kind, "kind": kind, "options": options}
    with pytest.raises(ValueError, match=f"unknown \\['{name}'\\]"):
        run_experiment(ExperimentConfig.from_dict(doc), str(tmp_path / "api"))
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([kind, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "api").exists() and not (tmp_path / "o").exists()
