"""Config-driven experiment execution with manifested, reproducible outputs.

An experiment is one JSON document; a run writes CSV data files, JSON fit
records, and a manifest listing every output with its sha256.  Evaluation
order is fixed and all reductions are deterministic, so re-running a config
on the same build reproduces the output bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from .conjecture import (ToleranceProfile, check_powershift_betas, conjecture_suite,
                         powershift_suite, summarize)
from .functions import (PowerAbsFamily, PowerShiftFamily, StepDerivativeFamily,
                        family_from_config)
from .precision import FLOAT64, PrecisionContext, PrecisionError, parse_precision
from .ratefit import FitUnreliable, constant_growth, fit_rate, gibbs_probe, pinned_constant
from .series_eval import error_sweep, norm_sweep


@dataclass
class ExperimentConfig:
    """Declarative description of one run; every field has a config-file key."""

    id: str
    kind: str  # coeffs | sweep | norm | gibbs | growth | bounds | fem | conjecture
    family: str = "step"
    params: dict = field(default_factory=dict)
    x: list = field(default_factory=list)
    pmax: int = 2200
    precision: str = "f64"
    coeff_precision: Optional[str] = None
    window: Optional[list] = None
    expect: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; run-specific settings "
                             "belong under 'options'")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def eval_ctx(self) -> PrecisionContext:
        return parse_precision(self.precision)

    def coeff_ctx(self) -> Optional[PrecisionContext]:
        return parse_precision(self.coeff_precision) if self.coeff_precision else None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class ManifestWriter:
    """Single serialization point for output records."""

    def __init__(self, outdir: str, experiment_id: str):
        self.outdir = outdir
        self.experiment_id = experiment_id
        self.outputs = []
        self.results = {}
        self.errors = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def register(self, path: str) -> None:
        self.outputs.append({"path": os.path.relpath(path, self.outdir),
                             "sha256": _sha256(path)})

    def record_error(self, where: str, exc: Exception) -> None:
        self.errors.append({"where": where, "type": type(exc).__name__, "message": str(exc)})

    def finish(self, config: dict) -> dict:
        from . import __version__

        manifest = {"experiment": self.experiment_id, "config": config,
                    "tool_version": __version__,
                    "outputs": sorted(self.outputs, key=lambda o: o["path"]),
                    "results": self.results, "errors": self.errors}
        path = self.path(f"{self.experiment_id}.manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        return manifest


def _fit_payload(sweep, window, expect):
    payload = {}
    try:
        fit = fit_rate(sweep, window)
        payload["fit"] = fit.to_dict()
    except FitUnreliable as exc:
        payload["fit"] = None
        payload["fit_error"] = str(exc)
        return payload
    if expect.get("alpha") is not None:
        alpha0 = float(expect["alpha"])
        payload["expected_alpha"] = alpha0
        payload["alpha_dev"] = fit.alpha - alpha0
        payload["C_pinned"] = pinned_constant(sweep, alpha0, window)
    if expect.get("C") is not None:
        payload["expected_C"] = float(expect["C"])
        ref = payload.get("C_pinned", payload["fit"]["C"])
        payload["C_ratio"] = ref / float(expect["C"])
    return payload


def _plot_data(sweep, fit_payload, path):
    """(log10 p, log10 err) pairs plus fitted-line endpoints, one CSV per panel."""
    with open(path, "w") as fh:
        fh.write("log10_p,log10_abs_error\n")
        mask = sweep.abs_error > 0
        for p, e in zip(sweep.pvalues[mask], sweep.abs_error[mask]):
            fh.write(f"{float(np.log10(p))!r},{float(np.log10(e))!r}\n")
        fit = fit_payload.get("fit")
        if fit:
            lo, hi = fit["window"]
            c, al = fit["C"], fit["alpha"]
            fh.write(f"# fit_line,{float(np.log10(lo))!r},{float(np.log10(c * lo ** -al))!r}\n")
            fh.write(f"# fit_line,{float(np.log10(hi))!r},{float(np.log10(c * hi ** -al))!r}\n")


def run_experiment(config: ExperimentConfig, outdir: str) -> dict:
    """Execute one experiment; returns the manifest dictionary."""
    writer = ManifestWriter(outdir, config.id)
    try:
        _dispatch(config, writer)
    except (PrecisionError, FitUnreliable, InfiniteNorm) as exc:
        # graceful degradation: record a machine-readable error, never silent bad data
        writer.record_error(config.kind, exc)
    doc = {k: getattr(config, k) for k in config.__dataclass_fields__}
    return writer.finish(doc)


def _dispatch(config: ExperimentConfig, writer: ManifestWriter) -> None:
    kind = config.kind
    eval_ctx = config.eval_ctx()
    window = tuple(config.window) if config.window else None
    if kind == "conjecture":
        tol = ToleranceProfile(**config.options.get("tolerances", {}))
        # reject a bad powershift list before the grid spends its time
        check_powershift_betas(config.options.get("powershift_betas", []))
        verdicts = conjecture_suite(config.options.get("beta_grid", [0.0]),
                                    config.options.get("a_grid", [0.5]),
                                    tol, pmax=config.pmax,
                                    clauses=tuple(config.options.get("clauses", (1, 2, 3, 4, 5))),
                                    jobs=int(config.options.get("jobs", 1)))
        if config.options.get("powershift_betas"):
            verdicts += powershift_suite(config.options["powershift_betas"], tol,
                                         pmax=config.pmax,
                                         growth_checks=config.options.get("growth_checks", True))
        path = writer.path(f"{config.id}.verdicts.json")
        with open(path, "w") as fh:
            json.dump([v.to_dict() for v in verdicts], fh, indent=1, sort_keys=True)
        writer.register(path)
        writer.results["verdicts"] = {
            "pass": sum(v.status == "pass" for v in verdicts),
            "fail": sum(v.status == "fail" for v in verdicts),
            "preasymptotic": sum(v.status == "preasymptotic" for v in verdicts),
            "error": sum(v.status == "error" for v in verdicts),
        }
        writer.results["summary"] = summarize(verdicts)
        return

    family = family_from_config(config.family, config.params)
    if kind == "coeffs":
        series = family.series(config.pmax, config.coeff_ctx() or eval_ctx)
        path = writer.path(f"{config.id}.coeffs.csv")
        series.write_csv(path)
        writer.register(path)
        writer.register(path + ".json")
        return

    if kind in ("sweep", "fit"):
        series = family.series(config.pmax + 1, config.coeff_ctx())
        for x in config.x:
            sweep = error_sweep(series, family.exact, float(x), config.pmax, eval_ctx,
                                target=f"{family.describe()} (mean of limits at jumps)")
            tag = f"{config.id}.x{float(x):+.7g}"
            csv_path = writer.path(f"{tag}.sweep.csv")
            sweep.write_csv(csv_path)
            writer.register(csv_path)
            payload = _fit_payload(sweep, window, config.expect)
            plot_path = writer.path(f"{tag}.plot.csv")
            _plot_data(sweep, payload, plot_path)
            writer.register(plot_path)
            fit_path = writer.path(f"{tag}.fit.json")
            envelope = dict(payload)
            envelope["sweep"] = sweep.metadata()
            with open(fit_path, "w") as fh:
                json.dump(envelope, fh, indent=1, sort_keys=True)
            writer.register(fit_path)
            writer.results[f"x={float(x):+.7g}"] = payload
        return

    if kind == "norm":
        series = family.series(config.pmax + config.options.get("tail_margin", 8 * config.pmax),
                               config.coeff_ctx())
        norm = config.options.get("norm", "L2")
        exact_sq = config.options.get("exact_norm_sq")
        if exact_sq is None:
            exact_sq = _exact_norm_sq(family, norm)
        sweep = norm_sweep(series, exact_sq, config.pmax, norm)
        path = writer.path(f"{config.id}.norm.csv")
        sweep.write_csv(path)
        writer.register(path)
        p, e = sweep.pvalues[9:], sweep.norm_error[9:]
        # a polynomial target has e_p = 0 exactly past its degree
        if np.count_nonzero(e > 0) < 2:
            raise FitUnreliable("fewer than two nonzero norm errors from p = 10 on; "
                                "no slope to fit")
        coef = np.polyfit(np.log(p[e > 0]), np.log(e[e > 0]), 1)
        writer.results["slope"] = float(coef[0])
        if config.expect.get("slope") is not None:
            writer.results["expected_slope"] = float(config.expect["slope"])
        return

    if kind == "gibbs":
        series = family.series(config.pmax + 1, config.coeff_ctx())
        pvalues = config.options.get("pvalues", [500, 707, 1000, 1414, 2000])
        report = gibbs_probe(series, family.exact, family.singular_point(), pvalues)
        path = writer.path(f"{config.id}.gibbs.json")
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        writer.register(path)
        writer.results["D"] = report.D
        writer.results["overshoots"] = list(map(float, report.magnitudes))
        return

    if kind == "growth":
        point = float(config.options["point"])
        side = int(config.options.get("side", 1))
        xi = config.options.get("xi", [1e-1, 1e-2, 1e-3, 1e-4])
        fixed_alpha = float(config.options["fixed_alpha"])
        fit = constant_growth(family, point, side, xi, fixed_alpha, pmax=config.pmax,
                              ctx=eval_ctx, pmax_ceiling=config.options.get("ceiling", 10000))
        path = writer.path(f"{config.id}.growth.json")
        with open(path, "w") as fh:
            json.dump(fit.to_dict(), fh, indent=1, sort_keys=True)
        writer.register(path)
        csv_path = writer.path(f"{config.id}.growth.csv")
        with open(csv_path, "w") as fh:
            fh.write("xi,C\n")
            for xi_v, c_v in zip(fit.xi_values, fit.C_values):
                fh.write(f"{float(xi_v)!r},{float(c_v)!r}\n")
        writer.register(csv_path)
        writer.results["exponent"] = fit.exponent
        if config.expect.get("exponent") is not None:
            writer.results["expected_exponent"] = float(config.expect["exponent"])
        return

    if kind == "bounds":
        if not isinstance(family, StepDerivativeFamily):
            raise ValueError("bound reports are implemented for the jump family")
        a = family.a
        f = bounds_mod.step_bv(a, (a - 1.0) / 2.0, (a + 1.0) / 2.0)
        series = family.series(config.pmax + 1, config.coeff_ctx())
        for x in config.x:
            report = bounds_mod.theorem1_bound_series(f, float(x), config.pmax)
            sweep = error_sweep(series, family.exact, float(x), config.pmax, eval_ctx)
            report.measured = sweep.abs_error[1:]
            path = writer.path(f"{config.id}.x{float(x):+.7g}.bounds.csv")
            report.write_csv(path)
            writer.register(path)
            writer.results[f"x={float(x):+.7g}"] = {
                "bound_constant": float(report.bound[-1] * report.pvalues[-1]),
                "max_ratio": float(np.max(report.ratio)),
            }
        return

    if kind == "fem":
        from .pfem import Mesh1D, assemble_and_solve, element_error_series

        n = int(config.options.get("n", 1))
        degree = int(config.options.get("degree", 10))
        a = float(config.params.get("a", 0.5))
        mesh = Mesh1D.uniform(n, degree)
        sol = assemble_and_solve(mesh, a, eval_ctx)
        path = writer.path(f"{config.id}.fem.csv")
        sol.write_csv(path)
        writer.register(path)
        writer.register(path + ".trace.csv")
        for x in config.x:
            sweep = element_error_series(sol, float(x), config.pmax)
            spath = writer.path(f"{config.id}.x{float(x):+.7g}.sweep.csv")
            sweep.write_csv(spath)
            writer.register(spath)
            payload = _fit_payload(sweep, window, config.expect)
            writer.results[f"x={float(x):+.7g}"] = payload
        return

    raise ValueError(f"unknown experiment kind {config.kind!r}")


class InfiniteNorm(ValueError):
    """The target is not square integrable, so it has no norm error to sweep."""


def _exact_norm_sq(family, norm: str) -> Optional[float]:
    """Squared target norm: closed forms for the power families, exact
    piecewise Gauss quadrature for the piecewise-polynomial ones, None where
    neither applies (the norm sweep then warns about truncation)."""
    from .legendre import gauss_rule

    if isinstance(family, (PowerAbsFamily, PowerShiftFamily)):
        beta = family.beta
        if norm.lower() == "energy":
            # the derivative beta |x|^(beta - 1) is square integrable only for beta > 1/2
            if beta != 0 and beta <= 0.5:
                raise InfiniteNorm(f"the derivative of {family.describe()} is not square "
                                   "integrable for beta <= 1/2")
            return None
        if beta <= -0.5:
            raise InfiniteNorm(f"{family.describe()} is not square integrable for beta <= -1/2")
        # int |x - a|^(2 beta) = ((1 - a)^(2 beta + 1) + (1 + a)^(2 beta + 1))/(2 beta + 1),
        # and |x + 1|^beta is the member a = -1
        a = family.a if isinstance(family, PowerAbsFamily) else -1.0
        e = 2 * beta + 1
        return ((1 - a) ** e + (1 + a) ** e) / e
    sing = family.singular_point()
    if sing is None:
        return None
    if norm.lower() == "energy" and not isinstance(family, StepDerivativeFamily):
        # the energy norm measures the derivative, which for the model
        # solution families is the unit-jump step at the same load point
        if not hasattr(family, "a"):
            return None
        fn = StepDerivativeFamily(a=family.a).exact
    else:
        fn = family.exact
    rule = gauss_rule(12, FLOAT64)
    try:
        lo_part = rule.integrate(lambda t: fn(t) ** 2, -1.0, sing)
        hi_part = rule.integrate(lambda t: fn(t) ** 2, sing, 1.0)
    except TypeError:
        return None
    return float(lo_part + hi_part)


def figure_config_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "configs")


def list_figure_configs() -> list:
    d = figure_config_dir()
    return sorted(f for f in os.listdir(d) if f.endswith(".json"))


def run_figures(outdir: str, only=None, jobs: int = 1) -> list:
    """Regenerate plot data for the shipped figure configs (deterministic order)."""
    names = list_figure_configs()
    if only:
        wanted = {w if w.endswith(".json") else w + ".json" for w in only}
        names = [n for n in names if n in wanted]
        missing = wanted - set(names)
        if missing:
            raise ValueError(f"unknown figure configs: {sorted(missing)}")
    configs = [ExperimentConfig.load(os.path.join(figure_config_dir(), n)) for n in names]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            manifests = list(pool.map(_run_one, [(c, outdir) for c in configs]))
    else:
        manifests = [_run_one((c, outdir)) for c in configs]
    return manifests


def _run_one(args):
    config, outdir = args
    return run_experiment(config, os.path.join(outdir, config.id))
