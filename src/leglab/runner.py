"""Config-driven experiment execution with manifested, reproducible outputs.

An experiment is one JSON document; a run writes CSV data files, each
error sweep and each bound table as an exact float64 ``.npy`` array
(``SWEEP_DTYPE``, ``BOUNDS_DTYPE``), JSON fit records, and a manifest
listing every output with its sha256.  Evaluation
order is fixed and all reductions are deterministic, so re-running a config
on the same build reproduces the output bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .bounds import theorem1_bound_series
from .coefficients import coefficient_text
from .conjecture import check_powershift_betas, conjecture_suite, powershift_suite, summarize
from .functions import (LoadPointFamily, PowerAbsFamily, SpecFamily, StepDerivativeFamily,
                        check_distinct, check_keys, check_type, family_from_config)
from .precision import PrecisionContext, PrecisionError, parse_precision
from .ratefit import (FitUnreliable, GridTooCoarse, constant_growth, fit_rate, gibbs_probe,
                      pinned_constant)
from .series_eval import ErrorSweep, error_sweep, norm_sweep


@dataclass
class ExperimentConfig:
    """Declarative description of one run; every field has a config-file key."""

    id: str
    kind: str  # a key of KINDS
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
        check_keys("config (run-specific settings belong under 'options')", doc,
                   cls.__dataclass_fields__, ("id", "kind"))
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def eval_ctx(self) -> PrecisionContext:
        return parse_precision(self.precision)

    def coeff_ctx(self) -> Optional[PrecisionContext]:
        return parse_precision(self.coeff_precision) if self.coeff_precision else None


def _cells(column) -> list:
    """CSV text of one column: ints with str, floats with repr, strings as given."""
    if isinstance(column, np.ndarray):
        return list(map(str if column.dtype.kind in "iu" else repr, column.tolist()))
    return [v if isinstance(v, str) else str(v) if isinstance(v, int) else repr(float(v))
            for v in column]


class ManifestWriter:
    """Single serialization point for output records."""

    def __init__(self, outdir: str, experiment_id: str):
        self.outdir = outdir
        self.experiment_id = experiment_id
        self.outputs = []
        self.results = {}
        self.errors = []

    def path(self, name: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        return os.path.join(self.outdir, name)

    def _write(self, name: str, pieces) -> None:
        """Write the bytes-like pieces in order, hashing them as they go."""
        digest = hashlib.sha256()
        with open(self.path(name), "wb") as fh:
            for data in pieces:
                fh.write(data)
                digest.update(data)
        self.outputs.append({"path": name, "sha256": digest.hexdigest()})

    def csv(self, name: str, header: str, columns, comments=()) -> None:
        """Write and register one CSV: a header, one row per index of the
        columns, then each comment row as '# ' and its cells."""
        def pieces():
            yield header + "\n"
            # a block of rows at a time, so a long sweep never holds all its cells
            for i in range(0, len(columns[0]), 1024):
                cells = [_cells(c[i:i + 1024]) for c in columns]
                yield "".join(",".join(row) + "\n" for row in zip(*cells))
            for row in comments:
                yield "# " + ",".join(_cells(row)) + "\n"

        self._write(name, (text.encode() for text in pieces()))

    def npy(self, name: str, array: np.ndarray) -> None:
        """Write and register one C-contiguous array with the bytes np.save
        gives it: the format 1.0 header, then the array's own buffer."""
        header = []
        np.lib.format.write_array_header_1_0(SimpleNamespace(write=header.append),
                                             np.lib.format.header_data_from_array_1_0(array))
        self._write(name, [*header, array.data])

    def json(self, name: str, doc) -> None:
        self._write(name, [json.dumps(doc, indent=1, sort_keys=True).encode()])

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


# a sweep file <tag>.sweep.npy holds one row (p, |error|) per order, exactly
SWEEP_DTYPE = np.dtype([("p", "<i8"), ("abs_error", "<f8")])
# a bounds file <tag>.bounds.npy holds one row per order p >= 2: the Theorem 1
# bound, the measured |error| and their ratio measured / bound, exactly
BOUNDS_DTYPE = np.dtype([("p", "<i8"), ("bound", "<f8"), ("measured", "<f8"),
                         ("ratio", "<f8")])


def _write_rows(writer, name: str, dtype: np.dtype, columns) -> None:
    """Write one .npy array of dtype whose fields, in order, are the columns."""
    rows = np.empty(len(columns[0]), dtype)
    for field_name, column in zip(dtype.names, columns):
        rows[field_name] = column
    writer.npy(name, rows)


def _write_sweep(writer, tag: str, sweep) -> None:
    _write_rows(writer, f"{tag}.sweep.npy", SWEEP_DTYPE, [sweep.pvalues, sweep.abs_error])


def read_sweep(path) -> ErrorSweep:
    """The ErrorSweep of a sweep file; raises ValueError, naming the format,
    for any file that is not a .npy array of SWEEP_DTYPE."""
    what = f"{path} is not a .sweep.npy file (a 1-d array with fields p <i8, abs_error <f8)"
    try:
        with open(path, "rb") as fh:
            rows = np.lib.format.read_array(fh, allow_pickle=False)
    except OSError as exc:
        raise ValueError(f"{what}: {exc.strerror or exc}") from None
    except ValueError:
        raise ValueError(what) from None
    if rows.dtype != SWEEP_DTYPE or rows.ndim != 1:
        raise ValueError(what)
    return ErrorSweep(0.0, rows["p"], rows["abs_error"], "refit", str(path))


def _fit_payload(sweep, config):
    window = tuple(config.window) if config.window else None
    expect = config.expect
    payload = {}
    try:
        fit = fit_rate(sweep, window)
        payload["fit"] = fit.to_dict()
    except FitUnreliable as exc:
        payload["fit"] = None
        payload["fit_error"] = str(exc)
        return payload
    if "alpha" in expect:
        alpha0 = float(expect["alpha"])
        payload["expected_alpha"] = alpha0
        payload["alpha_dev"] = fit.alpha - alpha0
        payload["C_pinned"] = pinned_constant(sweep, alpha0, window)
    if "C" in expect:
        payload["expected_C"] = float(expect["C"])
        ref = payload.get("C_pinned", payload["fit"]["C"])
        payload["C_ratio"] = ref / float(expect["C"])
    return payload


def _coeffs(config, opts, family, writer):
    series = family.series(config.pmax, config.eval_ctx())
    name = f"{config.id}.coeffs.csv"
    writer.csv(name, "k,coeff", [range(series.degree + 1), coefficient_text(series)])
    writer.json(name + ".json", series.metadata())


def _points(config, lo: float, hi: float, closed: bool = True, required: bool = True) -> list:
    """config.x as floats, each checked to lie in [lo, hi] (closed) or
    (lo, hi); raises ValueError naming the first point outside, two points
    whose output tags x{x:+.7g} coincide, or an empty list where a point is
    required."""
    if required and not config.x:
        raise ValueError(f"{config.kind} needs at least one point x")
    xs = [float(x) for x in config.x]
    tagged = {}
    for x in xs:
        if not (lo <= x <= hi if closed else lo < x < hi):
            span = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
            raise ValueError(f"{config.kind} point x = {x!r} lies outside {span}")
        tag = f"x{x:+.7g}"
        if tag in tagged:
            raise ValueError(f"{config.kind} points x = {tagged[tag]!r} and x = {x!r} share "
                             f"the output tag {tag}")
        tagged[tag] = x
    return xs


# plot.csv keeps one order per occupied bin floor(PLOT_BINS_PER_DECADE log10 p):
# the bin's largest error, the upper envelope that fit_rate reads
PLOT_BINS_PER_DECADE = 100


def _plot_rows(pvalues, abs_error) -> np.ndarray:
    """Indices of the plotted orders, increasing: in each occupied bin, the
    first order with the bin's largest nonzero error."""
    keep = np.flatnonzero(abs_error > 0)
    if not len(keep):
        return keep
    err = abs_error[keep]
    # p increases, so each bin is one run of keep; starts holds the run starts
    bins = np.floor(PLOT_BINS_PER_DECADE * np.log10(pvalues[keep]))
    starts = np.flatnonzero(np.diff(bins, prepend=-np.inf))
    peak = np.repeat(np.maximum.reduceat(err, starts), np.diff(starts, append=len(err)))
    # the least index of each run at its peak: the others read as len(err)
    at_peak = np.where(err == peak, np.arange(len(err)), len(err))
    return keep[np.minimum.reduceat(at_peak, starts)]


def _sweep(config, opts, family, writer):
    xs = _points(config, -1.0, 1.0)
    series = family.series(config.pmax + 1, config.coeff_ctx())
    for x in xs:
        sweep = error_sweep(series, family.exact, x, config.pmax, config.eval_ctx(),
                            target=f"{family.describe()} (mean of limits at jumps)")
        tag = f"{config.id}.x{x:+.7g}"
        _write_sweep(writer, tag, sweep)
        payload = _fit_payload(sweep, config)
        # (log10 p, log10 err) pairs of the plotted orders plus the fitted line's endpoints
        rows = _plot_rows(sweep.pvalues, sweep.abs_error)
        ends = []
        fit = payload.get("fit")
        if fit:
            ends = [("fit_line", np.log10(p), np.log10(fit["C"] * p ** -fit["alpha"]))
                    for p in fit["window"]]
        writer.csv(f"{tag}.plot.csv", "log10_p,log10_abs_error",
                   [np.log10(sweep.pvalues[rows]), np.log10(sweep.abs_error[rows])], ends)
        writer.json(f"{tag}.fit.json", dict(payload, sweep=sweep.metadata()))
        writer.results[f"x={x:+.7g}"] = payload


def _norm(config, opts, family, writer):
    # 8 pmax coefficients beyond pmax carry the tail
    series = family.series(9 * config.pmax, config.coeff_ctx())
    sweep = norm_sweep(series, _exact_norm_sq(family, opts["norm"]), config.pmax, opts["norm"])
    writer.csv(f"{config.id}.norm.csv", f"p,{sweep.norm.lower()}_error",
               [sweep.pvalues, sweep.norm_error])
    p, e = sweep.pvalues[9:], sweep.norm_error[9:]
    # a polynomial target has e_p = 0 exactly past its degree
    if np.count_nonzero(e > 0) < 2:
        raise FitUnreliable("fewer than two nonzero norm errors from p = 10 on; "
                            "no slope to fit")
    coef = np.polyfit(np.log(p[e > 0]), np.log(e[e > 0]), 1)
    writer.results["slope"] = float(coef[0])
    if "slope" in config.expect:
        writer.results["expected_slope"] = float(config.expect["slope"])


def _gibbs(config, opts, family, writer):
    pvalues = opts["pvalues"]
    if not pvalues or not all(1 <= p <= config.pmax for p in pvalues):
        raise ValueError(f"gibbs pvalues {list(pvalues)} must be non-empty and lie in "
                         f"[1, pmax = {config.pmax}]")
    check_distinct("gibbs pvalues", pvalues)
    if family.singular_point() is None:
        raise ValueError(f"{family.describe()} has no interior singular point to probe")
    series = family.series(config.pmax + 1, config.coeff_ctx())
    report = gibbs_probe(series, family.exact, family.singular_point(), pvalues)
    writer.json(f"{config.id}.gibbs.json", report.to_dict())
    writer.results["D"] = report.D
    writer.results["overshoots"] = list(map(float, report.magnitudes))


def _growth(config, opts, family, writer):
    # the probes are x = point + side * xi, recorded as xi
    fit = constant_growth(family, float(opts["point"]), opts["side"], opts["xi"],
                          float(opts["fixed_alpha"]), pmax=config.pmax, ctx=config.eval_ctx())
    writer.json(f"{config.id}.growth.json", fit.to_dict())
    writer.csv(f"{config.id}.growth.csv", "xi,C", [fit.xi, fit.C])
    writer.results["exponent"] = fit.exponent
    if "exponent" in config.expect:
        writer.results["expected_exponent"] = float(config.expect["exponent"])


def _bounds(config, opts, family, writer):
    if not isinstance(family, StepDerivativeFamily):
        raise ValueError("bound reports are implemented for the jump family")
    # the Theorem 1 bound holds strictly inside the interval
    xs = _points(config, -1.0, 1.0, closed=False)
    series = family.series(config.pmax + 1, config.coeff_ctx())
    for x in xs:
        report = theorem1_bound_series(family.a, x, config.pmax)
        sweep = error_sweep(series, family.exact, x, config.pmax, config.eval_ctx())
        report.measured = sweep.abs_error[1:]
        _write_rows(writer, f"{config.id}.x{x:+.7g}.bounds.npy", BOUNDS_DTYPE,
                    [report.pvalues, report.bound, report.measured, report.ratio])
        writer.results[f"x={x:+.7g}"] = {
            "bound_constant": float(report.bound[-1] * report.pvalues[-1]),
            "max_ratio": float(np.max(report.ratio)),
        }


def _fem(config, opts, family, writer):
    from .pfem import Mesh1D, assemble_and_solve, element_error_series

    if not isinstance(family, LoadPointFamily):
        raise ValueError("the FEM model problem takes its load point from the step, "
                         "absshift or constrained family")
    mesh = Mesh1D.uniform(int(opts["n"]), int(opts["degree"]))
    # the element sweep runs on the element that holds the load point
    s = mesh.element_of(family.a)
    xs = _points(config, mesh.nodes[s], mesh.nodes[s + 1], required=False)
    sol = assemble_and_solve(mesh, family.a, config.eval_ctx())
    # per element: k = 0, 1 the nodal values, k >= 2 the internal modes
    rows = [(e, k, c) for e in range(mesh.n_elements)
            for k, c in enumerate([sol.nodal[e], sol.nodal[e + 1], *sol.internal[e]])]
    writer.csv(f"{config.id}.fem.csv", "element,k,coeff", list(zip(*rows)))
    writer.csv(f"{config.id}.fem.csv.trace.csv", "x,u", sol.trace())
    for x in xs:
        sweep = element_error_series(sol, x, config.pmax)
        _write_sweep(writer, f"{config.id}.x{x:+.7g}", sweep)
        writer.results[f"x={x:+.7g}"] = _fit_payload(sweep, config)


def _conjecture(config, opts, family, writer):
    # reject a bad powershift list before the grid spends its time
    check_powershift_betas(opts["powershift_betas"])
    verdicts = conjecture_suite(opts["beta_grid"], opts["a_grid"], pmax=config.pmax,
                                clauses=tuple(opts["clauses"]))
    if opts["powershift_betas"]:
        verdicts += powershift_suite(opts["powershift_betas"], pmax=config.pmax)
    writer.json(f"{config.id}.verdicts.json", [v.to_dict() for v in verdicts])
    writer.results["verdicts"] = {
        status: sum(v.status == status for v in verdicts)
        for status in ("pass", "fail", "preasymptotic", "error")}
    writer.results["summary"] = summarize(verdicts)


REQUIRED = object()  # marks an option without a default; its value is a number


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its handler, the ExperimentConfig fields it reads
    besides id, kind and options, the keys of config.expect it reads, its
    option defaults and the least pmax it runs; every kind also takes the
    free-text option "note"."""

    handler: Callable
    reads: tuple
    expect: tuple = ()
    options: dict = field(default_factory=dict)
    min_pmax: int = 1


FAMILY_FIELDS = ("family", "params", "pmax")

KINDS = {
    "coeffs": Kind(_coeffs, (*FAMILY_FIELDS, "precision")),
    "sweep": Kind(_sweep, (*FAMILY_FIELDS, "precision", "coeff_precision", "x", "window"),
                  expect=("alpha", "C")),
    "norm": Kind(_norm, (*FAMILY_FIELDS, "coeff_precision"), expect=("slope",),
                 options={"norm": "L2"}),
    "gibbs": Kind(_gibbs, (*FAMILY_FIELDS, "coeff_precision"),
                  options={"pvalues": (500, 707, 1000, 1414, 2000)}),
    "growth": Kind(_growth, (*FAMILY_FIELDS, "precision"), expect=("exponent",),
                   options={"point": REQUIRED, "side": 1, "xi": (1e-1, 1e-2, 1e-3, 1e-4),
                            "fixed_alpha": REQUIRED}),
    # the Theorem 1 series starts at p = 2
    "bounds": Kind(_bounds, (*FAMILY_FIELDS, "precision", "coeff_precision", "x"), min_pmax=2),
    "fem": Kind(_fem, (*FAMILY_FIELDS, "precision", "x", "window"), expect=("alpha", "C"),
                options={"n": 1, "degree": 10}),
    # the suite builds its own families and evaluates in float64
    "conjecture": Kind(_conjecture, ("pmax",), options={
        "beta_grid": (-5.0 / 6.0, -2.0 / 3.0, -0.5, -1.0 / 16.0, 0.0, 0.5, 1.0),
        "a_grid": (0.0, 0.5), "clauses": (1, 2, 3, 4, 5), "powershift_betas": ()}),
}


# for each config field whose default is None: a value of the JSON type it takes when set
OPTIONAL_FIELDS = {"coeff_precision": "", "window": (0, 0)}


def resolve(config: ExperimentConfig):
    """The kind's handler and its options, the config's over the defaults.

    Raises ValueError naming a config field or option whose value does not
    have the JSON type of its default (of OPTIONAL_FIELDS where the default
    is None; ``window`` is two ints), an unknown kind, a config field
    the kind does not read that is set off its default, a precision spec
    that does not parse, a pmax below the kind's least, an unknown expect
    key or one whose value is not a number, an unknown option, and every
    missing required option; config.options itself is left as given.
    """
    blank = ExperimentConfig("", "")
    for name in config.__dataclass_fields__:
        value = getattr(config, name)
        if value is not None or name not in OPTIONAL_FIELDS:
            check_type(f"config field {name!r}", value,
                       OPTIONAL_FIELDS.get(name, getattr(blank, name)))
    if config.window is not None and len(config.window) != 2:
        raise ValueError(f"config field 'window' must be two ints, not {config.window!r}")
    if config.kind not in KINDS:
        raise ValueError(f"unknown experiment kind {config.kind!r}; choose from {sorted(KINDS)}")
    kind = KINDS[config.kind]
    reads = {"id", "kind", "options", *kind.reads, *(("expect",) if kind.expect else ())}
    unread = sorted(name for name in config.__dataclass_fields__
                    if name not in reads and getattr(config, name) != getattr(blank, name))
    if unread:
        raise ValueError(f"{config.kind} does not read the config fields {unread}")
    config.eval_ctx(), config.coeff_ctx()  # raises on a precision spec that does not parse
    if config.pmax < kind.min_pmax:
        raise ValueError(f"{config.kind} needs pmax >= {kind.min_pmax}, not {config.pmax}")
    check_keys(f"{config.kind} expect", config.expect, kind.expect)
    for name, value in config.expect.items():
        check_type(f"{config.kind} expect {name!r}", value, 0.0)
    check_keys(f"{config.kind} options", config.options, [*kind.options, "note"],
               [k for k, v in kind.options.items() if v is REQUIRED])
    for name, value in config.options.items():
        default = kind.options.get(name, "")  # "note" is free text
        check_type(f"{config.kind} option {name!r}", value,
                   0.0 if default is REQUIRED else default)
    return kind.handler, {**kind.options, **config.options}


def run_experiment(config: ExperimentConfig, outdir: str) -> dict:
    """Execute one experiment; returns the manifest dictionary.

    Input the run would not honour raises ValueError before any output."""
    handler, opts = resolve(config)
    # conjecture reads no family; for it this is the default step family
    family = family_from_config(config.family, config.params)
    if config.kind in ("norm", "gibbs") and not family.prefix_stable:
        raise ValueError(f"{config.kind} reads coefficient prefixes, and the order-p "
                         f"approximations of {family.describe()} are not prefixes")
    writer = ManifestWriter(outdir, config.id)
    try:
        handler(config, opts, family, writer)
    except (PrecisionError, FitUnreliable, InfiniteNorm, GridTooCoarse) as exc:
        # graceful degradation: record a machine-readable error, never silent bad data
        writer.record_error(config.kind, exc)
    doc = {k: getattr(config, k) for k in config.__dataclass_fields__}
    return writer.finish(doc)


class InfiniteNorm(ValueError):
    """The target is not square integrable, so it has no norm error to sweep."""


def _exact_norm_sq(family, norm: str) -> Optional[float]:
    """Squared target norm: closed forms for the power and load-point
    families, tanh-sinh quadrature between the singular points of a spec.
    None (the norm sweep then warns about truncation) only for a spec's
    energy norm, a spec whose quadrature misses its error bound, and a
    power family's energy norm."""
    if isinstance(family, SpecFamily):
        return _spec_norm_sq(family) if norm.lower() == "l2" else None
    if isinstance(family, PowerAbsFamily):
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
        a, e = family.a, 2 * beta + 1
        return ((1 - a) ** e + (1 + a) ** e) / e
    # the step (the model solution's derivative, so every load-point family's
    # energy norm) has int s^2 = (1 - a^2)/2, the model solution int u^2 =
    # (1 - a^2)^2/6; with a = n/d, each is one correctly rounded int division
    n, d = float(family.a).as_integer_ratio()
    w, dd = d * d - n * n, d * d
    if isinstance(family, StepDerivativeFamily) or norm.lower() == "energy":
        return w / (2 * dd)
    return w * w / (6 * dd * dd)


def _spec_norm_sq(family) -> Optional[float]:
    """int f^2 over [-1, 1] for a spec target, by ``mpmath.quad`` (tanh-sinh)
    on each piece between consecutive singular points, where a Gauss rule
    would converge slowly; None when the quadrature's own error estimate
    exceeds 2^-56 of the value (a strong singularity, e.g. exponent -0.4)."""
    import mpmath

    spec = family.spec
    if any(c != 0 and b <= -0.5 for c, _, b in spec.terms):
        raise InfiniteNorm(f"{family.describe()} is not square integrable: "
                           "an exponent is at most -1/2")
    pts = sorted({-1.0, 1.0, *spec.singular_points()})
    with mpmath.workprec(80):
        value, err = mpmath.quad(lambda t: spec.value(t) ** 2, pts, error=True)
        return float(value) if err <= abs(value) * 2.0 ** -56 else None


def figure_config_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "configs")


def list_figure_configs() -> list:
    d = figure_config_dir()
    return sorted(f for f in os.listdir(d) if f.endswith(".json"))


def run_figures(outdir: str, only=None) -> list:
    """Regenerate plot data for the shipped figure configs (deterministic order)."""
    names = list_figure_configs()
    if only:
        wanted = {w if w.endswith(".json") else w + ".json" for w in only}
        names = [n for n in names if n in wanted]
        missing = wanted - set(names)
        if missing:
            raise ValueError(f"unknown figure configs: {sorted(missing)}")
    configs = [ExperimentConfig.load(os.path.join(figure_config_dir(), n)) for n in names]
    return [run_experiment(c, os.path.join(outdir, c.id)) for c in configs]
