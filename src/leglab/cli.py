"""Command line interface.

Verbs: coeffs, sweep, fit, gibbs, bounds, fem, norm, growth, conjecture,
figures.  Every verb accepts --config pointing at a JSON experiment file;
inline flags assemble the same document.  Exit status is 1 when a
conjecture clause fails outright (preasymptotic entries do not fail) and 2
when a run records an error in its manifest, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import ExperimentConfig, run_experiment, run_figures


def _common(parser: argparse.ArgumentParser, kind: str) -> None:
    parser.add_argument("--config", help="JSON experiment file (overrides inline flags)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--pmax", type=int, default=2200)
    if kind == "conjecture":
        # the suite evaluates in float64; its grid points can run in parallel
        parser.add_argument("--jobs", type=int, default=1)
    else:
        parser.add_argument("--precision", default="f64", help="f64 | big:<bits> | exact")
    if kind in ("coeffs", "sweep", "fit", "norm", "gibbs", "bounds", "growth", "fem"):
        parser.add_argument("--family", default="step",
                            help="step | absshift | constrained | powerabs | powershift | spec")
        parser.add_argument("--a", type=float,
                            help="jump or singular point (default 0.5; 0 for powerabs with --beta)")
        parser.add_argument("--beta", type=float)
        parser.add_argument("--coeff-precision", dest="coeff_precision")


def _build_config(args, kind: str) -> ExperimentConfig:
    if args.config:
        # the config document owns the run; the verb is just the entry point
        return ExperimentConfig.load(args.config)
    params = {}
    if getattr(args, "beta", None) is not None:
        params["beta"] = args.beta
    a = getattr(args, "a", None)
    if a is not None or "beta" not in params:
        params["a"] = 0.5 if a is None else a
    options = {}
    if kind == "norm":
        options["norm"] = args.norm
    if kind == "gibbs":
        options["pvalues"] = args.pvalues
    if kind == "growth":
        options.update({"point": args.point, "side": args.side,
                        "xi": args.xi, "fixed_alpha": args.fixed_alpha})
    if kind == "fem":
        options.update({"n": args.n, "degree": args.degree})
    return ExperimentConfig(
        id=getattr(args, "id", None) or kind,
        kind="sweep" if kind == "fit" else kind,
        family=getattr(args, "family", "step"),
        params=params,
        x=[float(t) for t in getattr(args, "x", []) or []],
        pmax=args.pmax,
        precision=args.precision,
        coeff_precision=getattr(args, "coeff_precision", None),
        window=[int(w) for w in args.window] if getattr(args, "window", None) else None,
        options=options,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="leglab",
                                     description="Legendre expansion and 1D p-FEM convergence laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("coeffs", help="generate and export expansion coefficients")
    _common(p, "coeffs")
    p.add_argument("--id", default="coeffs")

    p = sub.add_parser("sweep", help="pointwise error sweeps with envelope fits")
    _common(p, "sweep")
    p.add_argument("--x", nargs="+", required=False, default=[])
    p.add_argument("--window", nargs=2)
    p.add_argument("--id", default="sweep")

    p = sub.add_parser("fit", help="refit a stored sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--window", nargs=2, type=int)
    p.add_argument("--lower", action="store_true", help="fit the lower envelope")

    p = sub.add_parser("norm", help="Parseval norm sweeps")
    _common(p, "norm")
    p.add_argument("--norm", default="energy", choices=["l2", "L2", "energy", "Energy"])
    p.add_argument("--id", default="norm")

    p = sub.add_parser("gibbs", help="overshoot location/magnitude probe")
    _common(p, "gibbs")
    p.add_argument("--pvalues", nargs="+", type=int, default=[500, 707, 1000, 1414, 2000])
    p.add_argument("--id", default="gibbs")

    p = sub.add_parser("bounds", help="variation-bound reports against measured error")
    _common(p, "bounds")
    p.add_argument("--x", nargs="+", required=True)
    p.add_argument("--id", default="bounds")

    p = sub.add_parser("fem", help="p-version FEM solve and element error sweeps")
    _common(p, "fem")
    p.add_argument("--n", type=int, default=1, help="number of mesh elements")
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--x", nargs="+", default=[])
    p.add_argument("--id", default="fem")

    p = sub.add_parser("growth", help="envelope-constant growth toward a point")
    _common(p, "growth")
    p.add_argument("--point", type=float, required=True)
    p.add_argument("--side", type=int, default=1, choices=[-1, 1])
    p.add_argument("--xi", nargs="+", type=float, default=[1e-1, 1e-2, 1e-3, 1e-4])
    p.add_argument("--fixed-alpha", dest="fixed_alpha", type=float, required=True)
    p.add_argument("--id", default="growth")

    p = sub.add_parser("conjecture", help="run the five-clause verification suite")
    _common(p, "conjecture")
    p.add_argument("--beta-grid", nargs="+", type=float,
                   default=[-5.0 / 6.0, -2.0 / 3.0, -0.5, -1.0 / 16.0, 0.0, 0.5, 1.0])
    p.add_argument("--a-grid", nargs="+", type=float, default=[0.0, 0.5])
    p.add_argument("--clauses", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    p.add_argument("--powershift-betas", nargs="+", type=float, default=[])
    p.add_argument("--rate-tol", type=float, default=0.05)
    p.add_argument("--growth-tol", type=float, default=0.10)
    p.add_argument("--id", default="conjecture")

    p = sub.add_parser("figures", help="regenerate plot data for the shipped figure configs")
    p.add_argument("--only", nargs="+", help="subset of config names (e.g. fig01a)")
    p.add_argument("--out", default="out")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--list", action="store_true", help="list available figure configs")

    args = parser.parse_args(argv)

    if args.verb == "figures":
        from .runner import list_figure_configs

        if args.list:
            for name in list_figure_configs():
                print(name[:-5])
            return 0
        manifests = run_figures(args.out, only=args.only, jobs=args.jobs)
        for m in manifests:
            errs = f"  errors={len(m['errors'])}" if m["errors"] else ""
            print(f"{m['experiment']}: {len(m['outputs'])} outputs{errs}")
        return 2 if any(m["errors"] for m in manifests) else 0

    if args.verb == "fit":
        return _refit(args)

    if args.verb == "conjecture":
        if args.config:
            cfg = ExperimentConfig.load(args.config)
        else:
            tol = {"rate": args.rate_tol, "growth": args.growth_tol}
            cfg = ExperimentConfig(id=args.id, kind="conjecture", pmax=args.pmax,
                                   options={"beta_grid": args.beta_grid, "a_grid": args.a_grid,
                                            "clauses": args.clauses,
                                            "powershift_betas": args.powershift_betas,
                                            "tolerances": tol, "jobs": args.jobs})
        try:
            manifest = run_experiment(cfg, args.out)
        except ValueError as exc:
            parser.error(str(exc))  # a grid the suite rejects: exit status 2
        print(manifest["results"].get("summary", ""))
        counts = manifest["results"].get("verdicts", {})
        print(f"pass={counts.get('pass', 0)} fail={counts.get('fail', 0)} "
              f"preasymptotic={counts.get('preasymptotic', 0)} error={counts.get('error', 0)}")
        if counts.get("fail", 0):
            return 1
        return 2 if counts.get("error", 0) else 0

    cfg = _build_config(args, args.verb)
    manifest = run_experiment(cfg, args.out)
    print(json.dumps(manifest["results"], indent=1, sort_keys=True, default=str))
    if manifest["errors"]:
        print("errors:", json.dumps(manifest["errors"]), file=sys.stderr)
        return 2
    return 0


def _refit(args) -> int:
    import numpy as np

    from .ratefit import FitUnreliable, fit_lower_bound, fit_rate
    from .series_eval import ErrorSweep

    data = np.loadtxt(args.sweep_csv, delimiter=",", skiprows=1)
    sweep = ErrorSweep(0.0, data[:, 0].astype(int), data[:, 1], "refit", args.sweep_csv)
    window = tuple(args.window) if args.window else None
    try:
        fit = fit_lower_bound(sweep, window) if args.lower else fit_rate(sweep, window)
        print(json.dumps(fit.to_dict(), indent=1, sort_keys=True))
        return 0
    except FitUnreliable as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
