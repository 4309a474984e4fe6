"""Command line interface.

Verbs: coeffs, sweep, fit, gibbs, bounds, fem, norm, growth, conjecture,
figures.  Every run verb accepts --config pointing at a JSON experiment
file; otherwise the flags given assemble the same document, and a flag left
out takes the runner's default.  Exit status is 1 when a conjecture cell
fails outright (preasymptotic entries do not fail), and 2 when a run
records an error in its manifest, a conjecture cell cannot certify its
precision, or a run rejects its input (an unknown option or family
parameter, a missing required option, a config field the kind does not
read, a config value of another JSON type than its default, a family
parameter or expect value that is not a number, a precision spec other
than f64, big and big:<bits>, or a value or point list the kind cannot
run), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import KINDS, ExperimentConfig, read_sweep, run_experiment, run_figures


def _common(parser: argparse.ArgumentParser, kind: str) -> None:
    # no run flag has an argparse default: a flag left out takes the default
    # of runner.ExperimentConfig, runner.KINDS or the family; a config-field
    # flag is offered only where the kind reads that field
    reads = KINDS[kind].reads
    parser.add_argument("--config", help="JSON experiment file (no run flag may be added)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--id")
    parser.add_argument("--pmax", type=int)
    if "precision" in reads:
        parser.add_argument("--precision", help="f64 | big (big:256) | big:<bits>")
    if "family" in reads:
        parser.add_argument("--family",
                            help="step | absshift | constrained | powerabs | powershift | spec")
    if "params" in reads:
        parser.add_argument("--a", type=float, help="jump or singular point")
        parser.add_argument("--beta", type=float)
    if "coeff_precision" in reads:
        parser.add_argument("--coeff-precision", dest="coeff_precision")


def _build_config(args) -> ExperimentConfig:
    """The config file, or the flags the user set copied by dest name: config
    fields stay on top, --a and --beta go to params, and every other flag to
    options."""
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("verb", "config", "out")}
    if args.config:
        if given:
            raise ValueError(f"--config holds the whole run; drop {sorted(given)}")
        return ExperimentConfig.load(args.config)
    doc = {"id": args.verb, "kind": args.verb, "params": {}, "options": {}}
    for key, value in given.items():
        if key in ("a", "beta"):
            doc["params"][key] = value
        elif key in ExperimentConfig.__dataclass_fields__:
            doc[key] = value
        else:
            doc["options"][key] = value
    return ExperimentConfig(**doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leglab",
                                     description="Legendre expansion and 1D p-FEM convergence laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("coeffs", help="generate and export expansion coefficients")
    _common(p, "coeffs")

    p = sub.add_parser("sweep", help="pointwise error sweeps with envelope fits")
    _common(p, "sweep")
    p.add_argument("--x", nargs="+", type=float)
    p.add_argument("--window", nargs=2, type=int)

    p = sub.add_parser("fit", help="refit a stored .sweep.npy file")
    p.add_argument("sweep_npy")
    p.add_argument("--window", nargs=2, type=int)
    p.add_argument("--lower", action="store_true", help="fit the lower envelope")

    p = sub.add_parser("norm", help="Parseval norm sweeps")
    _common(p, "norm")
    p.add_argument("--norm", choices=["l2", "L2", "energy", "Energy"])

    p = sub.add_parser("gibbs", help="overshoot location/magnitude probe")
    _common(p, "gibbs")
    p.add_argument("--pvalues", nargs="+", type=int)

    p = sub.add_parser("bounds", help="variation-bound reports against measured error")
    _common(p, "bounds")
    p.add_argument("--x", nargs="+", type=float, required=True)

    p = sub.add_parser("fem", help="p-version FEM solve and element error sweeps")
    _common(p, "fem")
    p.add_argument("--n", type=int, help="number of mesh elements")
    p.add_argument("--degree", type=int)
    p.add_argument("--x", nargs="+", type=float)
    p.add_argument("--window", nargs=2, type=int)

    p = sub.add_parser("growth", help="envelope-constant growth toward a point")
    _common(p, "growth")
    p.add_argument("--point", type=float)
    p.add_argument("--side", type=int, choices=[-1, 1])
    p.add_argument("--xi", nargs="+", type=float)
    p.add_argument("--fixed-alpha", dest="fixed_alpha", type=float)

    p = sub.add_parser("conjecture", help="run the five-clause verification suite")
    _common(p, "conjecture")
    p.add_argument("--beta-grid", nargs="+", type=float)
    p.add_argument("--a-grid", nargs="+", type=float)
    p.add_argument("--clauses", nargs="+", type=int)
    p.add_argument("--powershift-betas", nargs="+", type=float)

    p = sub.add_parser("figures", help="regenerate plot data for the shipped figure configs")
    p.add_argument("--only", nargs="+", help="subset of config names (e.g. fig01a)")
    p.add_argument("--out", default="out")
    p.add_argument("--list", action="store_true", help="list available figure configs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verb == "figures":
        from .runner import list_figure_configs

        if args.list:
            for name in list_figure_configs():
                print(name[:-5])
            return 0
        try:
            manifests = run_figures(args.out, only=args.only)
        except ValueError as exc:
            parser.error(str(exc))
        for m in manifests:
            errs = f"  errors={len(m['errors'])}" if m["errors"] else ""
            print(f"{m['experiment']}: {len(m['outputs'])} outputs{errs}")
        return 2 if any(m["errors"] for m in manifests) else 0

    if args.verb == "fit":
        try:
            sweep = read_sweep(args.sweep_npy)
        except ValueError as exc:
            parser.error(str(exc))
        return _refit(sweep, args)

    try:
        manifest = run_experiment(_build_config(args), args.out)
    except ValueError as exc:
        parser.error(str(exc))  # input the run would not honour: exit status 2
    counts = manifest["results"].get("verdicts")
    if counts is not None:
        print(manifest["results"]["summary"])
        print(" ".join(f"{status}={n}" for status, n in counts.items()))
        if counts["fail"]:
            return 1
        return 2 if counts["error"] else 0
    print(json.dumps(manifest["results"], indent=1, sort_keys=True, default=str))
    if manifest["errors"]:
        print("errors:", json.dumps(manifest["errors"]), file=sys.stderr)
        return 2
    return 0


def _refit(sweep, args) -> int:
    from .ratefit import FitUnreliable, fit_lower_bound, fit_rate

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
