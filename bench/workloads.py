"""Workload inputs, operations and the records the correctness check reads.

Every workload is closed loop: one caller in one process starts the next
operation when the previous one has returned.  ``ops_for(workload, seed)``
builds the operations; seed 0 gives the inputs documented in README.md and
any other seed draws the same number of points from the same admissible
sets.  Each admissible set only holds inputs that do the same work as the
seed-0 input they replace (same series sizes, same sweep lengths, same pmax
escalations), so wall time does not depend on the seed, and every input of
every set has an entry in reference.json.

leglab is imported lazily: the harness process never imports it, the worker
and make_reference.py do.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("figures_fast", "conjecture_grid", "powershift_p800")

# --- figures_fast -----------------------------------------------------------
# The 30 shipped figure configs other than fig12a-d run unchanged on every
# seed; the four configs below are the benchmark's own and the seed moves
# their evaluation points.  They are the only inputs that reach pfem,
# bounds and a big-float coeffs export.
SLOW_FIGURES = ("fig12a", "fig12b", "fig12c", "fig12d")
FEM1 = {"id": "bench_fem1", "kind": "fem", "options": {"n": 1, "degree": 2202},
        "params": {"a": 0.5}, "pmax": 2200, "precision": "f64"}
FEM1_X = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.7, 0.9)
FEM1_X0 = (-0.5, 0.1, 0.9)
FEM4 = {"id": "bench_fem4", "kind": "fem", "options": {"n": 4, "degree": 200},
        "params": {"a": 0.3}, "pmax": 1000, "precision": "big:128"}
FEM4_X = (0.05, 0.1, 0.2, 0.4, 0.45)  # inside the loaded element [0, 0.5]
FEM4_X0 = (0.1,)
BOUNDS = {"id": "bench_bounds", "kind": "bounds", "family": "step", "params": {"a": 0.5},
          "pmax": 2200, "precision": "f64"}
BOUNDS_X = (-0.9, -0.5, -0.3, 0.1, 0.3, 0.7, 0.9)
BOUNDS_X0 = (-0.5, 0.1, 0.9)
COEFFS = {"id": "bench_coeffs", "kind": "coeffs", "family": "absshift", "pmax": 2200,
          "precision": "big:256"}
COEFFS_A = (0.5, -0.5, 0.25, -0.25)

# --- conjecture_grid ----------------------------------------------------------
# Seed 0 is the CLI default grid: beta in {-5/6, -2/3, -1/2, -1/16, 0, 1/2, 1}
# times a in {0, 0.5}, all five clauses, pmax 2200.  One operation runs one
# grid point through conjecture_suite and yields its nine verdicts.  Each
# point is a slot; a seed draws one member of each slot's admissible set.
CONJ_PMAX = 2200
CONJ_BETAS = (-5.0 / 6.0, -2.0 / 3.0, -0.5, -1.0 / 16.0, 0.0, 0.5, 1.0)
CONJ_AS = (0.0, 0.5)
_NEAR = (0.0, -0.02, -0.01, 0.01, 0.02)


def _slot(beta0, dbetas, avals):
    return tuple((beta0 + d, a) for d in dbetas for a in avals)


# (beta0, a0) -> admissible (beta, a) points, seed-0 point first.  Found by
# searching beta0 + {0, +-0.01, +-0.02} times a few a near a0 and keeping the
# points whose verdicts pass and whose work signature (spans.work_signature)
# equals the seed-0 point's; make_reference.py checks both again.
CONJ_SLOTS = {
    (-5.0 / 6.0, 0.0): _slot(-5.0 / 6.0, _NEAR, (0.0,)),
    (-5.0 / 6.0, 0.5): _slot(-5.0 / 6.0, _NEAR, (0.5, 0.4, 0.6)),
    (-2.0 / 3.0, 0.0): _slot(-2.0 / 3.0, _NEAR, (0.0,)),
    (-2.0 / 3.0, 0.5): _slot(-2.0 / 3.0, _NEAR, (0.5, 0.4, 0.6)),
    (-0.5, 0.5): _slot(-0.5, (0.0,), (0.5, 0.4, 0.6)),
    (-1.0 / 16.0, 0.0): _slot(-1.0 / 16.0, _NEAR, (0.0,)),
    (-1.0 / 16.0, 0.5): _slot(-1.0 / 16.0, _NEAR, (0.5, 0.4, 0.6)),
    (0.0, 0.5): _slot(0.0, (0.0,), (0.5, 0.45, 0.55, 0.4, 0.6)),
    (0.5, 0.0): _slot(0.5, _NEAR, (0.0,)),
    (0.5, 0.5): _slot(0.5, _NEAR, (0.5,)),
    (1.0, 0.0): _slot(1.0, _NEAR, (0.0,)),
    (1.0, 0.5): _slot(1.0, _NEAR, (0.5, 0.45)),
}

# --- powershift_p800 ----------------------------------------------------------
# Shipped fig12a-d with pmax cut to 800.  The seed moves the interior
# evaluation point of fig12a, c and d; fig12b stays at its endpoint x = -1.
PS_PMAX = 800
PS_X = {"fig12a": (-0.1, -0.3, -0.2, 0.1, 0.2, 0.3),
        "fig12b": (-1.0,),
        "fig12c": (-0.1, -0.3, -0.2, 0.1, 0.2, 0.3),
        "fig12d": (-0.1, -0.3, -0.2, 0.1, 0.2, 0.3)}


@dataclass
class Op:
    """One operation: a figure config run or one conjecture grid point.

    ``key`` names the reference entry; ``points`` are the evaluation points
    this op selects from an entry that was recorded over a whole admissible
    set (empty when the entry belongs to this op alone).
    """

    key: str
    kind: str  # experiment | conjecture
    spec: dict
    points: tuple = ()
    config: object = field(default=None, repr=False)

    def prepare(self):
        """Turn the spec into leglab inputs; runs during set-up, not timed."""
        if self.kind == "experiment":
            from leglab import runner

            self.config = runner.ExperimentConfig.from_dict(self.spec)
        return self

    def run(self, outdir):
        import leglab.conjecture as conjecture
        import leglab.runner as runner

        if self.kind == "experiment":
            return runner.run_experiment(self.config, outdir)
        return conjecture.conjecture_suite([self.spec["beta"]], [self.spec["a"]],
                                           pmax=self.spec["pmax"])

    def record(self, result, outdir) -> dict:
        """What the correctness check compares: numbers, statuses, hashes."""
        if self.kind == "conjecture":
            return {"verdicts": [{"clause": v.clause, "status": v.status,
                                  "measured": v.measured} for v in result]}
        files = [o["path"] for o in result["outputs"]]
        manifest = os.path.join(outdir, f"{result['experiment']}.manifest.json")
        size = sum(os.path.getsize(os.path.join(outdir, f)) for f in files)
        numbers = flatten(result["results"])
        if self.spec["kind"] == "coeffs":
            # a coeffs manifest holds no numbers: check every 100th coefficient
            with open(os.path.join(outdir, f"{result['experiment']}.coeffs.csv")) as fh:
                rows = [line.split(",") for line in fh.read().split()[1:]]
            numbers.update({f"coeffs/{k}": float(c) for k, c in rows[::100] + rows[-1:]})
        return {"numbers": numbers,
                "sha256": {o["path"]: o["sha256"] for o in result["outputs"]},
                "errors": result["errors"],
                "bytes": size + os.path.getsize(manifest), "files": len(files) + 1}


def flatten(doc, prefix="") -> dict:
    """Numeric leaves of a results tree keyed by their path; strings dropped."""
    out = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, (list, tuple)):
        items = enumerate(doc)
    elif isinstance(doc, str):
        return out
    else:
        return {prefix: None if doc is None else float(doc)}
    for k, v in items:
        out.update(flatten(v, f"{prefix}/{k}" if prefix else str(k)))
    return out


def _shipped(name):
    import json

    from leglab.runner import figure_config_dir

    with open(os.path.join(figure_config_dir(), name + ".json")) as fh:
        return json.load(fh)


def _shipped_names():
    from leglab.runner import list_figure_configs

    return [n[:-5] for n in list_figure_configs()]


def _with_points(spec, points):
    return dict(spec, x=list(points))


def _conj_op(beta, a):
    return Op(f"conj:beta={beta!r}:a={a!r}:pmax={CONJ_PMAX}", "conjecture",
              {"beta": beta, "a": a, "pmax": CONJ_PMAX})


def ops_for(workload: str, seed: int) -> list:
    """The operations of one pass, in execution order."""
    rng = random.Random(seed)

    def draw(options, k, seed0):
        return tuple(seed0) if seed == 0 else tuple(rng.sample(options, k))

    if workload == "figures_fast":
        ops = [Op(n, "experiment", _shipped(n)) for n in _shipped_names()
               if n not in SLOW_FIGURES]
        for spec, options, seed0 in ((FEM1, FEM1_X, FEM1_X0), (FEM4, FEM4_X, FEM4_X0),
                                     (BOUNDS, BOUNDS_X, BOUNDS_X0)):
            pts = draw(options, len(seed0), seed0)
            ops.append(Op(spec["id"], "experiment", _with_points(spec, pts), pts))
        a = draw(COEFFS_A, 1, COEFFS_A[:1])[0]
        ops.append(Op(f"bench_coeffs:a={a!r}", "experiment",
                      dict(COEFFS, params={"a": a})))
        return ops
    if workload == "conjecture_grid":
        ops = []
        for beta0 in CONJ_BETAS:
            for a0 in CONJ_AS:
                options = CONJ_SLOTS.get((beta0, a0), ((beta0, a0),))
                beta, a = options[0] if seed == 0 else rng.choice(options)
                ops.append(_conj_op(beta, a))
        return ops
    if workload == "powershift_p800":
        ops = []
        for name, options in PS_X.items():
            pts = draw(options, 1, options[:1])
            ops.append(Op(f"{name}:pmax={PS_PMAX}", "experiment",
                          _with_points(dict(_shipped(name), pmax=PS_PMAX), pts), pts))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def universe(workload: str) -> list:
    """Ops that together cover every reference entry any seed can need.

    Point-set entries are recorded in one run over the whole admissible
    set; a sweep at one point does not depend on the other points of its
    config, so each op later selects its own points from that entry.
    """
    if workload == "figures_fast":
        ops = [Op(n, "experiment", _shipped(n)) for n in _shipped_names()
               if n not in SLOW_FIGURES]
        for spec, options in ((FEM1, FEM1_X), (FEM4, FEM4_X), (BOUNDS, BOUNDS_X)):
            ops.append(Op(spec["id"], "experiment", _with_points(spec, options), options))
        ops += [Op(f"bench_coeffs:a={a!r}", "experiment", dict(COEFFS, params={"a": a}))
                for a in COEFFS_A]
        return ops
    if workload == "conjecture_grid":
        return [_conj_op(beta, a) for beta0 in CONJ_BETAS for a0 in CONJ_AS
                for beta, a in CONJ_SLOTS.get((beta0, a0), ((beta0, a0),))]
    if workload == "powershift_p800":
        return [Op(f"{name}:pmax={PS_PMAX}", "experiment",
                   _with_points(dict(_shipped(name), pmax=PS_PMAX), options), options)
                for name, options in PS_X.items()]
    raise ValueError(f"unknown workload {workload!r}")
