"""Record bench/reference.json from the current leglab sources.

    python3 bench/make_reference.py

Runs every input that any seed of any workload can draw (see
``workloads.universe``) and stores what the correctness check compares:
the numeric results of each experiment manifest (rates, constants, slopes,
exponents, Gibbs D, bound constants), the sha256 of each output, and each
verdict's status and measured value.  It refuses to write a reference in
which an input fails: a manifest error, a ``fail`` or ``error`` verdict, a
powershift_p800 rate more than 0.01 from the paper's, or a conjecture slot
whose members do different work.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import git_commit  # noqa: E402
from spans import Tracer, work_signature  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
# numbers may move by this much before an operation fails; sha256 changes
# are reported separately and never fail an operation
TOLERANCE = {"rtol": 1e-6, "atol": 1e-12}
ALPHA_BAND = 0.01


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", "reference")
    entries, problems = {}, []
    for workload in workloads.WORKLOADS:
        signatures = {}
        for op in workloads.universe(workload):
            op.prepare()
            tracer = Tracer(op.key)
            tracer.install()
            try:
                result = tracer.wrap("op", op.run)(workdir)
            finally:
                tracer.uninstall()
            rec = op.record(result, workdir)
            shutil.rmtree(workdir, ignore_errors=True)
            if op.kind == "conjecture":
                entries[op.key] = rec
                problems += [f"{op.key}: verdict {v}" for v in rec["verdicts"]
                             if v["status"] in ("fail", "error")]
                signatures[(op.spec["beta"], op.spec["a"])] = work_signature(tracer.spans)
            else:
                entries[op.key] = {k: rec[k] for k in ("numbers", "sha256", "errors")}
                problems += [f"{op.key}: manifest error {e}" for e in rec["errors"]]
            if workload == "powershift_p800":
                for k, v in rec["numbers"].items():
                    if k.endswith("/alpha_dev") and not abs(v) <= ALPHA_BAND:
                        problems.append(f"{op.key}: {k} = {v}")
            print(f"{workload:16s} {op.key}", flush=True)
        for (beta0, a0), members in workloads.CONJ_SLOTS.items():
            for point in members[1:] if signatures else ():
                if signatures[point] != signatures[(beta0, a0)]:
                    problems.append(f"conjecture slot {(beta0, a0)}: {point} does other work")
        for seed in range(64):
            problems += [f"{workload} seed {seed}: no entry {op.key}"
                         for op in workloads.ops_for(workload, seed) if op.key not in entries]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump({"commit": git_commit(), "tolerance": TOLERANCE, "entries": entries},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
