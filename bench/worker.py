"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass pays leglab's import
and starts with no state left by an earlier pass.  It imports leglab from
the checkout's ``src`` directory, builds the operations, runs them back to
back, and writes a JSON report to ``--out``:

* ``ready``: ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all
  processes) just before the first operation; run.py subtracts its own
  reading taken before the process started to get the set-up time;
* ``op_seconds``: the duration of each operation;
* ``records``: per operation, what the correctness check compares, or an
  error string;
* ``maxrss_kb``: ``ru_maxrss`` of this process;
* ``layers``: per-layer metrics, in a traced pass only; the spans go to
  ``--trace-file``.

With ``--ops 0`` it stops after set-up, which run.py uses as a set-up probe.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=-1, help="run only the first N operations")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import leglab

    if not os.path.abspath(leglab.__file__).startswith(src + os.sep):
        print(f"leglab imported from {leglab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import ops_for

    ops = [op.prepare() for op in ops_for(args.workload, args.seed)]
    if args.ops >= 0:
        ops = ops[: args.ops]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}:seed={args.seed}:pid={os.getpid()}")
        tracer.install()
    ready = time.perf_counter()

    op_seconds, op_cpu_seconds, records = [], [], {}
    for i, op in enumerate(ops):
        outdir = os.path.join(args.workdir, f"op{i:03d}")
        c0 = time.process_time()
        t0 = time.perf_counter()
        err = None
        try:
            result = (tracer.wrap("op", op.run) if tracer else op.run)(outdir)
        except Exception:
            err = traceback.format_exc(limit=3)
        op_seconds.append(time.perf_counter() - t0)
        op_cpu_seconds.append(time.process_time() - c0)
        if err is None:
            try:
                rec = op.record(result, outdir)
            except (OSError, KeyError, ValueError):
                err = traceback.format_exc(limit=3)
        records[op.key] = {"points": list(op.points), **({"error": err} if err else rec)}
        shutil.rmtree(outdir, ignore_errors=True)

    report = {"ready": ready, "op_seconds": op_seconds, "op_cpu_seconds": op_cpu_seconds,
              "records": records,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer.spans, sum(op_seconds))
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
