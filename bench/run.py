"""leglab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload figures_fast --seed 0 --seconds 40 --trace 0

Workloads, metrics and their units are listed in BENCHMARK.json and
explained in bench/README.md.  The script starts one fresh interpreter per
pass (bench/worker.py), runs passes back to back for about ``--seconds``,
checks every operation of every pass against bench/reference.json, and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time a
  pass spends in its operations), ``setup_s`` (median time from starting
  the interpreter to the first operation) and ``peak_rss_mb`` (median
  ``ru_maxrss`` of a pass).
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics of the traced ones, plus ``trace.overhead_ratio``.

The line before the result holds host facts and ``failed_ratio``.  Both,
with every pass's figures, also go to ``.bench_out/`` in the checkout;
scratch output goes to ``.bench_work/``.  Only the benchmark's own
processes are measured: nothing is pinned, no cache is dropped and
nothing machine-wide is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_record, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170


def units(kind):
    """Metric name -> unit, as BENCHMARK.json lists them for kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args, index, trace, ops):
    """Start one worker, wait for it, return its report and set-up time."""
    workdir = os.path.join(ROOT, ".bench_work", f"pass{index}")
    out = os.path.join(ROOT, ".bench_work", f"pass{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--ops", str(ops),
           "--out", out, "--workdir", workdir]
    if trace:
        cmd += ["--trace-file", os.path.join(ROOT, ".bench_out",
                                             f"trace-{args.workload}-seed{args.seed}.json")]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          timeout=PASS_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    with open(out) as fh:
        report = json.load(fh)
    os.remove(out)
    shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = report["ready"] - start
    report["elapsed"] = elapsed
    report["trace"] = trace
    return report


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def host_facts():
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "commit": git_commit()}


def pass_time(passes):
    """Median over passes of the time a pass spends in its operations."""
    return statistics.median(sum(p["op_seconds"]) for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="leglab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=-1,
                    help="run only the first N operations of each pass (smoke tests)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)
    if args.ops == 0:
        ap.error("--ops must be positive, or -1 for every operation")

    if not os.path.isfile(os.path.join(ROOT, "src", "leglab", "__init__.py")):
        print(f"no leglab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    reference = load_reference(args.reference)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)

    passes = []
    t0 = time.perf_counter()
    # start a pass only while it is expected to end within --seconds, so a
    # run lasts about --seconds whatever the pass length; a traced run needs
    # one pass of each kind, any run needs one pass
    while not passes or (args.trace and len(passes) < 2) or (
            time.perf_counter() - t0 + statistics.median(p["elapsed"] for p in passes)
            <= args.seconds):
        trace = args.trace and len(passes) % 2 == 1
        passes.append(run_pass(args, len(passes), int(trace), args.ops))
    setup = [p["setup_s"] for p in passes if not p["trace"]]
    while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_pass(args, len(passes) + len(setup), 0, 0)["setup_s"])

    attempted = failed = 0
    mismatches, problems = [], []
    for p in passes:
        m = 0
        for key, rec in p["records"].items():
            res = check_record(rec, reference["entries"].get(key), reference["tolerance"])
            attempted += res["attempted"]
            failed += res["failed"]
            m += res["hash_mismatch"]
            problems += [f"{key}: {msg}" for msg in res["problems"]]
        mismatches.append(m)
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)

    plain = [p for p in passes if not p["trace"]]
    walls = [sum(p["op_seconds"]) for p in plain]
    if args.trace:
        traced = [p for p in passes if p["trace"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["runner.bytes_written"] = sum(r.get("bytes", 0)
                                             for r in traced[0]["records"].values())
        layers["runner.files_written"] = sum(r.get("files", 0)
                                             for r in traced[0]["records"].values())
        layers["runner.hash_mismatch"] = max(mismatches)
        layers["trace.overhead_ratio"] = pass_time(traced) / pass_time(plain) - 1
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units("per_layer").items()}
    else:
        values = {"wall_s": pass_time(plain), "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units("end_to_end").items()}

    facts = {"host": host_facts(), "workload": args.workload, "seed": args.seed,
             "passes": len(passes), "pass_wall_s": walls,
             "pass_cpu_s": [sum(p["op_cpu_seconds"]) for p in plain], "setup_samples_s": setup,
             "hash_mismatch": max(mismatches), "failed_ratio": failed / attempted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(ROOT, ".bench_out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**facts, **result}, fh, indent=1)
    shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
