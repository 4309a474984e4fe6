"""Tests of the benchmark harness itself; run with ``python3 -m pytest bench/tests``.

Each run here is cut to the first operation of a pass (``--ops 1``) and a
zero-second run length, so the module takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, "--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", str(trace), "--ops", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def _corrupt(tmp_path, mutate):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ref = json.load(fh)
    mutate(ref["entries"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return str(path)


def test_corrupted_number_fails_the_check(tmp_path):
    def mutate(entries):
        entries["fig01a"]["numbers"]["x=-1/fit/alpha"] *= 1.01

    res = result(run("figures_fast", 0, "--reference", _corrupt(tmp_path, mutate)))
    assert not res["correct"] and res["failed"] >= 1


def test_corrupted_verdict_fails_the_check(tmp_path):
    def mutate(entries):
        # the first grid point of seed 0
        entries[f"conj:beta={-5.0 / 6.0!r}:a=0.0:pmax=2200"]["verdicts"][0]["status"] = "fail"

    res = result(run("conjecture_grid", 0, "--reference", _corrupt(tmp_path, mutate)))
    assert not res["correct"] and res["failed"] >= 1


def test_hash_difference_is_counted_not_failed(tmp_path):
    def mutate(entries):
        sha = entries["fig01a"]["sha256"]
        sha[next(iter(sha))] = "0" * 64

    res = result(run("figures_fast", 1, "--reference", _corrupt(tmp_path, mutate)))
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["runner.hash_mismatch"]["value"] >= 1


def test_coefficient_counts_repeat_between_traced_runs():
    first, second = (result(run("conjecture_grid", 1))["metrics"] for _ in range(2))
    for name in ("coefficients.calls", "coefficients.distinct"):
        assert first[name]["value"] == second[name]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("figures_fast", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
