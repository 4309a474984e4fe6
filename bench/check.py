"""Correctness check of one operation's record against reference.json.

An operation fails when it raised, when its manifest lists an error, when
a verdict is ``fail`` or ``error`` or differs in status from the reference,
or when a number leaves the reference tolerance.  A conjecture operation is
one verdict per entry, so it counts as many attempts as it has verdicts.
sha256 differences are counted as hash mismatches and are not failures:
a change that moves only the last bits of an output shows up without
failing.
"""

from __future__ import annotations

import json
import math
import re

_POINT_FILE = re.compile(r"\.x[+-]")


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def close(got, want, rtol, atol) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def _select(entry, points):
    """The part of a point-set entry that belongs to the given points."""
    if not points:
        return entry["numbers"], entry["sha256"]
    tags = {f"x={float(x):+.7g}" for x in points}
    files = {f".x{float(x):+.7g}." for x in points}
    numbers = {k: v for k, v in entry["numbers"].items()
               if not k.startswith("x=") or k.split("/")[0] in tags}
    sha = {k: v for k, v in entry["sha256"].items()
           if not _POINT_FILE.search(k) or any(f in k for f in files)}
    return numbers, sha


def check_record(record, entry, tolerance) -> dict:
    """Returns attempted, failed, hash_mismatch and a list of problems."""
    rtol, atol = tolerance["rtol"], tolerance["atol"]
    if entry is None:
        return {"attempted": 1, "failed": 1, "hash_mismatch": 0,
                "problems": ["no reference entry"]}
    if "verdicts" in entry:
        want = entry["verdicts"]
        if "error" in record:
            return {"attempted": len(want), "failed": len(want), "hash_mismatch": 0,
                    "problems": [record["error"]]}
        got = record["verdicts"]
        problems = []
        if len(got) != len(want):
            problems.append(f"{len(got)} verdicts, reference has {len(want)}")
        failed = abs(len(got) - len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            bad = (g["status"] in ("fail", "error") or g["status"] != w["status"]
                   or g["clause"] != w["clause"]
                   or not close(g["measured"], w["measured"], rtol, atol))
            if bad:
                failed += 1
                problems.append(f"verdict {i}: got {g}, reference {w}")
        return {"attempted": max(len(got), len(want)), "failed": failed,
                "hash_mismatch": 0, "problems": problems}

    if "error" in record:
        return {"attempted": 1, "failed": 1, "hash_mismatch": 0, "problems": [record["error"]]}
    numbers, sha = _select(entry, record["points"])
    problems = [f"manifest error: {e}" for e in record["errors"]]
    if set(record["numbers"]) != set(numbers):
        problems.append(f"result keys differ: {sorted(set(record['numbers']) ^ set(numbers))}")
    for k, v in record["numbers"].items():
        if k in numbers and not close(v, numbers[k], rtol, atol):
            problems.append(f"{k} = {v!r}, reference {numbers[k]!r}")
    mismatch = sum(record["sha256"].get(k) != v for k, v in sha.items())
    mismatch += len(set(record["sha256"]) - set(sha))
    return {"attempted": 1, "failed": 1 if problems else 0, "hash_mismatch": mismatch,
            "problems": problems}
