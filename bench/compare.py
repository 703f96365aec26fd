#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A B``.

``A`` and ``B`` are directories written by ``bench/run.py`` (they hold a
``set.json``) with the same seed, scale and seconds; A is the baseline.  For
every workload x end-to-end metric the two medians and quartiles over the
samples of each set's untraced run (its train calls, refreshes, reopens,
set-ups) are printed with a verdict:

``ok``          B's median is not worse than A's by more than the metric's bound
``regressed``   it is
``unresolved``  the sets disagree with each other, sample by sample, by more
                than the bound, so the bound cannot be told apart from noise

Every workload but the racy ``dense_shmem2`` must also agree *exactly* on
``epochs_to_target``; the traced runs must agree exactly on the counts in
``EXACT`` (one client, no timers: they repeat); and B may not fail a larger
share of its operations than A.  Exits non-zero on any regression, count
mismatch or larger failure share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workloads whose epochs_to_target may move (racy nolock adds), by at most the bound.
RACY = {"dense_shmem2"}

#: Per-layer counts that must be identical between two sets of the same seed and scale.
EXACT = [
    "cache.decoded_rows", "cache.misses", "cache.extensions", "table.rows_inserted",
    "pass_plan.compiles", "chunk_plan.gathers", "ordering.permutations", "pool.spawns",
    "wal.appends", "wal.fsyncs", "checkpoint.writes", "recover.records_replayed",
]


def load_set(directory: Path) -> dict:
    """workload -> {"metrics": {name: summary}, "counts": {...}, "attempted", "failed"}."""
    document = json.loads((Path(directory) / "set.json").read_text())
    merged: dict[str, dict] = defaultdict(
        lambda: {"metrics": {}, "counts": {}, "attempted": 0, "failed": 0}
    )
    last_attempt = {(run["workload"], run["trace"]): run for run in document["runs"]}
    for (workload, trace), run in sorted(last_attempt.items()):
        entry = merged[workload]
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        if trace:
            entry["counts"] = {name: run["per_layer"][name] for name in EXACT}
        else:
            entry["metrics"] = run["end_to_end"]
    return merged


def disagreement(a: dict, b: dict) -> float:
    """Quartile distance of the sample-by-sample ratios B/A.

    Both sets run the same operations in the same order, so the i-th samples
    did the same work and their ratio holds the change and the noise, but not
    what moves a metric within a run (a refresh gets slower as the table
    grows, the first set-up imports what the others find loaded).
    """
    if a["n"] != b["n"]:
        return float("inf")
    if a["n"] < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(
        [after / before for before, after in zip(a["samples"], b["samples"])], n=4
    )
    return q3 - q1


def verdict(better: str, bound: float, a: dict, b: dict) -> str:
    worse_by = b["median"] - a["median"] if better == "lower" else a["median"] - b["median"]
    if worse_by > bound * abs(a["median"]):
        return "regressed"
    if disagreement(a, b) > bound:
        return "unresolved"
    return "ok"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_set, b_set = load_set(Path(sys.argv[1])), load_set(Path(sys.argv[2]))
    bad = 0
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        if workload not in a_set or workload not in b_set:
            print(f"{workload}: missing from one set")
            bad += 1
            continue
        a, b = a_set[workload], b_set[workload]
        print(f"\n{workload}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_run, b_run = a["metrics"][name], b["metrics"][name]
            outcome = verdict(metric["better"], metric["bound"], a_run, b_run)
            if (name == "epochs_to_target" and workload not in RACY
                    and a_run["median"] != b_run["median"]):
                outcome = "regressed"
            bad += outcome == "regressed"
            print(f"  {name:26s} A {a_run['median']:.6g} [{a_run['q1']:.6g}, {a_run['q3']:.6g}]   "
                  f"B {b_run['median']:.6g} [{b_run['q1']:.6g}, {b_run['q3']:.6g}]  "
                  f"{metric['unit']:7s} n {b_run['n']:<3d} bound {metric['bound']:g}  {outcome}")
        moved = {name: (a["counts"][name], b["counts"][name]) for name in a["counts"]
                 if a["counts"][name] != b["counts"].get(name)}
        bad += bool(moved)
        print(f"  exact counts (traced run)  {'MOVED: ' + json.dumps(moved) if moved else 'identical'}")
        a_share, b_share = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        worse = b_share > a_share
        bad += worse
        print(f"  failed/attempted           A {a['failed']}/{a['attempted']}   "
              f"B {b['failed']}/{b['attempted']}  {'LARGER FAILURE SHARE' if worse else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
