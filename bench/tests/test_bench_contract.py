"""The benchmark keeps its contract: every declared metric is reported, nothing fails,
no layer has gone dark, and no process or shared-memory block is left behind.

Runs every workload at ``--scale tiny`` (rows / 30, three calls), untraced and
traced.  No wall-clock assertions: timings belong to the benchmark, not to tier-1.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

# bench/ is a script directory whose module names (trace, host, ...) must not
# leak onto tier-1's sys.path; load the one helper module under its own name.
_spec = importlib.util.spec_from_file_location("bench_host", ROOT / "bench" / "host.py")
bench_host = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_host)
shm_entries, stray_children = bench_host.shm_entries, bench_host.stray_children

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        [w["name"] for w in BENCHMARK["workloads"]]
        + [m["name"] for m in BENCHMARK["end_to_end"]]
        + [m["name"] for m in BENCHMARK["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16 and 1 <= len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert (len(BENCHMARK["workloads"]) * 22 + 4) * 25 <= 3420  # room for ~25 s runs


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    shm_before = shm_entries()
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
         "--scale", "tiny", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, \
        completed.stdout
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] != 0, f"{metric['name']} must never read 0"
    if trace:
        assert line["metrics"]["trace.missing_hooks"]["value"] == 0
        assert 95 <= line["metrics"]["trace.self_sum_pct"]["value"] <= 105
        spans = json.loads((tmp_path / f"trace-{workload}.json").read_text())["spans"]
        assert spans
    assert not list(tmp_path.glob("tmp-*")), "scratch directory left behind"
    assert shm_entries() <= shm_before
    assert not stray_children()
