"""Dump per-figure benchmark timings to ``BENCH_<n>.json``.

Runs each experiment regeneration function once at the given scale, times it,
and (optionally) times the full tier-1 suite, so every PR leaves a comparable
perf snapshot behind::

    PYTHONPATH=src python benchmarks/run_bench.py --pr 2 --tier1

Compare against a prior snapshot with ``--compare BENCH_<n-1>.json``: the
script prints per-figure deltas and exits non-zero when any shared figure
regressed by more than ``--compare-threshold`` (25% by default, with a small
absolute floor so sub-50ms figures don't trip on scheduler noise).  Timings
are single-shot wall-clock on whatever machine CI / the developer runs them
on — they are for *trajectory*, not absolute claims.

Figures whose result objects expose ``bench_payload()`` (e.g. Figure 9B's
measured speed-ups and core count) additionally record that payload under
the snapshot's ``figures`` key.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Regressions smaller than this many seconds never fail a comparison —
#: sub-50ms figures flap by >25% on scheduler noise alone.
ABSOLUTE_REGRESSION_FLOOR_SECONDS = 0.05


def compare_snapshots(
    current: dict, prior: dict, *, threshold: float = 0.25
) -> "tuple[list[str], list[str]]":
    """Per-figure deltas of ``current`` vs ``prior``; returns (lines, regressions).

    A figure regresses when its timing grew by more than ``threshold``
    (relative) *and* by more than the absolute floor.  Figures present in
    only one snapshot are reported but never fail the comparison.
    """
    current_timings = current.get("figure_seconds", {})
    prior_timings = prior.get("figure_seconds", {})
    lines: list[str] = []
    regressions: list[str] = []
    for name in sorted(set(current_timings) | set(prior_timings)):
        now = current_timings.get(name)
        before = prior_timings.get(name)
        if now is None:
            lines.append(f"{name:28s} {'-':>8s}  (removed; was {before:.3f}s)")
            continue
        if before is None:
            lines.append(f"{name:28s} {now:8.3f}s  (new figure)")
            continue
        delta = now - before
        pct = (delta / before * 100.0) if before > 0 else float("inf")
        marker = ""
        if delta > ABSOLUTE_REGRESSION_FLOOR_SECONDS and before > 0 and delta / before > threshold:
            marker = "  <-- REGRESSION"
            regressions.append(name)
        lines.append(f"{name:28s} {now:8.3f}s  vs {before:8.3f}s  ({pct:+6.1f}%){marker}")
    now_total = current.get("figure_total_seconds")
    before_total = prior.get("figure_total_seconds")
    if now_total is not None and before_total is not None:
        lines.append(f"{'total':28s} {now_total:8.3f}s  vs {before_total:8.3f}s")
    return lines, regressions


def _figures(scale: str) -> dict:
    """(name -> zero-argument callable) for every regenerable figure/table."""
    from repro.experiments import (
        run_benchmark_comparison,
        run_catx_experiment,
        run_crash_recovery_experiment,
        run_crf_comparison,
        run_data_ordering_experiment,
        run_datasets_table,
        run_fault_recovery_experiment,
        run_mrs_convergence,
        run_overhead_table,
        run_parallel_convergence,
        run_scalability_experiment,
        run_speedup_experiment,
        run_streaming_ingest_experiment,
        run_whole_loop_experiment,
    )

    return {
        "table1_datasets": lambda: run_datasets_table(scale),
        "table2_pure_uda_overhead": lambda: run_overhead_table("pure_uda", scale),
        "table3_shmem_overhead": lambda: run_overhead_table("shared_memory", scale),
        "table4_scalability": lambda: run_scalability_experiment(scale),
        "fig5_catx": lambda: run_catx_experiment(),
        "fig7a_comparison": lambda: run_benchmark_comparison(scale),
        "fig7b_crf": lambda: run_crf_comparison(scale),
        "fig8_ordering": lambda: run_data_ordering_experiment(scale),
        "fig9a_parallel": lambda: run_parallel_convergence(scale),
        "fig9b_speedup": lambda: run_speedup_experiment(scale),
        "whole_loop_parallel": lambda: run_whole_loop_experiment(scale),
        "fault_recovery": lambda: run_fault_recovery_experiment(scale),
        "crash_recovery": lambda: run_crash_recovery_experiment(scale),
        "fig10a_mrs": lambda: run_mrs_convergence(scale),
        "streaming_ingest": lambda: run_streaming_ingest_experiment(scale),
    }


def time_tier1() -> float:
    """Wall-clock of one full tier-1 run (the acceptance metric)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, default=1, help="PR number for BENCH_<n>.json")
    parser.add_argument("--scale", default="small", help="experiment scale (small/medium/full)")
    parser.add_argument("--output", default=None, help="explicit output path")
    parser.add_argument(
        "--tier1", action="store_true", help="also time the full tier-1 suite (slow)"
    )
    parser.add_argument(
        "--only", nargs="*", default=None, help="subset of figure names to run"
    )
    parser.add_argument(
        "--compare", default=None, metavar="BENCH_N.json",
        help="prior snapshot to diff against; exit non-zero on regressions",
    )
    parser.add_argument(
        "--compare-threshold", type=float, default=0.25,
        help="relative slowdown that counts as a regression (default 0.25)",
    )
    args = parser.parse_args()

    figures = _figures(args.scale)
    if args.only:
        unknown = set(args.only) - set(figures)
        if unknown:
            parser.error(f"unknown figures: {sorted(unknown)}; known: {sorted(figures)}")
        figures = {name: figures[name] for name in args.only}

    timings: dict[str, float] = {}
    figure_payloads: dict[str, dict] = {}
    for name, runner in figures.items():
        start = time.perf_counter()
        result = runner()
        timings[name] = round(time.perf_counter() - start, 4)
        print(f"{name:28s} {timings[name]:8.3f}s", flush=True)
        if hasattr(result, "bench_payload"):
            figure_payloads[name] = result.bench_payload()

    payload = {
        "pr": args.pr,
        "scale": args.scale,
        "python": platform.python_version(),
        "figure_seconds": timings,
        "figure_total_seconds": round(sum(timings.values()), 4),
    }
    if figure_payloads:
        payload["figures"] = figure_payloads
    if args.tier1:
        payload["tier1_seconds"] = round(time_tier1(), 2)
        print(f"{'tier1 (pytest -x -q)':28s} {payload['tier1_seconds']:8.2f}s")

    output = Path(args.output) if args.output else REPO_ROOT / f"BENCH_{args.pr}.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    if args.compare:
        prior = json.loads(Path(args.compare).read_text())
        lines, regressions = compare_snapshots(
            payload, prior, threshold=args.compare_threshold
        )
        print(f"\ncomparison vs {args.compare}:")
        for line in lines:
            print(line)
        if regressions:
            print(
                f"\n{len(regressions)} figure(s) regressed by more than "
                f"{args.compare_threshold:.0%}: {', '.join(regressions)}"
            )
            sys.exit(1)
        print("\nno regressions beyond threshold")


if __name__ == "__main__":
    main()
