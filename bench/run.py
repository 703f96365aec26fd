#!/usr/bin/env python3
"""Runner of the layered time-to-target benchmark.

One run (the form ``BENCHMARK.json``'s command is called in)::

    python3 bench/run.py --workload dense_serial --seed 5 --seconds 10 --trace 0

measures one workload and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` it runs the whole set, every workload
once untraced and once traced, and leaves the files under ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the engine's parallelism is what is measured, not numpy's.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Run from source and leave no bytecode behind: every run of a checkout
# should see the same files.
sys.dont_write_bytecode = True
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np

import hooks
import host
import layers
import reference
import workloads
from trace import Recorder
from workloads import TABLE, Ledger, Session, Workload

#: A run is disturbed when the calibration kernel drifted by more than this
#: between its start and its end, or the 1-minute load average exceeds nproc,
MAX_DRIFT_PCT = 10.0
#: or when its slowest train call took this much longer per epoch than its
#: fastest: the calls do the same work, and the host's slow stretches last a
#: few seconds, which the calibration before and after a run does not see
#: (clean runs: 3-8 %, 17 % with fsync; a slow stretch: 50 % and more).
MAX_CALL_SCATTER_PCT = 25.0
#: Recording may slow a train call by at most this much.
MAX_OVERHEAD_PCT = 5.0
#: Of the traced calls' seconds, measured outside the engine, the spans must
#: account for this much at least ...
MIN_SELF_SUM_PCT, MAX_SELF_SUM_PCT = 95.0, 105.0
#: ... and at most this much may be left outside every span or as self time of
#: the layers that only pass work on (``layers.PASS_THROUGH``).  A tiny call
#: lasts milliseconds, of which the driver's fixed cost per call is 5-9 %.
MAX_UNATTRIBUTED_PCT = {"full": 10.0, "tiny": 25.0}
#: Reopens of the durable directory made before the timed ones.
WARMUP_REOPENS = 2


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples within a run."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def seconds_per_epoch(calls: list) -> list[float]:
    """Every call of a run does the same work per epoch, whatever its epoch count."""
    return [call.seconds / call.epochs for call in calls]


# ------------------------------------------------------------------ one run
def run_once(spec: Workload, *, seed: int, seconds: int, trace: bool, scale: str,
             out_dir: Path) -> dict:
    sizes = workloads.sizes_for(spec, scale, seconds, trace)
    total_rows = sizes.rows + sizes.rounds * sizes.batch
    data = workloads.generate(spec, total_rows, sizes.dimension, seed)
    base = data.head(sizes.rows)
    _, f_opt, solver_iterations = reference.solve_lr(base)
    target = f_opt * (1.0 + sizes.rho)
    rows = data.rows()
    base_rows = rows[:sizes.rows]

    work = out_dir / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    recorder = Recorder(work) if trace else None
    missing_hooks = hooks.install(recorder) if trace else []
    ledger = Ledger()
    shm_before = host.shm_entries()
    calib_before = host.calib_numpy_seconds()
    workers = 2 if spec.parallelism else 0
    all_cpus = os.sched_getaffinity(0)
    cpus = host.confine(1 + workers)
    measured_start = time.perf_counter()
    cpu_start = host.process_cpu_seconds()

    def phase(name: str) -> None:
        if recorder is not None:
            recorder.mark(name)

    def objective_matches(outcome, upto: int) -> bool:
        # SQL reports the objective through a %.6g summary string.
        tolerance = 1e-5 if spec.engine == "sql" else 1e-9
        recomputed = reference.lr_objective(data.head(upto), outcome.weights)
        return abs(outcome.objective - recomputed) <= tolerance * abs(recomputed)

    # ---------------------------------------------------------------- setup
    phase("setup")
    setup_samples: list[float] = []
    closed_counters: list[dict] = []
    session = None
    for attempt in range(sizes.setups):
        if session is not None:
            closed_counters.append(session.counters())
            session.close()
            # A closed engine is full of reference cycles.  Collect it before
            # the next one is built, or peak RSS counts however many engines
            # the collector has not got to yet (one table image, 13 MB, more
            # or less from one round of runs to the next).
            session = None
            gc.collect()
        start = time.perf_counter()
        session = Session.open(spec, base_rows, target, work / f"engine-{attempt}",
                               dimension=sizes.dimension)
        session.cold_call()
        setup_samples.append(time.perf_counter() - start)
        ledger.op(True, "setup")

    # ---------------------------------------------------------------- train
    phase("train")
    outcomes, untraced = [], []
    for call in range(sizes.calls * (2 if trace else 1)):
        if trace:
            # on, off, off, on, ...: each pair sits side by side in time and
            # neither mode always goes first, so drift cancels out of the pairs.
            recorder.enabled = call % 4 in (0, 3)
        outcome = session.train_call()
        (outcomes if not trace or recorder.enabled else untraced).append(outcome)
        ledger.op(
            np.isfinite(outcome.objective) and outcome.objective <= target
            and outcome.epochs <= spec.max_epochs and outcome.events == 0,
            f"train call {call}: objective {outcome.objective} vs target {target}, "
            f"{outcome.epochs} epochs, {outcome.events} recovery events",
        )
        ledger.check("objective_matches_numpy", objective_matches(outcome, sizes.rows))
        if spec.deterministic:
            ledger.check("warm_runs_identical",
                         np.array_equal(outcome.weights, outcomes[0].weights))
    row_visits = [sizes.rows * outcome.epochs for outcome in outcomes]

    # -------------------------------------------------------------- overlap
    parallel_capacity, free_seconds = 0.0, 0.0
    if trace:
        # What the host's CPUs would add with the confinement lifted; read
        # beside the confined numbers, never gated, so noise is affordable.
        phase("overlap")
        recorder.enabled = False
        host.set_affinity_of_pool(all_cpus)
        parallel_capacity = host.parallel_capacity()
        if workers:
            free_seconds = statistics.median(session.train_call().seconds for _ in range(3))
        host.set_affinity_of_pool(cpus)
        recorder.enabled = True

    # -------------------------------------------------------------- recover
    phase("recover")
    crash_epoch = max(1, outcomes[0].epochs - 2)
    discarded = None
    if spec.engine == "durable":
        directory, acked, discarded = workloads.crash_and_discard(
            spec, base_rows, target, crash_epoch, work, recorder, ledger
        )
    else:
        acked = sizes.rows + sizes.batch
        directory = workloads.persist_copy(spec, rows[:acked], sizes.rows, work)
    disk_ratio = workloads.directory_bytes(directory) / (acked * data.raw_row_bytes())
    recover_samples, replayed, torn = [], 0, 0

    def reopen(timed: bool, resume: bool = False) -> None:
        nonlocal replayed, torn
        seconds_taken, reopened = workloads.timed_reopen(directory, work / "reopened")
        if timed:
            recover_samples.append(seconds_taken)
        replayed += reopened.recovery_report.records_replayed
        torn += reopened.recovery_report.torn_bytes_discarded
        table = reopened.table(TABLE)
        ledger.check(
            "acked_rows_survive",
            len(table) >= acked
            and table.column_values("label")[:acked] == data.y[:acked].tolist()
            and table.column_values("id")[:acked] == list(range(acked)),
        )
        if resume:
            state = reopened.training_state(TABLE)
            resumed = Session(spec, reopened, target, dimension=sizes.dimension) \
                .train_runner.train(TABLE, resume_from=state)
            ledger.check(
                "resume_bit_for_bit",
                state is not None and state.next_epoch == crash_epoch
                and np.array_equal(resumed.model["w"], outcomes[0].weights),
            )
        reopened.close()
        del reopened, table
        gc.collect()

    # The first reopens of a process take longer than the ones that follow
    # (94, 73, 70, 68, 66 ... ms on stream_sql); they are not timed.
    for _ in range(WARMUP_REOPENS):
        reopen(timed=False)

    # ---------------------------------------------- refresh, with the reopens
    # The timed reopens are dealt evenly over the refresh rounds instead of
    # being run back to back.  Back to back they take 1-2 s, less than one of
    # this host's slow stretches, so a stretch moved every sample of a run at
    # once and the run's median with them; dealt out, it meets a minority.
    phase("refresh")
    insert_samples, refresh_samples = [], []
    decoded_before = session.counters()["cache.decoded_rows"]
    loaded = sizes.rows
    for round_index in range(sizes.rounds):
        batch = rows[loaded:loaded + sizes.batch]
        insert_samples.append(sizes.batch / session.insert(batch))
        loaded += sizes.batch
        outcome = session.refresh()
        refresh_samples.append(outcome.seconds)
        ledger.op(
            np.isfinite(outcome.objective) and outcome.mode == "continued"
            and outcome.events == 0,
            f"refresh {round_index}: objective {outcome.objective}, mode {outcome.mode!r}, "
            f"{outcome.events} recovery events",
        )
        ledger.check("objective_matches_numpy", objective_matches(outcome, loaded))
        if spec.engine == "sql" and (round_index + 1) % 10 == 0:
            predicted = reference.decisions(data.head(loaded), outcome.weights) >= 0
            expected = float(np.mean(predicted == (data.y[:loaded] > 0)))
            ledger.op(abs(session.accuracy() - expected) <= 2.0 / loaded,
                      "ClassifyAccuracy disagrees with numpy")
        due = (round_index + 1) * sizes.copies // sizes.rounds - len(recover_samples)
        if due:
            phase("recover")
            for _ in range(due):
                last = len(recover_samples) == sizes.copies - 1
                reopen(timed=True, resume=last and spec.engine == "durable")
            phase("refresh")
    decoded_in_refresh = session.counters()["cache.decoded_rows"] - decoded_before

    # ----------------------------------------------------- cross-engine checks
    phase("check")
    serial_seconds = 0.0
    if spec.parallelism == "uda2":
        with_in_process = Session.open(spec, base_rows, target, dimension=sizes.dimension,
                                       in_process=True)
        ledger.check(
            "process_equals_in_process",
            np.array_equal(with_in_process.train_call().weights, outcomes[0].weights),
        )
        with_in_process.close()
        del with_in_process
        gc.collect()
    if trace and workers:
        # The same rows and target on the serial engine, for scaling.*.
        serial = Session.open(workloads.WORKLOADS["dense_serial"], base_rows, target)
        serial.cold_call()
        serial_seconds = statistics.median(serial.train_call().seconds for _ in range(3))
        serial.close()

    # ------------------------------------------------------------- teardown
    measured_seconds = time.perf_counter() - measured_start
    children_rss = host.children_peak_rss_mb()
    cpu_seconds = host.process_cpu_seconds() - cpu_start
    closed_counters.append(session.counters())
    session.close()
    counters = {key: sum(c[key] for c in closed_counters) for key in closed_counters[0]}
    strays = host.stray_children()
    residue = host.shm_entries() - shm_before
    ledger.check("no_stray_processes", not strays, ", ".join(strays))
    ledger.check("shm_residue_zero", not residue, ", ".join(sorted(residue)))
    calib_after = host.calib_numpy_seconds()
    drift_pct = 100.0 * abs(calib_after - calib_before) / calib_before
    per_epoch = seconds_per_epoch(outcomes + untraced)
    call_scatter_pct = 100.0 * (max(per_epoch) / min(per_epoch) - 1.0)
    disturbed = (drift_pct > MAX_DRIFT_PCT or host.load_average() > (os.cpu_count() or 1)
                 or call_scatter_pct > MAX_CALL_SCATTER_PCT)
    if trace:
        recorder.fold_worker_files()
        recording, plain = seconds_per_epoch(outcomes), seconds_per_epoch(untraced)
        overhead_pct = 100.0 * (statistics.median(recording) / statistics.median(plain) - 1.0)
        spans = layers.span_metrics(recorder, workers, len(cpus),
                                    sum(outcome.seconds for outcome in outcomes))
        ledger.check("no_missing_hooks", not missing_hooks, ", ".join(missing_hooks))
        ledger.check(
            "spans_account_for_calls",
            MIN_SELF_SUM_PCT <= spans["trace.self_sum_pct"] <= MAX_SELF_SUM_PCT
            and spans["trace.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT[scale],
            f"self sum {spans['trace.self_sum_pct']:.1f} %, "
            f"unattributed {spans['trace.unattributed_pct']:.1f} %",
        )
        if scale == "full":
            # The estimate above scatters by +-3 % from run to run (four to
            # seven calls a side, fsync in some), so a run fails only on what
            # it resolves by itself: every call that recorded slower than
            # every call that did not.  Tiny calls last milliseconds, of
            # which a span's fixed cost is more than 5 %.
            resolved_pct = 100.0 * (min(recording) / max(plain) - 1.0)
            ledger.check("trace_overhead_small", resolved_pct <= MAX_OVERHEAD_PCT,
                         f"every traced call at least {resolved_pct:.2f} % slower")
    shutil.rmtree(work)

    call_seconds = [outcome.seconds for outcome in outcomes]
    samples = {
        "setup_s": setup_samples,
        "time_to_target_s": call_seconds,
        "rows_per_s": [visits / s for visits, s in zip(row_visits, call_seconds)],
        "epochs_to_target": [float(outcome.epochs) for outcome in outcomes],
        "final_objective_ratio": [
            reference.lr_objective(base, outcome.weights) / f_opt for outcome in outcomes
        ],
        "cpu_s_per_mrow": [
            1e6 * sum(outcome.cpu_seconds for outcome in outcomes) / sum(row_visits)
        ],
        "peak_rss_mb": [host.own_peak_rss_mb() + children_rss],
        "refresh_s": refresh_samples,
        "insert_rows_per_s": insert_samples,
        "recover_s": recover_samples,
        "disk_bytes_per_user_byte": [disk_ratio],
    }
    end_to_end = {name: summarize(values) for name, values in samples.items()}
    end_to_end["refresh_p75_s"] = {**end_to_end["refresh_s"],
                                   "median": float(np.percentile(refresh_samples, 75))}

    result = {
        "workload": spec.name, "seed": seed, "seconds": seconds, "scale": scale,
        "trace": int(trace), "sizes": sizes.__dict__,
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures[:20], "checks": ledger.checks,
        "disturbed": disturbed, "call_scatter_pct": call_scatter_pct,
        "cpus": sorted(cpus), "pinned": len(cpus) < 1 + workers,
        "f_opt": f_opt, "target": target, "rho": sizes.rho,
        "reference_solver_iterations": solver_iterations,
        "flush_policy": "fsync", "durable_path": str(work), "discarded_unflushed": discarded,
        "durable_fs_type": host.filesystem_type(out_dir),
        "load_average_1m": host.load_average(),
        "end_to_end": end_to_end,
    }
    if trace:
        speedup = serial_seconds / free_seconds if workers else 1.0
        looked_up = counters["cache.hits"] + counters["cache.misses"] + counters["cache.extensions"]
        per_layer = {
            **spans,
            **{key: float(counters[key]) for key in counters if key in layers.PER_LAYER},
            "cache.hit_ratio": counters["cache.hits"] / looked_up if looked_up else 0.0,
            "cache.decode_per_appended_row": decoded_in_refresh / (sizes.rounds * sizes.batch),
            "shm.residue": float(len(residue)),
            "driver.epochs": float(sum(outcome.epochs for outcome in outcomes)),
            "driver.epochs_to_target": statistics.median(o.epochs for o in outcomes),
            "recover.records_replayed": float(replayed),
            "recover.torn_bytes": float(torn),
            "proc.cpu_s": cpu_seconds,
            "proc.cpu_util": cpu_seconds / measured_seconds / (os.cpu_count() or 1),
            "proc.children_rss_mb": children_rss,
            "calib.numpy_s": calib_after,
            "calib.drift_pct": drift_pct,
            "calib.parallel_capacity": parallel_capacity,
            "scaling.speedup_vs_serial": speedup,
            "scaling.efficiency": speedup / max(workers, 1),
            "trace.overhead_pct": overhead_pct,
            "trace.missing_hooks": float(len(missing_hooks)),
        }
        result["per_layer"] = per_layer
        result["layer_share_pct"] = layers.layer_shares(recorder, "train")
        result["refresh_layer_share_pct"] = layers.layer_shares(recorder, "refresh")
        result["missing_hooks"] = missing_hooks
        result["untraced_call_s"] = [outcome.seconds for outcome in untraced]
        result["free_call_s"] = free_seconds
        recorder.dump(out_dir / f"trace-{spec.name}.json")
    (out_dir / f"result-{spec.name}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1)
    )
    return result


def reported(result: dict, benchmark: dict) -> list[tuple[dict, float]]:
    """``(contract entry, value)`` for every metric this run's ``--trace`` mode reports."""
    if result["trace"]:
        return [(entry, result["per_layer"][entry["name"]]) for entry in benchmark["per_layer"]]
    return [(entry, result["end_to_end"][entry["name"]]["median"])
            for entry in benchmark["end_to_end"]]


def contract_line(result: dict, benchmark: dict) -> str:
    """The one JSON object the driver reads: exactly the metrics the contract lists."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {entry["name"]: {"value": value, "unit": entry["unit"]}
                    for entry, value in reported(result, benchmark)},
    })


def print_metrics(result: dict, benchmark: dict) -> None:
    """Every metric by name with its unit, one per line."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"attempted {result['attempted']} failed {result['failed']}"
          f"{' DISTURBED' if result['disturbed'] else ''}")
    for entry, value in reported(result, benchmark):
        spread = ""
        if not result["trace"]:
            summary = result["end_to_end"][entry["name"]]
            spread = f"   q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n {summary['n']}"
        print(f"  {entry['name']:34s} {value:.6g} {entry['unit']}{spread}")
    if result["trace"]:
        print("  layer share of traced calls (%):", json.dumps(result["layer_share_pct"]))
    for failure in result["failures"]:
        print("  FAILED:", failure)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it.

    The engine's shared-memory blocks start it; nothing stops it before the
    interpreter exits, and a benchmark must not leave a process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ------------------------------------------------------------------ the set
def run_set(args, benchmark: dict) -> int:
    """Every workload twice: an untraced run, then a traced one.

    Each run is its own process, so nothing (caches, pools, peak RSS) leaks
    from one into the next.  A disturbed run is repeated once and both
    attempts are kept in ``set.json``; comparisons read the last attempt.
    """
    import subprocess

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for entry in benchmark["workloads"]:
        for trace in (0, 1):
            for attempt in range(2):
                completed = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", entry["name"],
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace), "--scale", args.scale, "--out", str(out_dir)],
                    capture_output=True, text=True, timeout=900,
                )
                if completed.returncode != 0:
                    sys.stderr.write(completed.stdout + completed.stderr)
                    return completed.returncode
                sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
                result = json.loads(
                    (out_dir / f"result-{entry['name']}-trace{trace}.json").read_text()
                )
                runs.append({"attempt": attempt, **result})
                if not result["disturbed"]:
                    break
    (out_dir / "set.json").write_text(json.dumps({
        "host": host.provenance(ROOT), "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "parallel_capacity": host.parallel_capacity(), "runs": runs,
    }, indent=1))
    return 1 if any(run["failed"] for run in runs) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--out", default=str(BENCH / "out"))
    args = parser.parse_args()
    benchmark = contract()
    if args.workload is None:
        return run_set(args, benchmark)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_once(
        workloads.WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=args.scale, out_dir=out_dir,
    )
    print_metrics(result, benchmark)
    stop_resource_tracker()
    print(contract_line(result, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
