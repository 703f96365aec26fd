"""Per-layer metrics of the traced run: what each is, and what it should move.

``PER_LAYER`` is the contract's ``per_layer`` list plus, for each metric, the
end-to-end metric it is expected to move and the workloads where it has a
share (``BENCHMARK.json`` only has room for name, unit and direction).  The
prefix of a name is the module that owns the layer.

Every ``*_s`` value is seconds summed over the phases of one traced run
(one set-up, the traced train calls, the recover and the refresh phase);
the operation counts of a run are fixed by ``--seconds``, so two commits are
compared on the same work.  ``*_share`` values are relative to the traced
train calls only.
"""

from __future__ import annotations

from trace import Recorder, SpanTable

ALL = "all"
POOL = "dense_uda2, dense_shmem2"

#: name -> (unit, better, end-to-end metric it should move, workloads where it has a share)
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    # table (db/table.py)
    "table.insert_s": ("s", "lower", "insert_rows_per_s, setup_s", ALL),
    "table.rows_inserted": ("count", "lower", "insert_rows_per_s", ALL),
    "table.scans": ("count", "lower", "time_to_target_s", ALL),
    # cache (ExampleCache, tasks/base.py)
    "cache.decode_s": ("s", "lower", "setup_s, refresh_s", ALL),
    "cache.decoded_rows": ("count", "lower", "setup_s, refresh_s", ALL),
    "cache.hits": ("count", "higher", "time_to_target_s", ALL),
    "cache.misses": ("count", "lower", "setup_s", ALL),
    "cache.extensions": ("count", "higher", "refresh_s", ALL),
    "cache.hit_ratio": ("ratio", "higher", "time_to_target_s", ALL),
    "cache.decode_per_appended_row": ("ratio", "lower", "refresh_s", ALL),
    # ordering (core/ordering.py)
    "ordering.order_s": ("s", "lower", "time_to_target_s", "sparse_reshuffle"),
    "ordering.permutations": ("count", "lower", "time_to_target_s", "sparse_reshuffle"),
    # chunk_plan (db/chunk_plan.py)
    "chunk_plan.resolve_s": ("s", "lower", "time_to_target_s, rows_per_s", "sparse_reshuffle"),
    "chunk_plan.gather_s": ("s", "lower", "time_to_target_s, rows_per_s", "sparse_reshuffle"),
    "chunk_plan.gathers": ("count", "lower", "time_to_target_s", "sparse_reshuffle"),
    "chunk_plan.gathered_rows": ("count", "lower", "rows_per_s", "sparse_reshuffle"),
    # pass_plan (db/pass_plan.py)
    "pass_plan.compile_s": ("s", "lower", "time_to_target_s", ALL),
    "pass_plan.compiles": ("count", "lower", "time_to_target_s", ALL),
    "pass_plan.revalidations": ("count", "lower", "time_to_target_s", ALL),
    "backend.train_s": ("s", "lower", "time_to_target_s", ALL),
    "backend.loss_s": ("s", "lower", "time_to_target_s", ALL),
    "backend.loss_share": ("ratio", "lower", "time_to_target_s", ALL),
    # kernel (Task.igd_chunk / batch_loss; worker ops on the pool workloads)
    "kernel.igd_s": ("s", "lower", "rows_per_s, time_to_target_s, cpu_s_per_mrow",
                     "dense_serial, sparse_reshuffle"),
    "kernel.igd_ns_per_row": ("ns", "lower", "rows_per_s, cpu_s_per_mrow",
                              "dense_serial, sparse_reshuffle"),
    "kernel.loss_s": ("s", "lower", "time_to_target_s, cpu_s_per_mrow", ALL),
    "kernel.loss_ns_per_row": ("ns", "lower", "time_to_target_s", ALL),
    # uda (core/uda.py)
    "uda.merge_s": ("s", "lower", "time_to_target_s", "dense_uda2"),
    "uda.merges": ("count", "lower", "time_to_target_s", "dense_uda2"),
    # executor (db/executor.py)
    "executor.self_s": ("s", "lower", "time_to_target_s", ALL),
    # pool (db/process_backend.py, db/supervisor.py)
    "pool.spawn_s": ("s", "lower", "setup_s", POOL),
    "pool.spawns": ("count", "lower", "setup_s", POOL),
    "pool.publish_s": ("s", "lower", "setup_s", POOL),
    "pool.page_bytes": ("bytes", "lower", "setup_s, peak_rss_mb", POOL),
    "pool.bytes_shipped": ("bytes", "lower", "setup_s", POOL),
    "pool.page_fallbacks": ("count", "lower", "setup_s", POOL),
    "pool.run_s": ("s", "lower", "time_to_target_s", POOL),
    "pool.runs": ("count", "lower", "time_to_target_s", POOL),
    "pool.worker_cpu_s": ("s", "lower", "cpu_s_per_mrow", POOL),
    "pool.worker_busy_share": ("ratio", "higher", "time_to_target_s", POOL),
    "pool.recovery_events": ("count", "lower", "time_to_target_s", POOL),
    "pool.degradations": ("count", "lower", "time_to_target_s", POOL),
    # arena (db/shared_memory.py)
    "arena.alloc_s": ("s", "lower", "setup_s, time_to_target_s", "dense_shmem2"),
    "arena.peak_bytes": ("bytes", "lower", "peak_rss_mb", "dense_shmem2"),
    "shm.residue": ("count", "lower", "peak_rss_mb", POOL),
    # segments (db/parallel.py)
    "segments.redistribute_s": ("s", "lower", "setup_s, refresh_s", "dense_uda2"),
    "segments.run_s": ("s", "lower", "time_to_target_s", "dense_uda2"),
    # driver (core/driver.py)
    "driver.call_s": ("s", "lower", "time_to_target_s, refresh_s", ALL),
    "driver.self_s": ("s", "lower", "time_to_target_s", ALL),
    "driver.epochs": ("count", "lower", "time_to_target_s", ALL),
    "driver.epochs_to_target": ("epochs", "lower", "epochs_to_target", ALL),
    # wal (db/wal.py)
    "wal.append_s": ("s", "lower", "setup_s, insert_rows_per_s", "durable_resume"),
    "wal.appends": ("count", "lower", "setup_s", "durable_resume"),
    "wal.bytes_written": ("bytes", "lower", "disk_bytes_per_user_byte", "durable_resume"),
    "wal.fsyncs": ("count", "lower", "setup_s, insert_rows_per_s", "durable_resume"),
    # checkpoint (db/checkpoint.py)
    "checkpoint.write_s": ("s", "lower", "time_to_target_s", "durable_resume"),
    "checkpoint.writes": ("count", "lower", "time_to_target_s", "durable_resume"),
    "checkpoint.bytes_written": ("bytes", "lower", "disk_bytes_per_user_byte", "durable_resume"),
    "checkpoint.stall_share": ("ratio", "lower", "time_to_target_s", "durable_resume"),
    # recover (recover_database)
    "recover.open_s": ("s", "lower", "recover_s", ALL),
    "recover.records_replayed": ("count", "lower", "recover_s", ALL),
    "recover.torn_bytes": ("bytes", "lower", "recover_s", "durable_resume"),
    # sql / frontend (db/parser.py, frontend/)
    "sql.parse_s": ("s", "lower", "refresh_s", "stream_sql"),
    "frontend.call_s": ("s", "lower", "refresh_s, time_to_target_s", "stream_sql"),
    "frontend.self_s": ("s", "lower", "refresh_s", "stream_sql"),
    "frontend.save_model_s": ("s", "lower", "refresh_s", "stream_sql"),
    # host and harness: read alongside, never gated
    "proc.cpu_s": ("s", "lower", "cpu_s_per_mrow", ALL),
    "proc.cpu_util": ("ratio", "higher", "time_to_target_s", ALL),
    "proc.children_rss_mb": ("MB", "lower", "peak_rss_mb", POOL),
    "calib.numpy_s": ("s", "lower", "-", ALL),
    "calib.drift_pct": ("%", "lower", "-", ALL),
    "calib.parallel_capacity": ("ratio", "higher", "-", POOL),
    "scaling.speedup_vs_serial": ("ratio", "higher", "time_to_target_s", POOL),
    "scaling.efficiency": ("ratio", "higher", "cpu_s_per_mrow", POOL),
    "trace.overhead_pct": ("%", "lower", "-", ALL),
    "trace.self_sum_pct": ("%", "higher", "-", ALL),
    "trace.unattributed_pct": ("%", "lower", "-", ALL),
    "trace.missing_hooks": ("count", "lower", "-", ALL),
}

MEASURED_PHASES = {"setup", "train", "recover", "refresh"}
#: Phases that run on the engine under test.  ``wal.*`` and ``checkpoint.*``
#: count only these: the recover phase of a non-durable workload persists its
#: rows through a WAL of its own, which is ``recover.*``'s business.
ENGINE_PHASES = {"setup", "train", "refresh"}
#: Layers that only pass work on to the layers below: self time left in them
#: is time no hooked layer claimed, which is how a layer gone dark shows.
PASS_THROUGH = ("driver", "backend", "executor")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(recorder: Recorder, workers: int, cpus: int,
                 call_seconds: float) -> dict[str, float]:
    """The per-layer values that come from spans.

    ``cpus`` is how many CPUs the run was confined to, ``call_seconds`` the sum
    of the traced train calls as the runner timed them from outside the engine.
    """
    run = SpanTable(recorder, MEASURED_PHASES)
    engine = SpanTable(recorder, ENGINE_PHASES)
    train = SpanTable(recorder, {"train"})
    igd_s, loss_kernel_s = run.busy("kernel.igd"), run.busy("kernel.loss")
    self_sum = train.main_lane_self_sum()
    passed_on = sum(train.self_time(layer) for layer in PASS_THROUGH)
    train_s, loss_s = run.total("backend.train"), run.total("backend.loss")
    return {
        "table.insert_s": run.total("table.insert"),
        "table.rows_inserted": run.work("table.insert"),
        "cache.decode_s": run.self_time("cache"),
        "ordering.order_s": run.total("ordering"),
        "ordering.permutations": run.count("ordering.permutation"),
        "chunk_plan.resolve_s": run.self_time("chunk_plan.resolve"),
        "chunk_plan.gather_s": run.total("chunk_plan.gather"),
        "chunk_plan.gathers": run.count("chunk_plan.gather"),
        "chunk_plan.gathered_rows": run.work("chunk_plan.gather"),
        "pass_plan.compile_s": run.total("pass_plan.compile"),
        "pass_plan.compiles": run.count("pass_plan.compile"),
        "pass_plan.revalidations": run.count("pass_plan.revalidate"),
        "backend.train_s": train_s,
        "backend.loss_s": loss_s,
        "backend.loss_share": _ratio(loss_s, train_s + loss_s),
        "kernel.igd_s": igd_s,
        "kernel.igd_ns_per_row": _ratio(igd_s * 1e9, run.work("kernel.igd")),
        "kernel.loss_s": loss_kernel_s,
        "kernel.loss_ns_per_row": _ratio(loss_kernel_s * 1e9, run.work("kernel.loss")),
        "uda.merge_s": run.total("uda.merge"),
        "uda.merges": run.count("uda.merge"),
        "executor.self_s": run.self_time("executor"),
        "pool.spawn_s": run.total("pool.spawn"),
        "pool.spawns": run.count("pool.spawn"),
        "pool.publish_s": run.total("pool.publish"),
        "pool.run_s": run.total("pool.run"),
        "pool.runs": run.count("pool.run"),
        "pool.worker_cpu_s": run.work("pool.run"),
        # Of the CPU time the workers could have had while the parent waited.
        "pool.worker_busy_share": _ratio(run.work("pool.run"),
                                         run.total("pool.run") * min(workers, cpus)),
        "arena.alloc_s": run.total("arena.alloc"),
        "arena.peak_bytes": run.max_work("arena.alloc"),
        "segments.redistribute_s": run.total("segments.redistribute"),
        "segments.run_s": run.total("segments.run"),
        "driver.call_s": run.total("driver.call"),
        "driver.self_s": run.self_time("driver"),
        "wal.append_s": engine.total("wal.append"),
        "wal.appends": engine.count("wal.append"),
        "wal.bytes_written": engine.work("wal.append"),
        "wal.fsyncs": engine.count_under("os.fsync", "wal.append"),
        "checkpoint.write_s": engine.total("checkpoint"),
        "checkpoint.writes": engine.count("checkpoint.write"),
        "checkpoint.bytes_written": engine.work("checkpoint.write"),
        "checkpoint.stall_share": _ratio(train.total("checkpoint"), train.root_seconds()),
        "recover.open_s": run.total("recover.open"),
        "sql.parse_s": run.total("sql.parse"),
        "frontend.call_s": run.total("frontend"),
        "frontend.self_s": run.self_time("frontend.call") + run.self_time("frontend.infer"),
        "frontend.save_model_s": run.total("frontend.save_model"),
        "trace.self_sum_pct": 100.0 * _ratio(self_sum, call_seconds),
        "trace.unattributed_pct": 100.0 * _ratio(call_seconds - self_sum + passed_on,
                                                 call_seconds),
    }


def layer_shares(recorder: Recorder, phase: str) -> dict[str, float]:
    """Share of one phase's blocking path (main-lane self time) per layer, in percent."""
    table = SpanTable(recorder, {phase})
    total = table.root_seconds()
    return {
        layer: round(100.0 * seconds / total, 2)
        for layer, seconds in sorted(table.layer_self_seconds().items())
    } if total else {}
