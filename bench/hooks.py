"""The one table of engine callables the traced run wraps, and the wrapper.

Spans come only from here: nothing under ``src/`` knows it is being measured.
Each row is ``(span name, "module:attribute.path", options)``.  A function
that other modules import *by name* is listed once per binding site, because
rebinding ``repro.db.pass_plan.compile_pass`` does not change the name
``repro.core.driver`` already imported.  A target that no longer resolves is
returned by :func:`install` and reported as ``trace.missing_hooks``, so a
refactor makes a layer go visibly dark instead of silently reading 0.

Rows marked ``private`` wrap an underscore name because the layer has no
public call boundary there (the pool's worker-side loops run per example, and
per-example ``gradient_step`` is far too hot to wrap).
"""

from __future__ import annotations

import functools
import importlib
import os

from host import children_cpu_seconds
from trace import Recorder


# ----------------------------------------------------------- span name/count
def _plan_kind(args, kwargs):
    return "backend." + args[1].kind


def _worker_uda_name(args, kwargs):
    aggregate = type(args[1][2]).__name__
    return "kernel.igd" if aggregate == "IGDAggregate" else "kernel.loss"


def _batch_rows(args, kwargs, result):
    return len(args[2])


def _returned(args, kwargs, result):
    return result


def _worker_uda_rows(args, kwargs, result):
    _, key, _, ordinals = args[1]
    return len(args[0][key][0]) if ordinals is None else len(ordinals)


def _gathered_rows(args, kwargs, result):
    return len(args[1])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _fsync_bytes(args, kwargs, result):
    return os.fstat(args[0]).st_size


def _wal_record_bytes(args, kwargs, result):
    return args[0].position()[1] - result[1]


def _arena_bytes(args, kwargs, result):
    return args[0].total_bytes()


HOOKS: list[tuple[str, str, dict]] = [
    # driver — one root span per train()/partial_fit() call
    ("driver.call", "repro.core.driver:BismarckRunner.train", {}),
    ("driver.call", "repro.core.driver:BismarckRunner.partial_fit", {}),
    # pass_plan — compile, revalidate, and the four backends split by pass kind
    ("pass_plan.compile", "repro.core.driver:compile_pass", {}),
    ("pass_plan.revalidate", "repro.db.pass_plan:PassPlan.revalidate", {}),
    ("backend", "repro.db.pass_plan:SerialBackend.run", {"name": _plan_kind}),
    ("backend", "repro.db.pass_plan:SharedMemoryBackend.run", {"name": _plan_kind}),
    ("backend", "repro.db.pass_plan:SegmentedBackend.run", {"name": _plan_kind}),
    ("backend", "repro.db.pass_plan:ProcessBackend.run", {"name": _plan_kind}),
    # cache — decode happens inside these on a miss or an extension
    ("cache.batches_for", "repro.tasks.base:ExampleCache.batches_for", {}),
    ("cache.examples_for", "repro.tasks.base:ExampleCache.examples_for", {}),
    ("cache.selection_for", "repro.tasks.base:ExampleCache.selection_for", {}),
    # chunk_plan
    ("chunk_plan.resolve", "repro.db.chunk_plan:ChunkPlan.resolve", {}),
    ("chunk_plan.resolve", "repro.db.chunk_plan:resolve_ordinals", {}),
    ("chunk_plan.gather", "repro.db.chunk_plan:gather_batches", {"count": _gathered_rows}),
    # kernel — chunk-level in this process, op-level in pool workers
    ("kernel.igd", "repro.tasks.logistic_regression:LogisticRegressionTask.igd_chunk",
     {"count": _batch_rows}),
    ("kernel.loss", "repro.tasks.logistic_regression:LogisticRegressionTask.batch_loss",
     {"count": _batch_rows}),
    ("kernel", "repro.db.process_backend:_run_uda_state",
     {"name": _worker_uda_name, "count": _worker_uda_rows, "private": True}),
    ("kernel.igd", "repro.db.process_backend:_run_shmem_epoch",
     {"count": _returned, "private": True}),
    ("worker.chunk_uda", "repro.db.process_backend:_run_chunk_uda_state", {"private": True}),
    # uda / ordering / executor
    ("uda.merge", "repro.core.uda:IGDAggregate.merge", {}),
    ("ordering.prepare", "repro.core.ordering:ShuffleOnce.prepare", {}),
    ("ordering.prepare", "repro.core.ordering:ShuffleAlways.prepare", {}),
    ("ordering.row_order", "repro.core.ordering:ShuffleOnce.epoch_row_order", {}),
    ("ordering.row_order", "repro.core.ordering:ShuffleAlways.epoch_row_order", {}),
    ("ordering.permutation", "repro.core.ordering:OrderingPolicy._timed_permutation",
     {"private": True}),
    ("executor.run", "repro.db.executor:Executor.run_aggregate", {}),
    # pool and arena
    ("pool.spawn", "repro.db.supervisor:SupervisedWorkerPool.__init__", {}),
    ("pool.load", "repro.db.process_backend:ProcessWorkerPool.ensure_loaded", {}),
    ("pool.run", "repro.db.process_backend:ProcessWorkerPool.run", {"worker_cpu": True}),
    ("pool.publish", "repro.db.shared_memory:ChunkPageSet.publish", {}),
    ("arena.alloc", "repro.db.shared_memory:SharedMemoryArena.allocate", {"count": _arena_bytes}),
    ("arena.alloc", "repro.db.shared_memory:SharedMemoryArena.allocate_from",
     {"count": _arena_bytes}),
    # segments
    ("segments.load", "repro.db.parallel:SegmentedDatabase.load_table", {}),
    ("segments.redistribute", "repro.db.parallel:SegmentedDatabase.redistribute", {}),
    ("segments.run", "repro.db.parallel:SegmentedDatabase.run_parallel_aggregate", {}),
    # table
    ("table.insert", "repro.db.table:Table.insert_many", {"count": _returned}),
    # wal / checkpoint / recover / device
    ("wal.append", "repro.db.wal:WriteAheadLog.append", {"count": _wal_record_bytes}),
    ("checkpoint.snapshot", "repro.db.engine:Database.checkpoint", {}),
    ("checkpoint.write", "repro.db.checkpoint:CheckpointManager.write", {"count": _file_bytes}),
    ("recover.open", "repro.db.engine:recover_database", {}),
    ("os.fsync", "os:fsync", {"count": _fsync_bytes}),
    # sql / frontend
    ("sql.execute", "repro.db.engine:Database.execute", {}),
    ("sql.parse", "repro.db.engine:parse", {}),
    ("frontend.infer", "repro.frontend.train:_infer_feature_dimension", {"private": True}),
    ("frontend.call", "repro.frontend.train:_train_and_persist", {"private": True}),
    ("frontend.save_model", "repro.frontend.train:save_model", {}),
]


def _wrap(function, recorder: Recorder, base_name: str, options: dict):
    name_of = options.get("name")
    count_of = options.get("count")
    worker_cpu = options.get("worker_cpu", False)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        name = name_of(args, kwargs) if name_of else base_name
        cpu_before = children_cpu_seconds() if worker_cpu else 0.0
        index = recorder.begin(name)
        count = None
        try:
            result = function(*args, **kwargs)
            if worker_cpu:
                count = children_cpu_seconds() - cpu_before
            elif count_of is not None:
                count = count_of(args, kwargs, result)
            return result
        finally:
            recorder.end(index, count)

    return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every row of :data:`HOOKS`; returns the targets that did not resolve."""
    missing = []
    for base_name, target, options in HOOKS:
        module_name, _, path = target.partition(":")
        *owners, attribute = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, recorder, base_name, options))
        else:
            wrapped = _wrap(raw, recorder, base_name, options)
        setattr(owner, attribute, wrapped)
    return missing
