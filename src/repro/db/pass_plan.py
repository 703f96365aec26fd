"""Backend-neutral pass compilation: every per-epoch pass becomes a PassPlan.

Bismarck's thesis is that one aggregate architecture serves every analytics
task; this module is the layer that makes the *execution* side of that claim
real.  Every pass the driver or the experiment harness runs per epoch —

* the **gradient epoch** (IGD as a UDA),
* the **loss/objective** pass behind the stopping rule,
* the **accuracy/metric** evaluation passes, and
* **generic** (non-task) SQL aggregates —

compiles to a small :class:`PassPlan` (pass kind, table + version snapshot,
WHERE / row-order, parallel width, merge contract), and a
single :class:`ExecutionBackend` protocol executes the plan on any of the
four backends: serial, simulated shared-memory (serial IGD over the workers'
window interleave), segmented pure-UDA, or the forked
:class:`~repro.db.process_backend.ProcessWorkerPool`.  The driver's old
spec×backend ``if/elif`` ladder collapses into ``compile_pass(...)`` +
``backend.run(plan)``, and — because loss/accuracy/generic passes ride the
same plans — a ``backend="process"`` run parallelises the *whole* training
loop, not just the gradient pass.

What makes plans backend-portable is one partition → fold → merge path
(:func:`partition_pass`, :func:`run_partitioned`): a multi-part pass is split
by index arithmetic over the table's one cached chunk list — whole chunk ids
for unfiltered ``chunk_partitionable`` reductions (loss, accuracy), visit
ordinals for task-backed aggregates (IGD), raw-row ordinals for aggregates
without a decoding task — each part is folded in this process or on a pool
worker, and the partial states of a **mergeable** aggregate merge
**left-to-right in part order** and only then ``terminate``.  The serial
reference, the segmented engine (in process and on the pool) and the process
backend differ only in who folds a part, which is what makes a process run
bit-for-bit its serial counterpart.  The partition contract itself is stated
once, on :func:`partition_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import numpy as np

from .aggregates import merge_partial_states
from .chunk_plan import interleave_round_robin, resolve_ordinals, split_round_robin
from .errors import ExecutionError, WorkerDiedError
from .expressions import ColumnRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.model import Model
    from ..core.proximal import ProximalOperator
    from ..core.stepsize import StepSizeSchedule
    from ..tasks.base import Task
    from .aggregates import UserDefinedAggregate
    from .chunk_plan import ChunkPlan
    from .engine import Database
    from .executor import Executor
    from .expressions import Expression
    from .parallel import SegmentedDatabase
    from .table import Table

PASS_KINDS = ("train", "loss", "accuracy", "generic")


@dataclass
class TrainEpochContext:
    """Everything a training-epoch plan carries beyond the aggregate pass.

    The process shared-memory epoch does not run the UDA protocol at all —
    it races workers on one shared model — so the plan keeps the raw
    ingredients (task, model, schedule, proximal, epoch bookkeeping,
    parallelism spec) alongside the aggregate factory the other backends use.
    """

    task: "Task"
    model: "Model"
    schedule: "StepSizeSchedule"
    proximal: "ProximalOperator"
    epoch: int = 0
    step_offset: int = 0
    spec: Any = None
    #: Per-segment visit orders (positions within segment ``i``, the rows
    #: ``i::S``) for the segmented (pure-UDA) backend; the plan-level
    #: ``row_order`` covers the single-table backends.
    segment_row_orders: "Sequence[Sequence[int] | None] | None" = None


@dataclass
class PassPlan:
    """One compiled, backend-neutral pass over one table."""

    kind: str
    table: "Table"
    #: Table version snapshotted at compile time.  Backends re-validate the
    #: snapshot before running: append-only deltas (per the table's version
    #: ledger) refresh the plan to the current version, while rewrites —
    #: which invalidate the cached chunk plane — are refused.
    version: int = 0
    #: Row count snapshotted at compile time and refreshed by
    #: :meth:`revalidate` on append-only deltas.
    num_rows: int = 0
    factory: "Callable[[], UserDefinedAggregate] | None" = None
    argument: "Expression | None" = None
    where: "Expression | None" = None
    row_order: "Sequence[int] | None" = None
    #: Requested parallel width.  1 compiles to a plain serial pass; the
    #: effective width is never more than the number of partitionable items.
    workers: int = 1
    mergeable: bool = True
    #: True when the aggregate declared ``chunk_partitionable`` (scalar
    #: reduction) — parallel backends deal whole cached chunks to workers.
    chunk_partitionable: bool = False
    train: TrainEpochContext | None = None

    def revalidate(self) -> "PassPlan":
        """Refresh the plan's version snapshot across append-only deltas.

        A plan compiled at version *v* can keep running at *v+k* when the
        table's ledger shows every intervening mutation appended rows at the
        tail: the cached chunk plane extends rather than invalidates, so the
        plan only needs its version and row-count snapshots re-taken — no
        recompilation.  A rewrite delta (shuffle, cluster, truncate, or a
        range the ledger no longer covers) raises :class:`ExecutionError`
        naming the mutating operation recorded in the ledger.
        """
        delta = self.table.classify_delta(self.version)
        if delta.is_same:
            return self
        if delta.is_append:
            self.version = self.table.version
            self.num_rows = len(self.table)
            return self
        operation = delta.op or "unknown"
        raise ExecutionError(
            f"stale PassPlan: table {self.table.name!r} was rewritten by "
            f"{operation!r} (plan compiled at version {self.version}, table "
            f"now at version {self.table.version}); appends revalidate "
            "automatically but physical rewrites require recompiling the pass"
        )


def compile_pass(
    kind: str,
    table: "Table",
    factory: "Callable[[], UserDefinedAggregate] | None",
    *,
    argument: "Expression | str | None" = None,
    where: "Expression | None" = None,
    row_order: "Sequence[int] | None" = None,
    workers: int = 1,
    train: TrainEpochContext | None = None,
) -> PassPlan:
    """Compile one pass to a backend-neutral plan.

    Probes one aggregate instance from ``factory`` for its merge contract
    (``supports_merge``, ``chunk_partitionable``); the probe is cheap — the
    factories build configuration-only objects.  A column-name ``argument``
    compiles to its column reference.
    """
    if isinstance(argument, str):
        argument = ColumnRef(argument)
    if kind not in PASS_KINDS:
        raise ExecutionError(f"unknown pass kind {kind!r}; expected one of {PASS_KINDS}")
    if workers <= 0:
        raise ExecutionError("pass workers must be positive")
    if kind == "train" and train is None:
        raise ExecutionError("train passes require a TrainEpochContext")
    mergeable = True
    chunk_partitionable = False
    if factory is not None:
        probe = factory()
        mergeable = probe.supports_merge
        chunk_partitionable = bool(
            getattr(probe, "chunk_partitionable", False) and probe.supports_chunks
        )
    return PassPlan(
        kind=kind,
        table=table,
        version=table.version,
        num_rows=len(table),
        factory=factory,
        argument=argument,
        where=where,
        row_order=row_order,
        workers=workers,
        mergeable=mergeable,
        chunk_partitionable=chunk_partitionable,
        train=train,
    )


class PassPartition(NamedTuple):
    """How one multi-part pass is split: what a part holds, and the parts."""

    #: ``"chunks"`` (ids into the cached chunk list), ``"examples"`` (visit
    #: ordinals of a task-decoded table) or ``"rows"`` (raw-row ordinals).
    kind: str
    parts: list
    #: The cached chunk list the ``"chunks"`` ids index; None otherwise.
    chunks: "ChunkPlan | None" = None

    def part_rows(self) -> list[int]:
        """Rows each part visits."""
        if self.chunks is None:
            return [len(part) for part in self.parts]
        batches = self.chunks.batches
        return [sum(len(batches[chunk_id]) for chunk_id in part) for part in self.parts]


def partition_pass(
    executor: "Executor",
    table: "Table",
    instance: "UserDefinedAggregate",
    *,
    where: "Expression | None" = None,
    row_order: "Sequence[int] | None" = None,
    workers: int = 1,
    part_orders: "Sequence[Sequence[int] | None] | None" = None,
) -> PassPartition:
    """The partition contract of every multi-part pass, stated once.

    A partition is index arithmetic over the table's one cached chunk list —
    no part owns a copy of any row.  The width is ``min(workers, items)``
    (at least 1) and item ``j`` goes to part ``j % width``:

    * an unfiltered, unordered pass of a ``chunk_partitionable`` aggregate
      (loss, accuracy) deals **whole chunk ids**, so a part folds cached
      chunks as they are;
    * every other pass deals the positions of its visit sequence (the row
      order, else heap order) — **visit ordinals** a task-backed aggregate
      walks over the chunk list, **raw-row ordinals** for an aggregate
      without a decoding task.  In heap order part ``i`` is rows
      ``i::width``: segment ``i`` of a shared-nothing layout;
    * ``part_orders`` then permutes each part by a part-local order (the
      segment-local shuffles and delta suffixes of a pure-UDA epoch), and
      WHERE drops rows inside each part through the cached selection vector
      — placement never depends on the predicate.
    """
    decoder = instance.chunk_decoder
    whole_chunks = (
        instance.chunk_partitionable
        and where is None and row_order is None and part_orders is None
    )
    if whole_chunks or decoder is None:
        chunks = executor.chunk_plan(table, instance)
        if chunks is not None:
            count = len(chunks.batches)
            width = max(1, min(workers, count))
            ids = [np.arange(part, count, width, dtype=np.intp) for part in range(width)]
            return PassPartition("chunks", ids, chunks)
    cache, functions = executor.example_cache, executor.functions
    mask = cache.selection_for(table, where, functions) if where is not None else None
    orders = None if part_orders is None else list(part_orders)

    def deal() -> list:
        visit = resolve_ordinals(table, cache, functions, None, row_order)
        parts = split_round_robin(visit, max(1, min(workers, len(visit))))
        if orders is not None:
            if len(orders) < len(parts):
                raise ExecutionError(
                    f"{len(parts)} parts need one order each, got {len(orders)}"
                )
            parts = [
                part if order is None else np.asarray(part)[np.asarray(order, dtype=np.intp)]
                for part, order in zip(parts, orders)
            ]
        if mask is not None:
            parts = [np.asarray(part)[mask[part]] for part in parts]
        return parts

    # Parts live as long as the orders they come from: a pass-invariant part
    # is the same order object every epoch, which its fold then gathers once.
    anchors = tuple(
        anchor for anchor in (row_order, mask, *(orders or ())) if anchor is not None
    )
    kept = cache.kept_for(table, anchors, ("parts", workers), None)
    parts = deal() if kept is None else kept.get("parts")
    if parts is None:
        parts = kept["parts"] = deal()
    return PassPartition("rows" if decoder is None else "examples", parts)


def run_partitioned(
    engine: "Database",
    table: "Table",
    instance: "UserDefinedAggregate",
    *,
    argument: "Expression | None" = None,
    where: "Expression | None" = None,
    row_order: "Sequence[int] | None" = None,
    workers: int = 1,
    part_orders: "Sequence[Sequence[int] | None] | None" = None,
    on_pool: bool = False,
) -> "tuple[Any, PassPartition]":
    """Partition → fold → merge: the one path of every multi-part pass.

    Splits the pass with :func:`partition_pass`, folds each part — in this
    process through :meth:`Executor.run_state` (whole chunks directly), or
    with ``on_pool`` one part per worker of the engine's ``workers``-wide
    pool — counts one logical scan, and merges the partial states
    left-to-right.  The backends differ only in who folds a part, and a part
    folds over the same chunk blocks with the same kernels wherever it runs,
    so for a fixed width every backend returns bit-for-bit the same value.
    """
    executor = engine.executor
    partition = partition_pass(
        executor, table, instance, where=where, row_order=row_order,
        workers=workers, part_orders=part_orders,
    )
    kind, parts, chunks = partition
    scans = table.scan_count
    if on_pool:
        from .process_backend import fold_on_pool

        states = fold_on_pool(
            engine.process_pool(workers), executor, table, instance, kind, parts, argument
        )
    elif kind == "chunks":
        states = []
        for part in parts:
            state = instance.initialize()
            for chunk_id in part:
                state = instance.transition_chunk(state, chunks.batches[chunk_id])
            states.append(state)
    else:
        states = [executor.run_state(table, instance, argument, row_order=part) for part in parts]
    # The parts together read each visited row once: one logical scan.
    table.scan_count = scans + 1
    return merge_partial_states(instance, states), partition


def _retry_then_degrade(
    engine: "Database",
    plan: PassPlan,
    attempt: Callable[[], Any],
    *,
    from_backend: str,
    fallback: "tuple[str, Callable[[], Any]]",
    reset: "Callable[[], None] | None" = None,
) -> Any:
    """The one retry-then-degrade policy of process-backed plans.

    The engine's pools are supervised, so worker death or a blown reply
    deadline surfaces as a *recoverable*
    :class:`~repro.db.errors.WorkerDiedError` after the pool respawned the
    casualties: ``attempt`` is simply re-run (after ``reset`` undid whatever
    the aborted attempt mutated).  Once the respawn budget is exhausted
    (``recoverable=False``) the pass runs ``fallback`` — ``(backend name,
    runner)``, the same plan in this process — after emitting one structured
    :class:`~repro.db.supervisor.DegradationEvent` instead of raising.  The
    engine's sticky ``process_degraded`` flag routes every later plan of the
    run to its fallback immediately rather than rebuilding (and re-losing) a
    pool each epoch.
    """
    from .supervisor import DegradationEvent

    reason = "process backend degraded earlier in this run"
    while not engine.process_degraded:
        try:
            return attempt()
        except WorkerDiedError as error:
            if reset is not None:
                reset()
            if not error.recoverable:
                engine.mark_process_degraded()
                reason = str(error)
    to_backend, runner = fallback
    engine.record_recovery_event(
        DegradationEvent(
            plan_kind=plan.kind,
            from_backend=from_backend,
            to_backend=to_backend,
            reason=reason,
        )
    )
    return runner()


# ---------------------------------------------------------------------------
# The backend protocol and its four implementations
# ---------------------------------------------------------------------------
class ExecutionBackend:
    """Executes compiled pass plans.  ``run`` returns the pass value —
    ``(model, steps)`` for train plans, the aggregate result otherwise."""

    name = "backend"

    def run(self, plan: PassPlan) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _steps_taken(model: "Model", step_offset: int, fallback: int) -> int:
    steps = int(model.metadata.get("gradient_steps", fallback)) - step_offset
    return max(steps, 0)


class SerialBackend(ExecutionBackend):
    """Runs plans in this process on the engine's executor.

    Multi-partition mergeable plans run the *reference partitioned pass* —
    :func:`run_partitioned` folding every part in this process — which is
    what gives every parallel backend an in-process bit-for-bit counterpart.
    """

    name = "serial"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        plan.revalidate()
        executor = self.engine.executor
        if plan.kind == "train":
            context = plan.train
            model = executor.run_aggregate(
                plan.table, plan.factory(), where=plan.where, row_order=plan.row_order
            )
            return model, _steps_taken(model, context.step_offset, len(plan.table))
        if plan.workers > 1 and plan.mergeable:
            return _run_plan_partitioned(self.engine, plan, on_pool=False)
        return executor.run_aggregate(
            plan.table, plan.factory(), plan.argument, where=plan.where, row_order=plan.row_order
        )


class SharedMemoryBackend(ExecutionBackend):
    """The simulated shared-memory epoch: serial IGD over the window interleave.

    Workers that take turns, each stepping a private copy of the model over
    its next ``effective_staleness()`` rows and publishing it before the
    next worker reads, visit the rows in
    :func:`~repro.db.chunk_plan.interleave_round_robin` order and never see
    a stale model.  So the epoch is :class:`SerialBackend`'s run of the same
    plan over that order; the three schemes differ only in their default
    window.
    """

    name = "shared_memory"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        if plan.kind != "train":
            raise ExecutionError(
                "the shared-memory epoch backend only executes train plans; "
                "evaluation passes compile to the serial or process backends"
            )
        spec = plan.train.spec
        order = np.arange(len(plan.table)) if plan.row_order is None else plan.row_order
        visit = interleave_round_robin(order, spec.workers, spec.effective_staleness())
        return SerialBackend(self.engine).run(replace(plan, row_order=visit))


class SegmentedBackend(ExecutionBackend):
    """Shared-nothing segments merged by the aggregate's ``merge`` function.

    ``process=True`` folds each segment in its own OS worker (bit-for-bit the
    in-process result — :func:`run_partitioned` either way).
    """

    name = "segmented"

    def __init__(self, database: "SegmentedDatabase", *, process: bool = False):
        self.database = database
        self.process = process

    def run(self, plan: PassPlan) -> Any:
        """Run the plan; process-backed segment runs retry and degrade.

        Pure-UDA segment passes are deterministic (shared-nothing partitions,
        left-to-right merge), so a retried pass re-runs bit-for-bit, and the
        one fallback is the in-process segmented engine — the same
        partitions on one core.
        """
        if not self.process:
            return self._run(plan, "in_process")
        return _retry_then_degrade(
            _engine_of(self.database),
            plan,
            lambda: self._run(plan, "process"),
            from_backend="segmented_process",
            fallback=("segmented", lambda: self._run(plan, "in_process")),
        )

    def _run(self, plan: PassPlan, backend: str) -> Any:
        plan.revalidate()
        context = plan.train
        outcome = self.database.run_parallel_aggregate(
            plan.table.name,
            plan.factory,
            plan.argument,
            where=plan.where,
            segment_row_orders=None if context is None else context.segment_row_orders,
            backend=backend,
        )
        if context is None:
            return outcome.value
        model: "Model" = outcome.value
        return model, _steps_taken(model, context.step_offset, len(plan.table))


class ProcessBackend(ExecutionBackend):
    """Runs plans on the engine's persistent forked worker pool.

    Train plans with a shared-memory spec race real OS workers on the
    mmap-shared model; every other plan is :func:`run_partitioned` with one
    part per pool worker — bit-for-bit the :class:`SerialBackend` reference
    of the same plan.

    Self-healing follows :func:`_retry_then_degrade`.  Retry semantics follow
    the plan's determinism contract: mergeable aggregate passes re-run
    bit-for-bit (nothing was mutated — the aborted partials were discarded),
    while racy shared-memory train epochs restore the model from a snapshot
    taken at epoch start, so a retried epoch never trains on the half-written
    model the failed attempt raced on.  Every plan degrades to
    :class:`SerialBackend` of the same plan: bit-for-bit for evaluation, and
    for a train plan the serial epoch over the plan's own visit order.
    """

    name = "process"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        plan.revalidate()
        engine = self.engine
        snapshot = None
        if plan.kind == "train":
            # Racy shared-memory epochs mutate the mmap'd model in place; a
            # retried epoch must start from the epoch-start model, not from
            # whatever the aborted attempt half-wrote.
            snapshot = plan.train.model.as_flat_vector()

        def reset() -> None:
            # The aborted epoch's scratch segment is freed by the runner's
            # finally, but sweep defensively: a retry re-allocates under the
            # same logical name and must find it free.
            engine.shared_memory.sweep_orphans()
            if snapshot is not None:
                plan.train.model.load_flat_vector(snapshot)

        return _retry_then_degrade(
            engine,
            plan,
            lambda: self._execute(plan),
            from_backend="process",
            fallback=("serial", lambda: SerialBackend(engine).run(plan)),
            reset=reset,
        )

    def _execute(self, plan: PassPlan) -> Any:
        if plan.kind == "train":
            from .process_backend import run_process_shared_memory_epoch
            from .shared_memory import SharedMemoryParallelism

            context = plan.train
            if not isinstance(context.spec, SharedMemoryParallelism):
                raise ExecutionError(
                    "process train plans require a SharedMemoryParallelism "
                    "spec; pure-UDA process epochs run on the segmented "
                    "backend with process=True"
                )
            return run_process_shared_memory_epoch(
                plan.table,
                context.task,
                context.model,
                context.schedule,
                spec=context.spec,
                pool=self.engine.process_pool(context.spec.workers),
                arena=self.engine.shared_memory,
                executor=self.engine.executor,
                epoch=context.epoch,
                step_offset=context.step_offset,
                proximal=context.proximal,
                row_order=plan.row_order,
            )
        if not plan.mergeable:
            raise ExecutionError(
                f"aggregate {type(plan.factory()).__name__} does not support merge; "
                "the process backend requires an algebraic (mergeable) aggregate"
            )
        return _run_plan_partitioned(self.engine, plan, on_pool=True)


def _run_plan_partitioned(engine: "Database", plan: PassPlan, *, on_pool: bool) -> Any:
    value, _ = run_partitioned(
        engine, plan.table, plan.factory(), argument=plan.argument, where=plan.where,
        row_order=plan.row_order, workers=plan.workers, on_pool=on_pool,
    )
    return value


# ---------------------------------------------------------------------------
# Backend resolution (the driver's former if/elif ladder, as data)
# ---------------------------------------------------------------------------
def _engine_of(database: "Database | SegmentedDatabase") -> "Database":
    from .parallel import SegmentedDatabase

    return database.master if isinstance(database, SegmentedDatabase) else database


def epoch_backend(database: "Database | SegmentedDatabase", spec: Any) -> ExecutionBackend:
    """The backend that executes a training-epoch plan under ``spec``."""
    from ..core.parallel import PureUDAParallelism
    from .parallel import SegmentedDatabase
    from .shared_memory import SharedMemoryParallelism

    if isinstance(spec, SharedMemoryParallelism):
        engine = _engine_of(database)
        if spec.backend == "process":
            return ProcessBackend(engine)
        return SharedMemoryBackend(engine)
    if isinstance(spec, PureUDAParallelism):
        if not isinstance(database, SegmentedDatabase):
            raise TypeError(
                "pure-UDA parallelism requires a SegmentedDatabase "
                "(shared-nothing segments)"
            )
        if spec.segments not in (None, database.num_segments):
            raise ExecutionError(
                f"PureUDAParallelism(segments={spec.segments}) does not match the "
                f"database's {database.num_segments} segments; the pass width is "
                "the database's segment count"
            )
        return SegmentedBackend(database, process=spec.backend == "process")
    return SerialBackend(_engine_of(database))


def evaluation_backend(
    database: "Database | SegmentedDatabase", spec: Any
) -> tuple[ExecutionBackend, int]:
    """(backend, workers) for the loss/accuracy passes of a run under ``spec``.

    Process-backed training runs evaluate on the same worker pool (the whole
    loop parallelises); in-process runs keep the serial vectorized evaluation
    — on one core the chunked kernels already win, and the deterministic
    figures pin their exact values.
    """
    from ..core.parallel import PureUDAParallelism
    from .parallel import SegmentedDatabase
    from .shared_memory import SharedMemoryParallelism

    engine = _engine_of(database)
    if isinstance(spec, SharedMemoryParallelism) and spec.backend == "process":
        return ProcessBackend(engine), spec.workers
    if isinstance(spec, PureUDAParallelism) and spec.backend == "process":
        workers = (
            database.num_segments if isinstance(database, SegmentedDatabase) else 1
        )
        return ProcessBackend(engine), max(workers, 1)
    return SerialBackend(engine), 1
