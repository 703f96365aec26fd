"""The Bismarck epoch loop (Figure 2): run IGD-as-a-UDA to convergence.

The driver owns everything outside the aggregate itself: the data-ordering
policy, the parallelism mode, the per-epoch loss computation (itself a UDA),
the stopping rule, and the bookkeeping the experiments consume (per-epoch
objective, wall-clock time, gradient-step counts).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..db.checkpoint import TrainingState
from ..db.engine import Database
from ..db.parallel import SegmentedDatabase
from ..db.pass_plan import (
    TrainEpochContext,
    compile_pass,
    epoch_backend,
    evaluation_backend,
)
from ..db.shared_memory import SharedMemoryParallelism
from ..db.table import Table
from ..tasks.base import Task
from .batching import BatchSchedule, make_batch_schedule
from .convergence import EpochRecord, StoppingRule, make_stopping_rule
from .model import Model
from .ordering import OrderingPolicy, make_ordering
from .parallel import PureUDAParallelism
from .proximal import ProximalOperator
from .stepsize import StepSizeSchedule, make_schedule
from .uda import IGDAggregate, LossAggregate


@dataclass
class IGDConfig:
    """Configuration of one Bismarck training run."""

    step_size: StepSizeSchedule | float | dict = 0.1
    max_epochs: int = 20
    #: Data-ordering policy.  Shuffle policies named by string default to
    #: *logical* mode — they hand the backends a permutation over a stable
    #: table version instead of rewriting the heap, so the example cache
    #: survives re-shuffles; pass e.g. ``ShuffleAlways(mode="physical")`` to
    #: get the paper's physical rewrite (the engine-overhead experiments do).
    #: The sampling schemes are visit orders too and need a buffer size:
    #: ``Subsample(n)`` trains on one reservoir sample, ``MultiplexedReservoir(n)``
    #: is MRS (Section 3.4) — both run on every backend.
    ordering: OrderingPolicy | str | None = "shuffle_once"
    stopping: StoppingRule | int | dict | None = None
    parallelism: PureUDAParallelism | SharedMemoryParallelism | None = None
    proximal: ProximalOperator | None = None
    seed: int | None = 0
    #: Whether to evaluate the objective after every epoch (needed by most
    #: stopping rules; can be disabled for pure-throughput measurements).
    compute_objective: bool = True
    #: Mini-batch size.  1 (default) is the paper's exact IGD: one gradient
    #: step per tuple.  B > 1 is opt-in mini-batch SGD — one averaged-gradient
    #: step per B examples — and needs a task that batches the table (an
    #: unbatchable pair fails at its first row, before any step).  A
    #: :class:`~repro.core.batching.BatchSchedule` (or its dict spec) makes
    #: the size epoch-adaptive: constant or geometric growth.
    batch_size: int | BatchSchedule | dict = 1
    #: Whether a process-backed parallel run also executes its loss/objective
    #: pass on the worker pool (the whole-loop parallelisation).  False keeps
    #: the gradient-only parallelisation: evaluation stays on the serial
    #: vectorized path.  Irrelevant for serial and in-process parallel runs,
    #: whose evaluation is serial either way.
    parallel_evaluation: bool = True
    #: Save a :class:`~repro.db.checkpoint.TrainingState` every N completed
    #: epochs — one WAL record on a durable engine; whole-catalog snapshots
    #: are the engine's business, amortised against log volume.  0 disables
    #: epoch checkpointing.  A run resumed from the saved state
    #: (``train(..., resume_from=state)``) continues bit-for-bit for
    #: deterministic schemes.
    checkpoint_every: int = 0
    #: Name the training state is saved under (defaults to the table name).
    checkpoint_name: str | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        schedule = make_batch_schedule(self.batch_size)
        if schedule.max_batch_size(self.max_epochs) > 1 and isinstance(
            self.parallelism, SharedMemoryParallelism
        ):
            raise ValueError("mini-batch IGD runs serial or pure-UDA, not shared-memory")

    def resolved_stopping(self) -> StoppingRule:
        return make_stopping_rule(self.stopping, max_epochs=self.max_epochs)

    def resolved_ordering(self) -> OrderingPolicy:
        return make_ordering(self.ordering)

    def resolved_batch_schedule(self) -> BatchSchedule:
        return make_batch_schedule(self.batch_size)


@dataclass
class IGDResult:
    """Outcome of a Bismarck training run."""

    model: Model
    history: list[EpochRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    converged: bool = False
    task_name: str = ""
    ordering_name: str = ""
    parallelism_name: str = "serial"
    shuffle_seconds: float = 0.0
    #: Version of the trained table when the run finished — the watermark a
    #: later :meth:`BismarckRunner.partial_fit` continues from.  ``-1`` for
    #: runs with no backing table (``train_in_memory``).
    table_version: int = -1
    #: Structured RecoveryEvent / DegradationEvent records this run absorbed
    #: (supervised-pool respawns, backend fallbacks).  Empty for clean runs.
    recovery_events: list = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.history)

    @property
    def respawn_count(self) -> int:
        """Worker-respawn recovery rounds absorbed during this run."""
        return sum(
            1 for event in self.recovery_events if getattr(event, "respawned", False)
        )

    @property
    def degraded(self) -> bool:
        """True when any pass fell back from the process backend."""
        return any(
            hasattr(event, "to_backend") for event in self.recovery_events
        )

    @property
    def final_objective(self) -> float:
        return self.history[-1].objective if self.history else float("nan")

    def objective_trace(self) -> list[float]:
        return [record.objective for record in self.history]

    def time_trace(self) -> list[float]:
        """Cumulative wall-clock seconds at the end of each epoch."""
        cumulative = 0.0
        trace = []
        for record in self.history:
            cumulative += record.elapsed_seconds
            trace.append(cumulative)
        return trace

    def epochs_to_reach(self, target_objective: float) -> int | None:
        """First epoch count at which the objective is <= target (1-based)."""
        for record in self.history:
            if record.objective <= target_objective:
                return record.epoch + 1
        return None

    def time_to_reach(self, target_objective: float) -> float | None:
        """Cumulative seconds at which the objective first reached the target."""
        cumulative = 0.0
        for record in self.history:
            cumulative += record.elapsed_seconds
            if record.objective <= target_objective:
                return cumulative
        return None


class BismarckRunner:
    """Trains one task over one table in a database using IGD-as-a-UDA."""

    def __init__(
        self,
        database: Database | SegmentedDatabase,
        task: Task,
        config: IGDConfig | None = None,
    ):
        self.database = database
        self.task = task
        self.config = config or IGDConfig()

    # ---------------------------------------------------------------- public
    def train(
        self,
        table_name: str,
        *,
        initial_model: Model | None = None,
        resume_from: TrainingState | None = None,
    ) -> IGDResult:
        """Run the epoch loop; optionally resume an interrupted run.

        ``resume_from`` continues from a saved
        :class:`~repro.db.checkpoint.TrainingState` (e.g. recovered by
        ``Database.open`` after a crash): the model, RNG, ordering policy
        (with its drawn permutations), history and step counter pick up at
        ``next_epoch``, and — crucially — ``prepare`` is *not* re-run, so a
        physically shuffled heap is not reshuffled.  Deterministic schemes
        (serial, pure-UDA process) resume bit-for-bit.
        """
        config = self.config
        table = self._engine().table(table_name)
        total_start = time.perf_counter()
        if resume_from is not None:
            rng = copy.deepcopy(resume_from.rng)
            ordering = (
                copy.deepcopy(resume_from.ordering)
                if resume_from.ordering is not None
                else config.resolved_ordering()
            )
            model = resume_from.model.copy()
            step_offset = resume_from.step_offset
            history = list(resume_from.history)
            start_epoch = resume_from.next_epoch
        else:
            rng = np.random.default_rng(config.seed)
            ordering = config.resolved_ordering()
            ordering.prepare(table, rng)
            model = (
                initial_model.copy()
                if initial_model is not None
                else self.task.initial_model(rng)
            )
            step_offset = 0
            history = []
            start_epoch = 0

        def policy_orders(epoch: int) -> tuple:
            ordering.before_epoch(table, epoch, rng)
            lengths = self._segment_lengths(table)
            if lengths is None:
                return ordering.epoch_row_order(len(table), epoch, rng), None
            # Logical shuffles permute each shared-nothing segment in place
            # (rows never migrate between segments, exactly like independent
            # segment-local ORDER BY RANDOM() runs — the partition index keys
            # each segment's own permutation).
            orders = [
                ordering.epoch_row_order(length, epoch, rng, partition=index)
                for index, length in enumerate(lengths)
            ]
            return None, None if all(order is None for order in orders) else orders

        return self._run_epochs(
            table_name, table, total_start, policy_orders,
            range(start_epoch, config.max_epochs),
            model=model, rng=rng, ordering=ordering,
            step_offset=step_offset, history=history,
        )

    def partial_fit(
        self,
        table_name: str,
        *,
        initial_model: Model | None = None,
        since_version: int | None = None,
        full_pass_every: int = 0,
        max_epochs: int | None = None,
        resume_from: TrainingState | None = None,
    ) -> IGDResult:
        """Continue training over the rows appended since ``since_version``.

        The incremental-ingest entry point.  The table's append-aware ledger
        classifies how it moved from ``since_version`` to now:

        * ``same`` — nothing new arrived; returns immediately with a copy of
          the warm model (``converged=True``, zero epochs).
        * ``append`` — runs IGD epochs whose visit order covers only the
          delta rows, each epoch freshly permuted, plus a periodic pass over
          the *whole* table every ``full_pass_every`` delta epochs (0 =
          never) so old rows keep influencing the model.  The heap is never
          rewritten, so the example cache extends incrementally and the cost
          of refreshing the model scales with the delta, not the table.
        * ``rewrite`` — the premise that old rows were already absorbed is
          gone; falls back to a full :meth:`train` warm-started from
          ``initial_model``.

        A missing warm start (``initial_model`` or ``since_version`` is
        ``None``) also falls back to full training.  The objective, when
        computed, is always the full-table objective — it measures model
        freshness against *all* data, which is what the stopping rule and
        the streaming experiments care about.  Composes with every backend
        :meth:`train` supports and with epoch-adaptive batch schedules.

        ``resume_from`` short-circuits everything: a crash-interrupted run's
        saved :class:`~repro.db.checkpoint.TrainingState` (recovered by
        ``Database.open``) is continued via :meth:`train`'s resume path —
        after the WAL replay reconstructed the table and its ledger, the
        state's watermark and the ledger agree on exactly the unreplayed
        delta.
        """
        config = self.config
        if resume_from is not None:
            return self.train(table_name, resume_from=resume_from)
        table = self._engine().table(table_name)
        delta = (
            table.classify_delta(since_version) if since_version is not None else None
        )
        if initial_model is None or delta is None or delta.kind == "rewrite":
            return self.train(table_name, initial_model=initial_model)

        total_start = time.perf_counter()
        epochs = max_epochs if max_epochs is not None else config.max_epochs
        rng = np.random.default_rng(config.seed)

        def delta_orders(epoch: int) -> tuple:
            """Permuted visit orders over the delta rows, or the whole table.

            Round-robin placement puts master row ``g`` in segment ``g % S``,
            so a prefix of every segment holds old rows and the suffix holds
            the delta.
            """
            full = full_pass_every > 0 and (epoch + 1) % full_pass_every == 0
            start = 0 if full else delta.base_rows
            lengths = self._segment_lengths(table)
            if lengths is None:
                return start + rng.permutation(len(table) - start), None
            old = [len(range(index, start, len(lengths))) for index in range(len(lengths))]
            return None, [
                skip + rng.permutation(length - skip) for skip, length in zip(old, lengths)
            ]

        # Delta epochs checkpoint too (ordering=None: a resumed continuation
        # run re-covers the whole table, which is safe — the bit-for-bit
        # resume contract is train()'s).
        return self._run_epochs(
            table_name, table, total_start, delta_orders, range(epochs),
            model=initial_model.copy(), rng=rng, ordering=None,
            ordering_name=f"delta[{delta.rows_added}]",
            # Nothing new arrived: the warm model stands as it is.
            converged=delta.is_same,
        )

    # -------------------------------------------------------------- internals
    def _segment_lengths(self, table: Table) -> list[int] | None:
        """Row counts of the segments a pure-UDA epoch folds (segment ``i`` of
        ``S`` is rows ``i::S``); None for the one-table backends."""
        if not (
            isinstance(self.config.parallelism, PureUDAParallelism)
            and isinstance(self.database, SegmentedDatabase)
        ):
            return None
        count = self.database.num_segments
        return [len(range(index, len(table), count)) for index in range(count)]

    def _run_epochs(
        self,
        table_name: str,
        table: Table,
        total_start: float,
        orders_for,
        epochs: range,
        *,
        model: Model,
        rng: np.random.Generator,
        ordering: OrderingPolicy | None,
        step_offset: int = 0,
        history: list | None = None,
        ordering_name: str | None = None,
        converged: bool = False,
    ) -> IGDResult:
        """The one epoch loop: gradient pass, objective, record, checkpoint, stop.

        ``orders_for(epoch)`` is where :meth:`train` and :meth:`partial_fit`
        differ: it returns the epoch's ``(row_order, segment_orders)`` pair,
        from the ordering policy or over the appended rows.
        """
        config = self.config
        engine = self._engine()
        # The result reports exactly the incidents (respawns, degradations)
        # absorbed by *this* run.
        recovery_mark = len(engine.recovery_log)
        stopping = config.resolved_stopping()
        schedule = make_schedule(config.step_size)
        proximal = config.proximal if config.proximal is not None else self.task.proximal
        history = [] if history is None else history
        # A resumed run whose restored history already satisfies the stopping
        # rule (the crash happened after convergence but before persistence)
        # must not run extra epochs.
        converged = converged or (
            bool(history) and config.compute_objective and stopping.should_stop(history)
        )
        for epoch in epochs:
            if converged:
                break
            epoch_start = time.perf_counter()
            model, steps = self._run_epoch(
                table, model, schedule, proximal, epoch, step_offset, orders_for(epoch)
            )
            step_offset += steps
            # Mid-epoch crash hazard: the gradient pass ran, nothing below
            # (objective, history, saved state) has.  Recovery must fall back
            # to the state the previous epoch logged.
            self._crash_point(engine, "epoch")

            objective = float("nan")
            if config.compute_objective:
                objective = self._compute_objective(table, model, proximal)
            history.append(
                EpochRecord(
                    epoch=epoch,
                    objective=objective,
                    elapsed_seconds=time.perf_counter() - epoch_start,
                    gradient_steps=step_offset,
                    model_norm=model.norm(),
                )
            )
            self._maybe_checkpoint(
                engine, table_name, table, model, rng, ordering, epoch, step_offset,
                history,
            )
            converged = config.compute_objective and stopping.should_stop(history)

        return IGDResult(
            model=model,
            history=history,
            total_seconds=time.perf_counter() - total_start,
            converged=converged,
            task_name=self.task.describe(),
            ordering_name=ordering_name or ordering.describe(),
            parallelism_name=self._parallelism_name(),
            shuffle_seconds=ordering.shuffle_seconds if ordering is not None else 0.0,
            table_version=table.version,
            recovery_events=list(engine.recovery_log[recovery_mark:]),
        )

    def _crash_point(self, engine, op: str) -> None:
        """Fire the engine's crash injector at a named hazard point."""
        injector = getattr(engine, "crash_injector", None)
        if injector is not None and injector.armed:
            injector.crash_point(op)

    def _maybe_checkpoint(
        self,
        engine,
        table_name: str,
        table: Table,
        model: Model,
        rng: np.random.Generator,
        ordering: OrderingPolicy | None,
        epoch: int,
        step_offset: int,
        history: list,
    ) -> None:
        """Hand the engine a TrainingState at epoch boundaries.

        The RNG and the ordering policy are *deep-copied* mid-stream: shuffle
        policies cache lazily drawn permutations, and both the cache and the
        generator state are part of what makes a resumed run bit-for-bit
        identical to the uninterrupted one.
        """
        config = self.config
        if config.checkpoint_every <= 0:
            return
        if (epoch + 1) % config.checkpoint_every != 0:
            return
        state = TrainingState(
            name=(config.checkpoint_name or table_name).lower(),
            task=self.task.describe(),
            table_name=table_name.lower(),
            table_version=table.version,
            model=model.copy(),
            next_epoch=epoch + 1,
            step_offset=step_offset,
            history=list(history),
            rng=copy.deepcopy(rng),
            ordering=copy.deepcopy(ordering),
        )
        engine.save_training_state(state)

    def _engine(self) -> Database:
        if isinstance(self.database, SegmentedDatabase):
            return self.database.master
        return self.database

    def _parallelism_name(self) -> str:
        spec = self.config.parallelism
        if spec is None:
            return "serial"
        suffix = "+process" if getattr(spec, "backend", "") == "process" else ""
        if isinstance(spec, PureUDAParallelism):
            return f"pure_uda{suffix}"
        return f"shared_memory[{spec.scheme}x{spec.workers}]{suffix}"

    def _run_epoch(
        self,
        table: Table,
        model: Model,
        schedule: StepSizeSchedule,
        proximal: ProximalOperator,
        epoch: int,
        step_offset: int,
        orders: tuple,
    ) -> tuple[Model, int]:
        """Compile this epoch's gradient pass to a PassPlan and execute it.

        The spec×backend choice lives in
        :func:`repro.db.pass_plan.epoch_backend`; here we only gather the
        epoch's ingredients (aggregate factory, epoch context and
        ``orders`` — the epoch's ``(row_order, segment_orders)`` pair) into
        one plan that any backend can run.
        """
        spec = self.config.parallelism
        batch_size = self.config.resolved_batch_schedule().batch_size(epoch)
        factory = lambda: IGDAggregate(  # noqa: E731 - tiny closure
            self.task,
            schedule,
            initial_model=model,
            proximal=proximal,
            epoch=epoch,
            step_offset=step_offset,
            batch_size=batch_size,
        )
        row_order, segment_orders = orders
        backend = epoch_backend(self.database, spec)
        plan = compile_pass(
            "train",
            table,
            factory,
            row_order=row_order,
            workers=getattr(spec, "workers", 1) or 1,
            train=TrainEpochContext(
                task=self.task,
                model=model,
                schedule=schedule,
                proximal=proximal,
                epoch=epoch,
                step_offset=step_offset,
                spec=spec,
                batch_size=batch_size,
                segment_row_orders=segment_orders,
            ),
        )
        return backend.run(plan)

    def _compute_objective(
        self, table: Table, model: Model, proximal: ProximalOperator
    ) -> float:
        # The loss pass follows the same chunk-or-rows rule — and, for
        # process-backed runs, rides the same worker pool and resident
        # payload — as training; the shared example cache is keyed on the
        # table's version, so any shuffle or re-clustering between epochs
        # busts it automatically.
        spec = self.config.parallelism if self.config.parallel_evaluation else None
        backend, workers = evaluation_backend(self.database, spec)
        plan = compile_pass(
            "loss", table, lambda: LossAggregate(self.task, model), workers=workers
        )
        data_term = backend.run(plan)
        return float(data_term) + proximal.penalty(model)


def train(
    task: Task,
    database: Database | SegmentedDatabase,
    table_name: str,
    *,
    config: IGDConfig | None = None,
    initial_model: Model | None = None,
    **config_overrides,
) -> IGDResult:
    """Convenience wrapper: build a runner and train.

    Keyword overrides are applied on top of ``config`` (or a default config),
    e.g. ``train(task, db, "points", max_epochs=5, ordering="clustered")``.
    """
    base = config or IGDConfig()
    if config_overrides:
        values = {**base.__dict__, **config_overrides}
        base = IGDConfig(**values)
    return BismarckRunner(database, task, base).train(table_name, initial_model=initial_model)


def train_in_memory(
    task: Task,
    examples: Sequence,
    *,
    step_size: StepSizeSchedule | float | dict = 0.1,
    epochs: int = 20,
    shuffle: bool = True,
    seed: int | None = 0,
    proximal: ProximalOperator | None = None,
    compute_objective: bool = True,
) -> IGDResult:
    """Run plain IGD over an in-memory example list (no database involved).

    Used by baselines, unit tests and the parallel-convergence experiments that
    need to control the example stream directly.
    """
    rng = np.random.default_rng(seed)
    schedule = make_schedule(step_size)
    proximal = proximal if proximal is not None else task.proximal
    data = list(examples)
    if shuffle:
        permutation = rng.permutation(len(data))
        data = [data[i] for i in permutation]

    model = task.initial_model(rng)
    history: list[EpochRecord] = []
    steps = 0
    total_start = time.perf_counter()
    for epoch in range(epochs):
        epoch_start = time.perf_counter()
        for example in data:
            alpha = schedule.step_size(steps, epoch)
            task.gradient_step(model, example, alpha)
            proximal.apply(model, alpha)
            steps += 1
        objective = float("nan")
        if compute_objective:
            objective = task.total_loss(model, data) + proximal.penalty(model)
        history.append(
            EpochRecord(
                epoch=epoch,
                objective=objective,
                elapsed_seconds=time.perf_counter() - epoch_start,
                gradient_steps=steps,
                model_norm=model.norm(),
            )
        )
    return IGDResult(
        model=model,
        history=history,
        total_seconds=time.perf_counter() - total_start,
        converged=False,
        task_name=task.describe(),
        ordering_name="shuffle_once" if shuffle else "as_given",
        parallelism_name="in_memory",
    )
