"""The single-node database engine facade.

:class:`Database` ties together the catalog (tables), the UDA registry, scalar
user-defined functions, the shared-memory arena and the executor.  There is
one engine: the string a database is constructed with is a display label and
selects nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .aggregates import AggregateRegistry, UserDefinedAggregate
from .checkpoint import CheckpointManager, TrainingState, recover_database
from .errors import DuplicateTableError, ExecutionError, UnknownTableError
from .executor import Executor, QueryResult
from .expressions import Expression
from .fault import CrashInjector, crashes_from_env, faults_from_env
from .parser import (
    CreateTableStatement,
    DropTableStatement,
    InsertStatement,
    SelectStatement,
    parse,
)
from .shared_memory import SharedMemoryArena
from .table import LedgerEntry, Table, encode_rows
from .types import Column, ColumnType, Schema
from .wal import DurabilityPolicy, WriteAheadLog, prune_segments


class Database:
    """A single-node in-memory database instance."""

    def __init__(
        self,
        label: str = "postgres",
        *,
        seed: int | None = None,
        recovery: "object | None" = None,
        faults: "Sequence | None" = None,
        cache_entries: int | None = None,
        path: "str | Path | None" = None,
        durability: "DurabilityPolicy | str | None" = None,
        crashes: "Sequence | None" = None,
    ):
        #: Display name only (shown by ``repr``); it selects nothing.
        self.label = label
        self.tables: dict[str, Table] = {}
        self.aggregates = AggregateRegistry()
        self.functions: dict[str, Callable] = {}
        self.shared_memory = SharedMemoryArena()
        #: Process-backend worker pools, keyed by worker count and reused
        #: across epochs/runs so an epoch costs messages, not process spawns.
        self._process_pools: dict[int, "object"] = {}
        #: Recovery policy for supervised pools (None → RecoveryPolicy.from_env()
        #: at pool creation) and fault plans for the injection harness (None →
        #: read REPRO_FAULT at pool creation).
        self.recovery_policy = recovery
        self.fault_plans = faults
        # Fail loudly on malformed env specs *at construction* instead of
        # deep inside the first pool build or training epoch: validate
        # REPRO_RECOVERY_* and REPRO_FAULT eagerly whenever the engine would
        # later read them (EnvSpecError, a ValueError, names the bad field).
        if recovery is None:
            from .supervisor import RecoveryPolicy

            RecoveryPolicy.from_env()
        if faults is None:
            faults_from_env()
        #: Whole-process crash injection (REPRO_CRASH / ``crashes=``): the
        #: driver, the WAL and the checkpoint writer call its crash points.
        self.crash_injector = CrashInjector(
            crashes if crashes is not None else crashes_from_env()
        )
        #: Structured RecoveryEvent / DegradationEvent log, appended to by
        #: supervised pools and the degradation ladder.  The driver snapshots
        #: it around a training run to report what a run absorbed.
        self.recovery_log: list = []
        #: Sticky flag: once the respawn budget is exhausted, process-backed
        #: plans skip straight to their fallback instead of rebuilding (and
        #: re-losing) a pool every epoch.  Cleared by :meth:`reset_degradation`.
        self.process_degraded = False
        self.rng = np.random.default_rng(seed)
        executor_kwargs = {}
        if cache_entries is not None:
            # Bound on retained ExampleCache entries (LRU by last touch) so
            # long streaming runs do not grow decoded-batch memory unbounded.
            executor_kwargs["cache_entries"] = cache_entries
        self.executor = Executor(
            self.aggregates,
            self.functions,
            rng=self.rng,
            **executor_kwargs,
        )

        # ------------------------------------------------------- durability
        #: Saved TrainingState objects by name.  In-memory for every engine;
        #: logged (and carried by each snapshot) when the engine is durable.
        self._training_states: dict[str, TrainingState] = {}
        #: What the snapshot rule needs of the newest snapshot: the segment
        #: its WAL position opens and its file size (none yet: -1 and 0).
        self._snapshot_segment = -1
        self._snapshot_bytes = 0
        self.durability = DurabilityPolicy.resolve(durability)
        self.path = Path(path) if path is not None else None
        self.wal: "WriteAheadLog | None" = None
        self.checkpoints: "CheckpointManager | None" = None
        #: :class:`~repro.db.checkpoint.RecoveryReport` of what opening this
        #: directory recovered (None for non-durable engines).
        self.recovery_report = None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self.checkpoints = CheckpointManager(self.path, crash=self.crash_injector)
            # Recovery runs before the WAL reopens for append and before
            # observers attach, so replayed mutations are never re-logged.
            self.recovery_report = recover_database(self, self.path)
            if self.durability.wal_enabled:
                self.wal = WriteAheadLog(
                    self.path, self.durability, crash=self.crash_injector
                )
            for table in self.tables.values():
                table.add_observer(self._on_table_mutation)

    @classmethod
    def open(cls, path: "str | Path", label: str = "postgres", **kwargs) -> "Database":
        """Open (creating or recovering) a durable database directory.

        A fresh directory starts empty with a live WAL; an existing one is
        recovered — latest valid snapshot, WAL replayed past it (tables and
        training states alike) — before the instance is returned.  See
        :attr:`recovery_report` for what happened.
        """
        return cls(label, path=path, **kwargs)

    @property
    def durable(self) -> bool:
        """True when this engine persists to a directory."""
        return self.path is not None

    @property
    def _logging(self) -> bool:
        """True while changes go through a live write-ahead log."""
        return self.wal is not None and not self.wal.closed

    def _on_table_mutation(self, table: Table, entry: LedgerEntry) -> None:
        """WAL observer: append one mutation record (ledger entry + the rows
        it added, or all rows after a rewrite, in ``encode_rows`` form)."""
        if not self._logging:
            return
        if entry.kind == "append":
            rows = table.tail_values(entry.rows_after - entry.rows_added)
        else:
            rows = table.tail_values(0)
        self.wal.append(
            {
                "type": "mutation",
                "table": table.name.lower(),
                "entry": entry,
                **encode_rows(table.schema, rows),
                "clustered_on": table.clustered_on,
            }
        )

    def _attach_durable(self, table: Table) -> None:
        """Log a table's creation and start observing its mutations."""
        if self.path is None:
            return
        if self._logging:
            self.wal.append({"type": "create", "image": table.to_image()})
        table.add_observer(self._on_table_mutation)

    def _detach_durable(self, table: Table, *, log_drop: bool) -> None:
        if self.path is None:
            return
        table.remove_observer(self._on_table_mutation)
        if log_drop and self._logging:
            self.wal.append({"type": "drop", "name": table.name.lower()})

    def checkpoint(self):
        """Snapshot the catalog + training states, compacting the WAL.

        Rotate the log, record the fresh segment's start as the snapshot's
        position, write the snapshot atomically, then prune the segments no
        retained generation needs.  Returns the snapshot path (None when the
        engine is not durable).
        """
        if self.checkpoints is None:
            return None
        position = keep_from = None
        if self._logging:
            self.wal.rotate()
            position = self.wal.position()
            # KEEP_GENERATIONS is 2, so the oldest retained one is the snapshot
            # before this: the log stays replayable from its segment on.
            keep_from = self._snapshot_segment if self._snapshot_segment >= 0 else position[0]
        written = self.checkpoints.write(
            {
                "tables": {key: table.to_image() for key, table in self.tables.items()},
                "training": dict(self._training_states),
                "wal_position": position,
                "wal_keep_from": keep_from,
            }
        )
        if position is not None:
            prune_segments(self.path, keep_from)
            self._snapshot_segment = position[0]
        self._snapshot_bytes = written.stat().st_size
        return written

    def _log_training_state(self, name: str, state: "TrainingState | None") -> None:
        """Make a saved (``None``: cleared) training state durable.

        It is one WAL record, like any table mutation.  A snapshot follows
        only once the log a reopen would replay has outgrown the snapshot it
        starts from (0 bytes when there is none): snapshots are paid for by
        log volume, not per epoch.  Without a WAL the snapshot is the write.
        """
        if self.checkpoints is None:
            return
        if not self._logging:
            self.checkpoint()
            return
        self.wal.append({"type": "training", "name": name, "state": state})
        if self.wal.bytes_since(self._snapshot_segment) > self._snapshot_bytes:
            self.checkpoint()

    def save_training_state(self, state: TrainingState) -> None:
        """Retain ``state`` under its name; on a durable engine, log it."""
        name = state.name.lower()
        self._training_states[name] = state
        self._log_training_state(name, state)

    def training_state(self, name: str) -> "TrainingState | None":
        """The saved training state under ``name`` (or None)."""
        return self._training_states.get(name.lower())

    def clear_training_state(self, name: str) -> None:
        """Forget a saved training state; on a durable engine, log that."""
        self._training_states.pop(name.lower(), None)
        self._log_training_state(name.lower(), None)

    # ----------------------------------------------------------------- DDL/DML
    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, ColumnType | str]] | Schema,
        *,
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table from ``(name, type)`` pairs or an existing Schema."""
        key = name.lower()
        if key in self.tables:
            if if_not_exists:
                return self.tables[key]
            raise DuplicateTableError(name)
        if isinstance(columns, Schema):
            schema = columns
        else:
            schema = Schema.of(
                *(
                    (column_name, ColumnType.from_string(t) if isinstance(t, str) else t)
                    for column_name, t in columns
                )
            )
        table = Table(name, schema)
        self.tables[key] = table
        self._attach_durable(table)
        return table

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Register an externally built Table in the catalog."""
        key = table.name.lower()
        previous = self.tables.get(key)
        if previous is not None and not replace:
            raise DuplicateTableError(table.name)
        if previous is not None and previous is not table:
            # The displaced table must stop logging: it is no longer catalog
            # state, and its mutations would corrupt replay ordering.
            self._detach_durable(previous, log_drop=False)
        self.tables[key] = table
        self._attach_durable(table)

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return
            raise UnknownTableError(name)
        table = self.tables.pop(key)
        self._detach_durable(table, log_drop=True)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def insert(self, table_name: str, rows) -> int:
        """Insert rows (a single row or an iterable of rows) into a table."""
        table = self.table(table_name)
        if isinstance(rows, (tuple, dict)) or (
            isinstance(rows, list) and rows and not isinstance(rows[0], (list, tuple, dict))
        ):
            table.insert(rows)
            return 1
        return table.insert_many(rows)

    # ------------------------------------------------------------ registration
    def register_aggregate(
        self, name: str, factory: Callable[[], UserDefinedAggregate]
    ) -> None:
        """Register a UDA factory under ``name``."""
        self.aggregates.register(name, factory)

    def register_function(self, name: str, func: Callable) -> None:
        """Register a scalar user-defined function (e.g. ``SVMTrain``)."""
        self.functions[name.lower()] = func

    # ------------------------------------------------------------------ query
    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one SQL statement."""
        statement = parse(sql, known_aggregates=self.aggregates.names())
        if isinstance(statement, CreateTableStatement):
            self.create_table(statement.name, statement.columns)
            return QueryResult(columns=[], rows=[])
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.name, if_exists=statement.if_exists)
            return QueryResult(columns=[], rows=[])
        if isinstance(statement, InsertStatement):
            count = self.insert(statement.table, list(statement.rows))
            return QueryResult(columns=["inserted"], rows=[(count,)])
        if isinstance(statement, SelectStatement):
            table = self.table(statement.table) if statement.table else None
            return self.executor.execute_select(statement, table)
        raise ExecutionError(f"unsupported statement type: {type(statement).__name__}")

    # ---------------------------------------------------------- programmatic
    def process_pool(self, workers: int):
        """The engine's persistent process-backend pool of the given size.

        Pools are created lazily, cached by worker count and kept alive for
        reuse across epochs and training runs; :meth:`close_process_pools`
        (or interpreter exit) reaps them.  Engine-created pools are
        *supervised*: pipe reads are deadline-bounded per the engine's
        recovery policy, dead/hung workers are respawned with their payloads
        replayed, and recovery incidents land in :attr:`recovery_log`.
        """
        from .supervisor import SupervisedWorkerPool

        pool = self._process_pools.get(workers)
        if pool is None or pool._closed:
            pool = SupervisedWorkerPool(
                workers,
                policy=self.recovery_policy,
                faults=self.fault_plans,
                on_event=self.record_recovery_event,
            )
            self._process_pools[workers] = pool
        return pool

    def record_recovery_event(self, event) -> None:
        """Append a RecoveryEvent / DegradationEvent to the engine log."""
        self.recovery_log.append(event)

    def recovery_events(self) -> list:
        """Copy of the structured recovery/degradation log."""
        return list(self.recovery_log)

    def mark_process_degraded(self) -> None:
        """Route subsequent process-backed plans straight to their fallback."""
        self.process_degraded = True

    def reset_degradation(self) -> None:
        """Clear the sticky degradation flag (fresh pools may be built again)."""
        self.process_degraded = False

    def close_process_pools(self) -> None:
        """Stop and reap every process-backend worker pool.  Idempotent."""
        for pool in self._process_pools.values():
            pool.close()
        self._process_pools.clear()

    def close(self) -> None:
        """Release every OS resource the engine owns.  Idempotent.

        Reaps the process-backend worker pools, frees all shared-memory
        arena segments, and — for durable engines — flushes and closes the
        write-ahead log.  Double-close is a no-op, including on an engine
        that was itself produced by a recovery :meth:`open`: the WAL handle
        closes exactly once and later closes return without touching it.
        The ``atexit`` sweeps remain as a crash net, but deterministic
        callers (the driver, the experiment harness, tests) should close
        engines — or use ``with Database(...) as db:`` — so no worker
        processes or ``/dev/shm`` blocks outlive the run that made them.
        """
        self.close_process_pools()
        self.shared_memory.free_all()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_aggregate(
        self,
        table_name: str,
        aggregate: UserDefinedAggregate | str,
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
        per_tuple: bool = False,
        backend: str = "in_process",
        process_workers: int | None = None,
    ) -> Any:
        """Run a UDA over a table directly (bypassing SQL), honouring an
        optional explicit row order.  The chunk-or-rows choice and
        ``per_tuple`` are :meth:`Executor.run_aggregate`'s.
        ``backend="process"`` compiles the call to a ``generic``
        :class:`~repro.db.pass_plan.PassPlan` and runs it on
        :class:`~repro.db.pass_plan.ProcessBackend` — the engine's persistent
        supervised worker pool, ``process_workers`` wide (default: one worker
        per core); pool workers never replay the per-tuple protocol."""
        if backend not in ("in_process", "process"):
            raise ExecutionError(f"unknown execution backend {backend!r}")
        table = self.table(table_name)
        if backend == "in_process":
            return self.executor.run_aggregate(
                table, aggregate, argument, where=where, row_order=row_order,
                per_tuple=per_tuple,
            )
        if per_tuple:
            raise ExecutionError(
                "the process backend serves passes from the cached chunk "
                "plane and cannot replay the per-tuple engine protocol"
            )
        from .pass_plan import ProcessBackend, compile_pass
        from .process_backend import available_cores

        instance = (
            self.aggregates.create(aggregate) if isinstance(aggregate, str) else aggregate
        )
        plan = compile_pass(
            "generic", table, lambda: instance, argument=argument, where=where,
            row_order=row_order, workers=process_workers or available_cores(),
        )
        return ProcessBackend(self).run(plan)

    # ------------------------------------------------------------------ misc
    def table_names(self) -> list[str]:
        return sorted(table.name for table in self.tables.values())

    def __repr__(self) -> str:
        return f"Database({self.label!r}, tables={self.table_names()})"


def connect(label: str = "postgres", *, seed: int | None = None) -> Database:
    """Create a new database instance (mirrors a DB-API ``connect`` call)."""
    return Database(label, seed=seed)
