"""Segmented (shared-nothing) parallel engine, modelled on the paper's "DBMS B".

A :class:`SegmentedDatabase` is a facade: one master :class:`Database` and a
segment count.  It holds no table of its own — segment
``i`` of ``S`` is the rows ``i::S`` of the master table, named as visit
ordinals over the master's one cached chunk list
(:func:`~repro.db.pass_plan.partition_pass`), so loading, inserting,
shuffling and recovering touch the master only.  Aggregates that provide a
``merge`` function fold every segment independently and merge the partial
states before ``terminate`` — exactly the "pure UDA" parallelism of Section
3.3.  The segments fold sequentially in this process or, with
``backend="process"``, one OS worker each; either way the engine records the
per-segment tuple counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .aggregates import UserDefinedAggregate
from .engine import Database
from .errors import ExecutionError
from .expressions import ColumnRef, Expression
from .pass_plan import run_partitioned
from .table import Table
from .types import ColumnType, Schema


@dataclass
class ParallelAggregateResult:
    """Result of a segmented aggregate run, with per-segment accounting."""

    value: Any
    per_segment_tuples: list[int]
    num_segments: int
    #: Number of merge() calls performed to combine the partial states.
    merges: int

    @property
    def total_tuples(self) -> int:
        return sum(self.per_segment_tuples)

    @property
    def max_segment_tuples(self) -> int:
        return max(self.per_segment_tuples) if self.per_segment_tuples else 0


class SegmentedDatabase:
    """A shared-nothing parallel database: a master engine read as segments."""

    def __init__(self, num_segments: int, label: str = "dbms_b", **master_options):
        """``master_options`` are :class:`Database`'s keyword options, verbatim."""
        if num_segments <= 0:
            raise ExecutionError("num_segments must be positive")
        self.num_segments = num_segments
        self.master = Database(label, **master_options)

    @classmethod
    def open(cls, path, num_segments: int, label: str = "dbms_b", **kwargs) -> "SegmentedDatabase":
        """Open/recover a durable segmented database (see ``Database.open``)."""
        return cls(num_segments, label, path=path, **kwargs)

    @property
    def recovery_report(self):
        return self.master.recovery_report

    @property
    def crash_injector(self):
        return self.master.crash_injector

    def checkpoint(self):
        """Snapshot the master catalog."""
        return self.master.checkpoint()

    def training_state(self, name: str):
        return self.master.training_state(name)

    def clear_training_state(self, name: str) -> None:
        self.master.clear_training_state(name)

    # -------------------------------------------------------------- catalog
    def create_table(
        self, name: str, columns: Sequence[tuple[str, ColumnType | str]] | Schema
    ) -> Table:
        return self.master.create_table(name, columns)

    def load_table(self, table: Table, *, replace: bool = False) -> None:
        """Register an already-populated table on the master."""
        self.master.register_table(table, replace=replace)

    def insert(self, table_name: str, rows) -> int:
        return self.master.insert(table_name, rows)

    def table(self, name: str) -> Table:
        return self.master.table(name)

    def segments_of(self, name: str) -> list[Table]:
        # Segments are ordinals, not tables; bench/workloads.py sums over this.
        self.master.table(name)
        return []

    def redistribute(self, name: str) -> None:
        # Nothing to bring in sync; bench/hooks.py still wraps the name.
        self.master.table(name)

    # ------------------------------------------------------------ registration
    def register_aggregate(self, name: str, factory: Callable[[], UserDefinedAggregate]) -> None:
        self.master.register_aggregate(name, factory)

    def register_function(self, name: str, func: Callable) -> None:
        self.master.register_function(name, func)

    # ------------------------------------------------------------- execution
    def execute(self, sql: str):
        """Execute SQL against the master copy (non-aggregate paths)."""
        return self.master.execute(sql)

    def run_parallel_aggregate(
        self,
        table_name: str,
        aggregate_factory: Callable[[], UserDefinedAggregate],
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        segment_row_orders: Sequence[Sequence[int]] | None = None,
        backend: str = "in_process",
    ) -> ParallelAggregateResult:
        """Run a UDA independently on every segment and merge the results.

        ``segment_row_orders`` optionally gives an explicit visit order per
        segment, as positions within the segment (used by the logical
        ordering policies).  The aggregate must support ``merge``; otherwise
        the call degrades to a single-segment run on the master copy,
        mirroring how an RDBMS falls back to serial aggregation for
        non-algebraic aggregates.  The fallback honours ``segment_row_orders``
        only when there is exactly one segment (which is the master row for
        row); with several segments the per-segment orders cannot be replayed
        serially and the call raises rather than silently training in stored
        heap order.

        Each segment follows :meth:`Executor.chunk_plan`'s rule: the master's
        cached columnar chunks when the aggregate's task batches the table,
        rows per tuple otherwise.  ``backend`` selects who folds a segment:
        ``"in_process"`` (the default) folds them sequentially in this
        process; ``"process"`` folds each in its own OS worker from the
        master engine's persistent pool, which refuses by name a (task,
        table) pair the chunk plane cannot batch.  Both are
        :func:`~repro.db.pass_plan.run_partitioned` at width
        ``num_segments``, so for a fixed seed and segment count they produce
        **bit-for-bit the same model** — the pure-UDA determinism contract.
        """
        if backend not in ("in_process", "process"):
            raise ExecutionError(f"unknown execution backend {backend!r}")
        table = self.master.table(table_name)
        instance = aggregate_factory()
        if isinstance(argument, str):
            argument = ColumnRef(argument)
        if not instance.supports_merge or self.num_segments == 1:
            order = None
            if segment_row_orders is not None:
                if self.num_segments > 1:
                    raise ExecutionError(
                        f"aggregate {type(instance).__name__} does not support merge; "
                        "the serial fallback cannot honour per-segment row orders"
                    )
                order = segment_row_orders[0]
            value = self.master.executor.run_aggregate(
                table, instance, argument, where=where, row_order=order
            )
            return ParallelAggregateResult(
                value=value, per_segment_tuples=[len(table)], num_segments=1, merges=0,
            )
        value, partition = run_partitioned(
            self.master, table, instance, argument=argument, where=where,
            workers=self.num_segments, part_orders=segment_row_orders,
            on_pool=backend == "process",
        )
        return ParallelAggregateResult(
            value=value,
            per_segment_tuples=partition.part_rows(),
            num_segments=len(partition.parts),
            merges=len(partition.parts) - 1,
        )

    # ------------------------------------------------------------------ misc
    def close_process_pools(self) -> None:
        """Reap the master engine's process-backend worker pools."""
        self.master.close_process_pools()

    def close(self) -> None:
        """Release the master engine's OS resources (pools, arena).  Idempotent."""
        self.master.close()

    def __enter__(self) -> "SegmentedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shuffle_table(self, name: str, *, seed: int | None = None) -> None:
        """Physically shuffle the master copy (segments follow by arithmetic)."""
        self.master.table(name).shuffle(np.random.default_rng(seed))

    def __repr__(self) -> str:
        return (
            f"SegmentedDatabase({self.num_segments}, {self.master.label!r}, "
            f"tables={self.master.table_names()})"
        )
