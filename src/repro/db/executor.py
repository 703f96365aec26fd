"""Query executor: scans, filters, ordering, limits and aggregation.

The executor is deliberately simple — a pipeline of generators over the heap
table — but it implements the two things Bismarck depends on faithfully:

* sequential scans return rows in physical (heap) order, so clustering and
  shuffling of the table are visible to any aggregate run over it; and
* aggregation runs any :class:`~repro.db.aggregates.UserDefinedAggregate`
  through the standard ``initialize / transition / terminate`` protocol, one
  tuple at a time, exactly like the IGD aggregate in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .aggregates import AggregateRegistry, UserDefinedAggregate
from .chunk_plan import ChunkPlan
from .errors import ExecutionError
from .expressions import ColumnRef, Expression, FunctionCall, Star
from .parser import OrderBy, SelectItem, SelectStatement
from .table import DEFAULT_CHUNK_SIZE, Table
from .types import Row, Schema

@dataclass
class QueryResult:
    """Result of executing a statement."""

    columns: list[str]
    rows: list[tuple]
    #: Wall-clock execution time in seconds (used by the experiment harness).
    elapsed_seconds: float = 0.0
    #: Number of tuples read from base tables during execution.
    tuples_scanned: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def scalar(self) -> Any:
        """Return the single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() called on a {len(self.rows)}x"
                f"{len(self.rows[0]) if self.rows else 0} result"
            )
        return self.rows[0][0]

    def column(self, name_or_index: str | int) -> list:
        """Materialise one output column."""
        if isinstance(name_or_index, str):
            try:
                index = self.columns.index(name_or_index)
            except ValueError:
                raise ExecutionError(f"no output column named {name_or_index!r}") from None
        else:
            index = name_or_index
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class Executor:
    """Executes parsed SELECT statements and programmatic aggregations."""

    def __init__(
        self,
        aggregates: AggregateRegistry,
        functions: dict[str, Callable] | None = None,
        *,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_entries: int = 32,
    ):
        self.aggregates = aggregates
        # Keep a reference to the caller's registry (not a copy): functions
        # registered after the executor is built must remain visible.
        self.functions = functions if functions is not None else {}
        #: Rows per columnar chunk on the batch-at-a-time aggregation path.
        self.chunk_size = chunk_size
        #: Bound on retained ExampleCache entries (LRU by last touch).
        self.cache_entries = cache_entries
        self._example_cache = None  # built lazily (avoids a db<->tasks import cycle)
        self.rng = rng or np.random.default_rng()

    # ---------------------------------------------------------------- SELECT
    def execute_select(self, statement: SelectStatement, table: Table | None) -> QueryResult:
        start = time.perf_counter()
        if statement.table is None:
            result = self._execute_tableless(statement)
        elif statement.has_aggregates:
            result = self._execute_aggregate_select(statement, table)
        else:
            result = self._execute_plain_select(statement, table)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def _execute_tableless(self, statement: SelectStatement) -> QueryResult:
        columns: list[str] = []
        values: list[Any] = []
        for i, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                raise ExecutionError("'*' requires a FROM clause")
            columns.append(item.alias or _default_name(item, i))
            values.append(item.expression.evaluate(None, self.functions))
        return QueryResult(columns=columns, rows=[tuple(values)])

    def _row_source(self, statement: SelectStatement, table: Table) -> tuple[Iterable[Row], int]:
        rows: Iterable[Row] = table.scan()
        scanned = len(table)
        if statement.where is not None:
            predicate = statement.where
            rows = (
                row for row in rows if bool(predicate.evaluate(row, self.functions))
            )
        return rows, scanned

    def _apply_order_limit(
        self, rows: Iterable[Row], order_by: OrderBy | None, limit: int | None
    ) -> list[Row]:
        if order_by is not None:
            materialized = list(rows)
            if order_by.random:
                permutation = self.rng.permutation(len(materialized))
                materialized = [materialized[i] for i in permutation]
            else:
                materialized.sort(
                    key=lambda row: order_by.expression.evaluate(row, self.functions),
                    reverse=order_by.descending,
                )
            rows = materialized
        if limit is not None:
            limited: list[Row] = []
            for row in rows:
                if len(limited) >= limit:
                    break
                limited.append(row)
            return limited
        return list(rows)

    def _execute_plain_select(self, statement: SelectStatement, table: Table) -> QueryResult:
        if table is None:
            raise ExecutionError("SELECT with FROM requires a table")
        rows, scanned = self._row_source(statement, table)
        ordered = self._apply_order_limit(rows, statement.order_by, statement.limit)

        star_only = len(statement.items) == 1 and isinstance(statement.items[0].expression, Star)
        if star_only:
            columns = list(table.schema.column_names)
            output = [row.values for row in ordered]
            return QueryResult(columns=columns, rows=output, tuples_scanned=scanned)

        columns = [
            item.alias or _default_name(item, i) for i, item in enumerate(statement.items)
        ]
        output = []
        for row in ordered:
            output.append(
                tuple(item.expression.evaluate(row, self.functions) for item in statement.items)
            )
        return QueryResult(columns=columns, rows=output, tuples_scanned=scanned)

    def _execute_aggregate_select(self, statement: SelectStatement, table: Table) -> QueryResult:
        if table is None:
            raise ExecutionError("aggregate query requires a table")
        if any(item.aggregate_name is None for item in statement.items):
            raise ExecutionError(
                "mixing aggregate and non-aggregate select items without GROUP BY "
                "is not supported"
            )
        rows, scanned = self._row_source(statement, table)
        ordered = self._apply_order_limit(rows, statement.order_by, None)

        instances: list[UserDefinedAggregate] = []
        arguments: list[Expression] = []
        for item in statement.items:
            instances.append(self.aggregates.create(item.aggregate_name))
            arguments.append(item.aggregate_argument or Star())

        states = [instance.initialize() for instance in instances]
        for row in ordered:
            for i, instance in enumerate(instances):
                value = row if instance.wants_row else self._aggregate_input(arguments[i], row)
                states[i] = instance.transition(states[i], value)
        results = tuple(
            instance.terminate(state) for instance, state in zip(instances, states)
        )
        columns = [
            item.alias or _default_name(item, i) for i, item in enumerate(statement.items)
        ]
        return QueryResult(columns=columns, rows=[results], tuples_scanned=scanned)

    def _aggregate_input(self, argument: Expression, row: Row) -> Any:
        if isinstance(argument, Star):
            return row
        return argument.evaluate(row, self.functions)

    # ------------------------------------------------------- programmatic API
    @property
    def example_cache(self):
        """The executor's per-(table, version, task) decoded-example cache."""
        if self._example_cache is None:
            from ..tasks.base import ExampleCache

            self._example_cache = ExampleCache(self.cache_entries)
        return self._example_cache

    def chunk_plan(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
    ) -> ChunkPlan | None:
        """Resolve the chunk plan for one aggregate pass, or None for rows.

        This is the engine's one chunk-or-rows rule: an aggregate with a
        chunk decoder runs on the cached chunk plane when its task batches
        the table; anything else — built-in SQL aggregates, per-example-only
        tasks, columns no batch kernel takes — folds rows per tuple.
        ``where`` is served by a selection vector cached once per (table,
        version, predicate); ``row_order`` by a walk over the cached batches
        or, for a reused order, its kept gathered copy.
        """
        if not instance.supports_chunks:
            return None
        return ChunkPlan.resolve(
            table,
            instance.chunk_decoder,
            self.example_cache,
            self.chunk_size,
            where=where,
            row_order=row_order,
            functions=self.functions,
            walks=instance.accepts_visits,
        )

    def run_state(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
        per_tuple: bool = False,
    ) -> Any:
        """initialize + transitions over one table pass; the raw state.

        The single consumption loop behind :meth:`run_aggregate` and every
        in-process part of a partitioned pass
        (:func:`~repro.db.pass_plan.run_partitioned`).  The chunk plane
        crosses the aggregate's function-call boundary once per batch, the
        per-tuple plane once per row (after forming it) — the difference
        Table 2 times, which is what ``per_tuple=True`` forces; by default
        :meth:`chunk_plan` decides.  Either way the pass counts as one
        logical scan, even when served from the cache or by ``row_at``
        random access: shuffle-always/MRS-style ordered passes read every
        tuple and must show up in the scan counts the scalability
        experiments report.
        """
        plan = None if per_tuple else self.chunk_plan(
            table, instance, where=where, row_order=row_order
        )
        state = instance.initialize()
        if plan is not None:
            table.scan_count += 1
            for batch in plan:
                state = instance.transition_chunk(state, batch)
        else:
            if isinstance(argument, str):
                argument = ColumnRef(argument)
            if row_order is None:
                rows: Iterable[Row] = table.scan()
            else:
                table.scan_count += 1
                rows = (table.row_at(i) for i in row_order)
            for row in rows:
                if where is not None and not bool(where.evaluate(row, self.functions)):
                    continue
                if instance.wants_row or argument is None:
                    value: Any = row
                else:
                    value = argument.evaluate(row, self.functions)
                state = instance.transition(state, value)
        return state

    def run_aggregate(
        self,
        table: Table,
        aggregate: UserDefinedAggregate | str,
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
        per_tuple: bool = False,
    ) -> Any:
        """Run a single aggregate over a table without going through SQL.

        ``row_order`` optionally specifies the tuple visit order (a permutation
        of row ordinals) — this is how the ordering policies express
        shuffle-once / shuffle-always without physically rewriting the table.

        The pass runs on the cached chunk plane when :meth:`chunk_plan` finds
        one and per tuple otherwise; ``per_tuple=True`` forces the paper's
        tuple-at-a-time UDA protocol (the call boundary Table 2 times).  Both
        planes produce bit-for-bit the same models.  The pass runs in this
        process; worker pools are reached by compiling a
        :class:`~repro.db.pass_plan.PassPlan`.
        """
        instance = (
            self.aggregates.create(aggregate) if isinstance(aggregate, str) else aggregate
        )
        return instance.terminate(
            self.run_state(
                table, instance, argument,
                where=where, row_order=row_order, per_tuple=per_tuple,
            )
        )


def _default_name(item: SelectItem, index: int) -> str:
    expression = item.expression
    if item.aggregate_name is not None:
        return item.aggregate_name
    if isinstance(expression, FunctionCall):
        return expression.name.lower()
    if isinstance(expression, ColumnRef):
        return expression.name
    return f"column{index}"
