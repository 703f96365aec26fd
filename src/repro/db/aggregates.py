"""User-defined aggregate (UDA) contract and built-in SQL aggregates.

This is the heart of the substrate for the Bismarck reproduction: the paper's
entire architecture is "IGD is a UDA".  A UDA is defined by the three standard
functions the paper describes (Figure 3) plus the optional ``merge`` used for
shared-nothing parallelism:

* ``initialize()``            -> state
* ``transition(state, row)``  -> state
* ``merge(state, state)``     -> state        (optional)
* ``terminate(state)``        -> result

Built-in aggregates (COUNT, SUM, AVG, MIN, MAX, STDDEV, and the paper's
strawman NULL aggregate) are expressed through the same contract so the
executor has a single aggregation code path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from .errors import ExecutionError, UnknownFunctionError
from .types import Row


class UserDefinedAggregate:
    """Base class for aggregates.

    Subclasses override the four functions.  ``transition`` receives the value
    of the aggregate's argument expression for the current row (or the whole
    :class:`Row` when the aggregate was registered with ``wants_row=True``),
    matching how an RDBMS hands a UDA either a column value or a record type.
    """

    #: When True the executor passes the whole Row to ``transition`` instead of
    #: the evaluated argument (used by Bismarck's IGD aggregate, which needs
    #: several columns per tuple).
    wants_row: bool = False

    #: When False the parallel engine refuses to split this aggregate across
    #: segments (no merge function was provided).
    supports_merge: bool = True

    #: Chunked-execution contract.  Aggregates that can consume a whole
    #: decoded :class:`~repro.tasks.base.ExampleBatch` per call set
    #: ``supports_chunks`` (usually a property consulting the task) and expose
    #: the decoding task via ``chunk_decoder`` so the executor can key its
    #: example cache on it; ``transition_chunk`` then replaces a run of
    #: per-tuple ``transition`` calls: the function-call boundary is crossed
    #: once per batch, which is exactly why batch-at-a-time execution is fast.
    supports_chunks: bool = False
    chunk_decoder: Any = None
    #: True when ``transition_chunk`` also takes a
    #: :class:`~repro.db.chunk_plan.Visits` window (exact IGD).
    accepts_visits: bool = False

    #: Merge-contract refinement for the parallel pass backends.  A pass over
    #: a mergeable aggregate may always be split into row partitions whose
    #: partial states merge left-to-right (the pure-UDA contract).  Aggregates
    #: that additionally set ``chunk_partitionable`` declare that *whole
    #: cached chunks* can be dealt to workers and consumed through
    #: ``transition_chunk`` — i.e. the state is a reduction whose value does
    #: not depend on which worker saw which chunk, only on the deterministic
    #: left-to-right merge of the partials.  Scalar reductions (loss,
    #: accuracy, counts) qualify; order-sensitive aggregates like IGD — where
    #: ``transition`` at position k depends on the state after position k-1 —
    #: must not, or a partitioned pass would silently compute a different
    #: (still valid, but non-reproducible) result than its serial plan.
    chunk_partitionable: bool = False

    def initialize(self) -> Any:
        raise NotImplementedError

    def transition(self, state: Any, value: Any) -> Any:
        raise NotImplementedError

    def transition_chunk(self, state: Any, batch: Any) -> Any:
        raise ExecutionError(
            f"aggregate {type(self).__name__} does not support transition_chunk()"
        )

    def merge(self, state_a: Any, state_b: Any) -> Any:
        raise ExecutionError(
            f"aggregate {type(self).__name__} does not support merge()"
        )

    def terminate(self, state: Any) -> Any:
        return state

    # Convenience driver used by tests and by code that wants to run an
    # aggregate outside the SQL executor.
    def run(self, values: Iterable[Any]) -> Any:
        state = self.initialize()
        for value in values:
            state = self.transition(state, value)
        return self.terminate(state)


def merge_partial_states(instance: UserDefinedAggregate, states: "list[Any]") -> Any:
    """Merge partition partials left-to-right, then terminate.

    This is *the* merge contract of the parallel pass backends: partials
    combine in partition-index order and only then ``terminate``.  Every
    partitioned pass reaches it through one call
    (:func:`~repro.db.pass_plan.run_partitioned`), so the association order
    — which fixes the exact float result — cannot drift between backends.
    """
    merged = states[0]
    for state in states[1:]:
        merged = instance.merge(merged, state)
    return instance.terminate(merged)


class FunctionalAggregate(UserDefinedAggregate):
    """Build a UDA from plain callables (handy for tests and quick UDAs)."""

    def __init__(
        self,
        initialize: Callable[[], Any],
        transition: Callable[[Any, Any], Any],
        terminate: Callable[[Any], Any] | None = None,
        merge: Callable[[Any, Any], Any] | None = None,
        *,
        wants_row: bool = False,
    ):
        self._initialize = initialize
        self._transition = transition
        self._terminate = terminate or (lambda state: state)
        self._merge = merge
        self.wants_row = wants_row
        self.supports_merge = merge is not None

    def initialize(self) -> Any:
        return self._initialize()

    def transition(self, state: Any, value: Any) -> Any:
        return self._transition(state, value)

    def merge(self, state_a: Any, state_b: Any) -> Any:
        if self._merge is None:
            return super().merge(state_a, state_b)
        return self._merge(state_a, state_b)

    def terminate(self, state: Any) -> Any:
        return self._terminate(state)


# --------------------------------------------------------------------------
# Built-in aggregates
# --------------------------------------------------------------------------
class CountAggregate(UserDefinedAggregate):
    """``COUNT(expr)`` — number of non-NULL values (``COUNT(*)`` counts rows)."""

    def initialize(self) -> int:
        return 0

    def transition(self, state: int, value: Any) -> int:
        if value is None:
            return state
        return state + 1

    def merge(self, state_a: int, state_b: int) -> int:
        return state_a + state_b

    def terminate(self, state: int) -> int:
        return state


class SumAggregate(UserDefinedAggregate):
    """``SUM(expr)`` over non-NULL values; NULL if no values."""

    def initialize(self):
        return None

    def transition(self, state, value):
        if value is None:
            return state
        if state is None:
            return value
        return state + value

    def merge(self, state_a, state_b):
        if state_a is None:
            return state_b
        if state_b is None:
            return state_a
        return state_a + state_b


class AvgAggregate(UserDefinedAggregate):
    """``AVG(expr)`` — running (sum, count) pair, as in the paper's example."""

    def initialize(self) -> tuple[float, int]:
        return (0.0, 0)

    def transition(self, state: tuple[float, int], value: Any) -> tuple[float, int]:
        if value is None:
            return state
        total, count = state
        return (total + float(value), count + 1)

    def merge(self, state_a, state_b):
        return (state_a[0] + state_b[0], state_a[1] + state_b[1])

    def terminate(self, state: tuple[float, int]):
        total, count = state
        if count == 0:
            return None
        return total / count


class MinAggregate(UserDefinedAggregate):
    """``MIN(expr)``."""

    def initialize(self):
        return None

    def transition(self, state, value):
        if value is None:
            return state
        if state is None or value < state:
            return value
        return state

    def merge(self, state_a, state_b):
        return self.transition(state_a, state_b)


class MaxAggregate(UserDefinedAggregate):
    """``MAX(expr)``."""

    def initialize(self):
        return None

    def transition(self, state, value):
        if value is None:
            return state
        if state is None or value > state:
            return value
        return state

    def merge(self, state_a, state_b):
        return self.transition(state_a, state_b)


class StddevAggregate(UserDefinedAggregate):
    """``STDDEV(expr)`` — population standard deviation via Welford merge."""

    def initialize(self) -> tuple[int, float, float]:
        # (count, mean, M2)
        return (0, 0.0, 0.0)

    def transition(self, state, value):
        if value is None:
            return state
        count, mean, m2 = state
        count += 1
        delta = float(value) - mean
        mean += delta / count
        m2 += delta * (float(value) - mean)
        return (count, mean, m2)

    def merge(self, state_a, state_b):
        count_a, mean_a, m2_a = state_a
        count_b, mean_b, m2_b = state_b
        if count_a == 0:
            return state_b
        if count_b == 0:
            return state_a
        count = count_a + count_b
        delta = mean_b - mean_a
        mean = mean_a + delta * count_b / count
        m2 = m2_a + m2_b + delta * delta * count_a * count_b / count
        return (count, mean, m2)

    def terminate(self, state):
        count, _, m2 = state
        if count == 0:
            return None
        return math.sqrt(m2 / count)


class NullAggregate(UserDefinedAggregate):
    """The paper's strawman aggregate: sees every tuple, computes nothing.

    Used as the overhead baseline in Tables 2 and 3.  It still reads its input
    (touching the tuple) so a scan over it costs what a scan costs, but the
    transition does no useful work.
    """

    wants_row = True

    def initialize(self) -> int:
        return 0

    def transition(self, state: int, row: Row) -> int:
        # Touch the row so the engine cannot elide the read, then discard it.
        _ = row.values
        return state + 1

    def merge(self, state_a: int, state_b: int) -> int:
        return state_a + state_b

    def terminate(self, state: int) -> int:
        return state


BUILTIN_AGGREGATES: dict[str, Callable[[], UserDefinedAggregate]] = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "stddev": StddevAggregate,
    "null_agg": NullAggregate,
}


class AggregateRegistry:
    """Name -> aggregate-factory registry, seeded with the built-ins."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], UserDefinedAggregate]] = dict(
            BUILTIN_AGGREGATES
        )

    def register(self, name: str, factory: Callable[[], UserDefinedAggregate]) -> None:
        """Register a UDA under ``name`` (case-insensitive).

        ``factory`` is called once per aggregation to obtain a fresh instance,
        so UDAs may keep per-run mutable configuration on ``self``.
        """
        self._factories[name.lower()] = factory

    def register_instance(self, name: str, instance: UserDefinedAggregate) -> None:
        """Register a single shared instance (the factory returns it as-is)."""
        self._factories[name.lower()] = lambda: instance

    def unregister(self, name: str) -> None:
        self._factories.pop(name.lower(), None)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories

    def names(self) -> list[str]:
        return sorted(self._factories)

    def create(self, name: str) -> UserDefinedAggregate:
        try:
            factory = self._factories[name.lower()]
        except KeyError:
            raise UnknownFunctionError(name) from None
        return factory()
