"""Visit orders: Clustered, ShuffleOnce, ShuffleAlways (Section 3.2) and the
sampling schemes Subsample and MultiplexedReservoir (Section 3.4).

IGD converges for any data order on convex problems, but clustered orders
(e.g. all positive examples before all negative ones — the CA-TX example) can
be pathologically slow.  The paper's remedy is to shuffle the data **once**
before the first epoch: nearly the per-epoch convergence rate of shuffling
every epoch, without paying the shuffle cost each time.

The shuffle policies support two modes:

* ``mode="logical"`` (the default) — the policy produces a *permutation* over
  a stable table version instead of rewriting the heap.  The driver feeds the
  permutation to the execution backends as an explicit row order, which the
  chunk plane walks over its cached decoded examples.  Because
  the table is never mutated, the example cache survives re-shuffles:
  shuffle-always stops re-decoding every epoch.
* ``mode="physical"`` — the original behaviour: the policy physically
  reorders the heap table (the analogue of materialising ``ORDER BY
  RANDOM()``), so its wall-clock cost is real and shows up in the epoch
  timings.  The engine-overhead and Figure 8 experiments use this mode, since
  the physical shuffle cost is exactly what they measure.

In both modes ``shuffle_seconds`` / ``shuffle_count`` accumulate the time and
number of reorder events (physical rewrites, or permutation generations in
logical mode — segmented runs generate one permutation per segment).

A sampling scheme is a visit order too.  Reservoir sampling never reads the
model, so which ordinal steps when is fully determined before any gradient
runs: :class:`Subsample` hands every epoch the same *subset* of the table's
ordinals, :class:`MultiplexedReservoir` a *sequence with repeats*, and the
one epoch loop — every backend, execution path, stopping rule and
checkpoint — serves them exactly as it serves a permutation.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..db.table import Table

ORDERING_MODES = ("physical", "logical")


class ReservoirSampler:
    """Classic reservoir sampling (Vitter): a without-replacement sample of
    fixed capacity built in one pass, with no shuffle of the underlying data.

    :meth:`offer` returns the item that was *dropped* by this offer: during
    the fill phase nothing is dropped (returns None); afterwards either the
    evicted buffer item or the offered item itself is returned.  The dropped
    item is exactly what MRS's I/O worker takes a gradient step on.
    """

    def __init__(self, capacity: int, rng: np.random.Generator | None = None):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.rng = rng or np.random.default_rng()
        self.buffer: list[Any] = []
        self.items_seen = 0

    def offer(self, item: Any) -> Any | None:
        """Offer one item; returns the dropped item (or None while filling)."""
        self.items_seen += 1
        if len(self.buffer) < self.capacity:
            self.buffer.append(item)
            return None
        slot = int(self.rng.integers(0, self.items_seen))
        if slot < self.capacity:
            dropped = self.buffer[slot]
            self.buffer[slot] = item
            return dropped
        return item

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def is_full(self) -> bool:
        return len(self.buffer) >= self.capacity

    def sample(self) -> list[Any]:
        """The current without-replacement sample."""
        return list(self.buffer)


class OrderingPolicy:
    """Decides how the data is ordered before / between epochs."""

    #: Machine-readable policy name (used by configs and reports).
    name: str = "ordering"

    def __init__(self, mode: str = "physical") -> None:
        if mode not in ORDERING_MODES:
            raise ValueError(
                f"unknown ordering mode {mode!r}; expected one of {ORDERING_MODES}"
            )
        self.mode = mode
        #: Total wall-clock seconds spent reordering data, accumulated across
        #: the run; the driver folds this into epoch timings but experiments
        #: can also report it separately.
        self.shuffle_seconds: float = 0.0
        #: Number of reorder events (physical shuffles or, in logical mode,
        #: permutation generations).
        self.shuffle_count: int = 0

    @property
    def logical(self) -> bool:
        return self.mode == "logical"

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        """Called once before the first epoch."""

    def before_epoch(self, table: Table, epoch: int, rng: np.random.Generator) -> None:
        """Called before every epoch (including the first)."""

    def epoch_row_order(
        self, num_rows: int, epoch: int, rng: np.random.Generator, *, partition: int = 0
    ) -> np.ndarray | None:
        """Logical visit order for this epoch; ``None`` means physical order.

        Serial and shared-memory backends ask with the table's length; the
        segmented backend asks once per segment, passing the segment index as
        ``partition`` so that equal-length segments still draw *independent*
        permutations (like independent segment-local ``ORDER BY RANDOM()``
        runs).  Repeated calls with the same (epoch, partition, row count)
        return the same order.  Physical-mode policies always return
        ``None``: the heap itself carries the order.
        """
        return None

    def _timed_shuffle(self, table: Table, rng: np.random.Generator) -> None:
        start = time.perf_counter()
        table.shuffle(rng)
        self.shuffle_seconds += time.perf_counter() - start
        self.shuffle_count += 1

    def _timed_order(self, draw: Callable[..., np.ndarray], *args) -> np.ndarray:
        start = time.perf_counter()
        order = draw(*args)
        self.shuffle_seconds += time.perf_counter() - start
        self.shuffle_count += 1
        return order

    def _timed_permutation(self, num_rows: int, rng: np.random.Generator) -> np.ndarray:
        return self._timed_order(rng.permutation, num_rows)

    def describe(self) -> str:
        return self.name


class ClusteredOrder(OrderingPolicy):
    """Use the data exactly as stored (possibly clustered by an attribute).

    If ``cluster_column`` is given the table is physically clustered on it
    during :meth:`prepare`, reproducing the "data clustered by class label"
    scenario of the CA-TX example.  Clustering is inherently a physical
    rewrite (and happens at most once per run, so the example cache rebuilds
    at most once); the policy has no logical mode, but accepts
    ``mode="physical"`` so callers can forward a uniform ``mode`` kwarg
    through :func:`make_ordering`.
    """

    name = "clustered"

    def __init__(
        self,
        cluster_column: str | None = None,
        *,
        descending: bool = False,
        mode: str = "physical",
    ):
        if mode != "physical":
            raise ValueError(
                "clustered ordering is a physical rewrite by definition; "
                f"mode {mode!r} is not supported"
            )
        super().__init__(mode)
        self.cluster_column = cluster_column
        self.descending = descending

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        if self.cluster_column is not None:
            table.cluster_by(self.cluster_column, descending=self.descending)


class ShuffleOnce(OrderingPolicy):
    """Shuffle the data once, before the first epoch (the paper's remedy).

    In logical mode (the default) one permutation per row count is generated
    lazily on first use and then reused by every epoch, so the cached chunk
    plane decodes the table once per run, walks the permutation in epoch 0
    and gathers it once in epoch 1 (a copy that lives as long as it).
    """

    name = "shuffle_once"

    def __init__(self, mode: str = "logical"):
        super().__init__(mode)
        self._permutations: dict[tuple[int, int], np.ndarray] = {}

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        if self.logical:
            # A reused policy object starts each training run with fresh
            # permutations, mirroring how physical mode reshuffles the heap.
            self._permutations.clear()
        else:
            self._timed_shuffle(table, rng)

    def epoch_row_order(
        self, num_rows: int, epoch: int, rng: np.random.Generator, *, partition: int = 0
    ) -> np.ndarray | None:
        if not self.logical:
            return None
        key = (partition, num_rows)
        if key not in self._permutations:
            self._permutations[key] = self._timed_permutation(num_rows, rng)
        return self._permutations[key]


class ShuffleAlways(OrderingPolicy):
    """Shuffle the data before every epoch (the machine-learning default).

    In logical mode (the default) each epoch gets a fresh permutation over
    the *stable* table version: the heap is never rewritten, so the example
    cache survives every re-shuffle and no epoch re-decodes a single tuple.
    """

    name = "shuffle_always"

    def __init__(self, mode: str = "logical"):
        super().__init__(mode)
        self._epoch: int | None = None
        self._permutations: dict[tuple[int, int], np.ndarray] = {}

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        if self.logical:
            self._epoch = None
            self._permutations = {}

    def before_epoch(self, table: Table, epoch: int, rng: np.random.Generator) -> None:
        if not self.logical:
            self._timed_shuffle(table, rng)

    def epoch_row_order(
        self, num_rows: int, epoch: int, rng: np.random.Generator, *, partition: int = 0
    ) -> np.ndarray | None:
        if not self.logical:
            return None
        if epoch != self._epoch:
            self._epoch = epoch
            self._permutations = {}
        key = (partition, num_rows)
        if key not in self._permutations:
            self._permutations[key] = self._timed_permutation(num_rows, rng)
        return self._permutations[key]


class Subsample(OrderingPolicy):
    """Train on a reservoir sample only (Section 3.4's baseline).

    One reservoir pass per row count picks ``buffer_size`` ordinals lazily on
    first use; every epoch then visits that buffer and nothing else, as
    :class:`ShuffleOnce` reuses its permutation.  The objective is still the
    full-table objective, which is what makes subsampling's slow convergence
    visible.  ``buffer_size >= num_rows`` keeps every ordinal in stored order
    — the run is then bit-for-bit the ``clustered`` one.
    """

    name = "subsample"

    def __init__(self, buffer_size: int):
        super().__init__("logical")
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = buffer_size
        self._buffers: dict[tuple[int, int], np.ndarray] = {}

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        self._buffers.clear()

    def epoch_row_order(
        self, num_rows: int, epoch: int, rng: np.random.Generator, *, partition: int = 0
    ) -> np.ndarray:
        key = (partition, num_rows)
        if key not in self._buffers:
            self._buffers[key] = self._timed_order(self._draw, num_rows, rng)
        return self._buffers[key]

    def _draw(self, num_rows: int, rng: np.random.Generator) -> np.ndarray:
        sampler = ReservoirSampler(min(self.buffer_size, max(1, num_rows)), rng)
        for ordinal in range(num_rows):
            sampler.offer(ordinal)
        return np.asarray(sampler.buffer, dtype=np.intp)


class MultiplexedReservoir(OrderingPolicy):
    """Multiplexed reservoir sampling (Section 3.4, Figure 6).

    Two workers share one model: the **I/O worker** streams the table, offers
    every ordinal to a reservoir and steps on whatever the reservoir *drops*;
    the **memory worker** loops over the buffer the previous pass filled.
    One epoch is one pass of the I/O worker, and the two are interleaved
    deterministically — per streamed ordinal, the dropped ordinal (if any)
    then ``memory_steps_per_io`` picks from the memory buffer, the analogue
    of the workers' relative speeds.  When the epoch advances the buffers
    swap: the freshly filled reservoir becomes the memory worker's and its
    cursor restarts.  Both buffers live on the policy, keyed like the
    shuffle policies' permutations, so a checkpointed run resumes mid-stream.

    The reservoir is capped at ``num_rows - 1``: one that swallowed the whole
    stream would never drop an ordinal and the I/O worker would take no step
    at all.  Epoch 0 has no memory buffer yet, so with a buffer that large it
    takes exactly one step; later epochs take more than ``num_rows``.
    """

    name = "mrs"

    def __init__(self, buffer_size: int, memory_steps_per_io: int = 1):
        super().__init__("logical")
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = buffer_size
        self.memory_steps_per_io = memory_steps_per_io
        self._epoch: int | None = None
        self._orders: dict[tuple[int, int], np.ndarray] = {}
        #: Buffer A per partition — the reservoir this epoch's pass filled.
        self._filled: dict[tuple[int, int], list[int]] = {}
        #: Buffer B per partition — what the memory worker iterates over.
        self._memory: dict[tuple[int, int], list[int]] = {}

    def prepare(self, table: Table, rng: np.random.Generator) -> None:
        self._epoch = None
        self._orders, self._filled, self._memory = {}, {}, {}

    def epoch_row_order(
        self, num_rows: int, epoch: int, rng: np.random.Generator, *, partition: int = 0
    ) -> np.ndarray:
        if epoch != self._epoch:
            self._epoch = epoch
            self._orders, self._filled, self._memory = {}, {}, self._filled
        key = (partition, num_rows)
        if key not in self._orders:
            self._orders[key] = self._timed_order(self._interleave, key, rng)
        return self._orders[key]

    def _interleave(self, key: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        num_rows = key[1]
        sampler = ReservoirSampler(min(self.buffer_size, max(1, num_rows - 1)), rng)
        memory = self._memory.get(key, [])
        cursor = 0
        steps: list[int] = []
        for ordinal in range(num_rows):
            dropped = sampler.offer(ordinal)
            if dropped is not None:
                steps.append(dropped)
            for _ in range(self.memory_steps_per_io if memory else 0):
                steps.append(memory[cursor % len(memory)])
                cursor += 1
        self._filled[key] = sampler.buffer
        return np.asarray(steps, dtype=np.intp)


_POLICIES = {
    "clustered": ClusteredOrder,
    "shuffle_once": ShuffleOnce,
    "shuffle_always": ShuffleAlways,
    "subsample": Subsample,
    "mrs": MultiplexedReservoir,
}


def make_ordering(spec: "OrderingPolicy | str | None", **kwargs) -> OrderingPolicy:
    """Coerce a policy name (or an existing policy) into an OrderingPolicy.

    Keyword arguments are forwarded to the policy constructor, e.g.
    ``make_ordering("shuffle_always", mode="physical")`` or
    ``make_ordering("mrs", buffer_size=500)``.
    """
    if spec is None:
        return ShuffleOnce(**kwargs)
    if isinstance(spec, OrderingPolicy):
        return spec
    try:
        cls = _POLICIES[spec.lower()]
    except KeyError:
        raise ValueError(
            f"unknown ordering policy {spec!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    return cls(**kwargs)
