"""Backend-neutral chunk planning for the cached columnar execution plane.

Every execution backend — the serial executor (:mod:`repro.db.executor`), the
passes of :mod:`repro.db.pass_plan` and the pool workers — serves aggregates
from the *same* cached decoded chunks: one chunk list per (table, decoder),
which every filter, order and partition addresses by ordinal instead of
copying.
A :class:`ChunkPlan` bundles the decisions every backend makes:

* **cache lookup** — batches are resolved through the shared
  :class:`~repro.tasks.base.ExampleCache`, keyed by (table name, table
  version, decoding task, chunk size) and bound to the exact
  :class:`~repro.db.table.Table` object, so any physical mutation invalidates
  the plan on the next resolve;
* **selection and permutation** — :func:`resolve_ordinals` composes a WHERE
  predicate (evaluated once per (table, version) into a cached boolean
  selection vector, :meth:`~repro.tasks.base.ExampleCache.selection_for`)
  with an explicit ``row_order`` (logical shuffle-once / shuffle-always, the
  MRS machinery, the parts of a partitioned pass) into visit ordinals;
* **gather** — :func:`gather_batches` serves those ordinals by a vectorized
  gather over the cached decoded plane, re-chunked into ``chunk_size`` blocks,
  instead of per-tuple ``row_at`` loops; the gathers of pass-invariant
  orders are kept in one bounded cache slot;
* **append** — :func:`extend_chunk_list` joins decoded delta rows onto the
  tail chunk, in the cache and in pool workers alike; and
* **round-robin assignment** — :func:`split_round_robin` deals a visit
  sequence to parts as strided views (position ``j`` → part ``j % width``,
  how a shared-nothing engine lays segments out), and
  :func:`interleave_round_robin` walks those parts back in windows, the
  visit order of the simulated shared-memory epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tasks.base import ExampleCache, Task
    from .expressions import Expression
    from .table import Table


def split_round_robin(ordinals: np.ndarray, workers: int) -> list[np.ndarray]:
    """Round-robin split of a resolved visit-ordinal array across workers.

    Position ``i`` of the visit order goes to worker ``i % workers``, as
    strided views so no per-item Python loop runs.  The arithmetic under
    :func:`~repro.db.pass_plan.partition_pass`, the partition contract every
    pass backend shares.
    """
    return [ordinals[worker::workers] for worker in range(workers)]


def interleave_round_robin(order: np.ndarray, workers: int, window: int) -> np.ndarray:
    """``order`` as ``workers`` round-robin parts visit it, ``window`` rows a turn.

    Position ``j`` belongs to part ``j % workers`` (:func:`split_round_robin`)
    at that part's step ``j // workers``.  Turns go round the parts in order,
    each part taking its next ``window`` rows, until every part is drained —
    the visit sequence of workers that each step a private copy over one
    window and publish it before the next worker reads.  One ``lexsort`` on
    (round, part, position); a width above ``len(order)`` leaves the extra
    parts empty and the order unchanged.
    """
    order = np.asarray(order)
    positions = np.arange(order.shape[0])
    part = positions % workers
    rounds = positions // workers // window
    return order[np.lexsort((positions, part, rounds))]


def _visit_ordinals(
    num_rows: int, row_order: Sequence[int] | None, mask: "np.ndarray | None"
) -> np.ndarray:
    """The visit order walked first, rows outside the selection mask dropped."""
    if row_order is None:
        return np.flatnonzero(mask)
    order = np.asarray(row_order, dtype=np.intp)
    order = np.where(order < 0, order + num_rows, order)
    return order if mask is None else order[mask[order]]


def resolve_ordinals(
    table: "Table",
    cache: "ExampleCache",
    functions: Mapping[str, Callable] | None,
    where: "Expression | None",
    row_order: Sequence[int] | None,
) -> "np.ndarray | range":
    """Example ordinals for one pass; a ``range`` is every row in heap order.

    The visit order is walked first and rows failing the WHERE predicate are
    dropped, using the cached per-version selection vector — exactly like the
    per-tuple loop.
    """
    if where is None and row_order is None:
        return range(len(table))
    mask = cache.selection_for(table, where, functions) if where is not None else None
    return _visit_ordinals(len(table), row_order, mask)


def gather_batches(
    batches: list, ordinals: np.ndarray, chunk_size: int
) -> list | None:
    """Gather ``ordinals`` of the logically concatenated ``batches`` into new chunks.

    ``batches`` is a cached chunk sequence in which every batch holds exactly
    ``chunk_size`` examples except possibly the last (the
    :meth:`~repro.db.table.Table.iter_chunks` contract), so global ordinal
    ``g`` lives in batch ``g // chunk_size`` at offset ``g % chunk_size``.
    The result re-chunks the gathered examples into ``chunk_size`` blocks.

    Each output block is built from at most two vectorized passes over the
    batch type's gather kernels: one ``take`` per source batch contributing
    to the block (rows extracted in output order within that batch), a
    ``concat``, and — when the block interleaves several source batches — one
    final ``take`` that restores the requested order.  Returns ``None`` when
    the batch type implements no ``take``/``concat`` kernels, signalling the
    caller to fall back to per-tuple execution.
    """
    ordinals = np.asarray(ordinals, dtype=np.intp)
    if not batches:
        return [] if ordinals.size == 0 else None
    first = batches[0]
    if not hasattr(first, "take") or not hasattr(type(first), "concat"):
        return None
    total = sum(len(batch) for batch in batches)
    ordinals = np.where(ordinals < 0, ordinals + total, ordinals)
    if ordinals.size and (int(ordinals.min()) < 0 or int(ordinals.max()) >= total):
        raise IndexError(
            f"row ordinal out of range for {total} rows "
            f"(min {int(ordinals.min())}, max {int(ordinals.max())})"
        )
    gathered = []
    for start in range(0, ordinals.shape[0], chunk_size):
        block = ordinals[start:start + chunk_size]
        batch_ids = block // chunk_size
        offsets = block - batch_ids * chunk_size
        unique = np.unique(batch_ids)
        if unique.shape[0] == 1:
            gathered.append(batches[int(unique[0])].take(offsets))
            continue
        parts = []
        positions = []
        for batch_id in unique:
            mask = batch_ids == batch_id
            parts.append(batches[int(batch_id)].take(offsets[mask]))
            positions.append(np.flatnonzero(mask))
        # Concatenated row j belongs at output position order[j]; invert to
        # get the final take that restores the requested visit order.
        order = np.concatenate(positions)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.shape[0], dtype=order.dtype)
        gathered.append(type(first).concat(parts).take(inverse))
    return gathered


def extend_chunk_list(batches: list, base_rows: int, new_batches: list, chunk_size: int) -> list:
    """The first ``base_rows`` rows of ``batches`` plus ``new_batches``, re-chunked.

    The chunk plane's one append kernel: the cache runs it on the decoded
    delta rows and pool workers on the shipped ones, so both hold the same
    list.  Full chunks are kept as-is; the partial tail chunk (float values
    reused bit-for-bit) joins the new rows and is sliced back into globally
    ``chunk_size``-aligned blocks, the alignment :func:`gather_batches` needs.
    Rows past ``base_rows`` are dropped first: re-applying is idempotent.
    """
    full_chunks, tail_rows = divmod(base_rows, chunk_size)
    extended = list(batches[:full_chunks])
    parts = list(new_batches)
    if tail_rows:
        old_tail = batches[full_chunks]
        if len(old_tail) > tail_rows:
            old_tail = old_tail.take(np.arange(tail_rows, dtype=np.intp))
        parts.insert(0, old_tail)
    if not parts:
        return extended
    merged = type(parts[0]).concat(parts)
    if len(merged) <= chunk_size:
        extended.append(merged)
    else:
        for start in range(0, len(merged), chunk_size):
            stop = min(start + chunk_size, len(merged))
            extended.append(merged.take(np.arange(start, stop, dtype=np.intp)))
    return extended


class ChunkPlan:
    """A resolved plan for one aggregate pass over cached columnar chunks."""

    __slots__ = ("table", "decoder", "batches", "chunk_size")

    def __init__(self, table: "Table", decoder: "Task", batches: list, chunk_size: int):
        self.table = table
        self.decoder = decoder
        self.batches = batches
        self.chunk_size = chunk_size

    @classmethod
    def resolve(
        cls,
        table: "Table",
        decoder: "Task | None",
        cache: "ExampleCache",
        chunk_size: int,
        *,
        where: "Expression | None" = None,
        row_order: Sequence[int] | None = None,
        functions: Mapping[str, Callable] | None = None,
    ) -> "ChunkPlan | None":
        """Resolve a plan through the cache; None when the pass cannot chunk.

        ``where`` restricts the pass to rows matching the predicate via a
        selection vector cached once per (table, version, predicate);
        ``row_order`` imposes an explicit visit order (a permutation of row
        ordinals) served by gathering from the cached batches.  Both compose:
        the order is walked first and non-matching rows are dropped, exactly
        like the per-tuple loop.  ``None`` means the aggregate exposed no
        decoder, the decoding task does not support batches, the table's
        columns cannot be batched, or the batch type has no gather kernels —
        the caller must fall back to per-tuple execution.
        """
        if decoder is None:
            return None
        batches = cache.batches_for(table, decoder, chunk_size)
        if batches is None:
            return None
        if where is None and row_order is None:
            return cls(table, decoder, batches, chunk_size)
        # Gathered chunk lists share one bounded cache slot per (decoder,
        # chunk size); the order/selection identity rides along and is
        # checked on hit.  Pass-invariant inputs — a logical shuffle-once
        # permutation, a constant WHERE mask, the parts of a partitioned
        # pass — therefore gather once per table version instead of once per
        # epoch, while fresh per-epoch orders (shuffle-always) push the
        # previous epoch's gathers out.  Orders are treated as immutable:
        # mutating a row_order sequence in place between passes is not
        # supported.
        mask = cache.selection_for(table, where, functions) if where is not None else None
        identity = (
            None if row_order is None else id(row_order),
            None if mask is None else id(mask),
        )
        gathered = cache.gathered_for(
            table, ("gathered", id(decoder), chunk_size), identity, (decoder, row_order, mask),
            lambda: [_visit_ordinals(len(table), row_order, mask)],
            lambda visited: gather_batches(batches, visited[0], chunk_size),
        )
        if gathered is None:
            return None
        return cls(table, decoder, gathered, chunk_size)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def __repr__(self) -> str:
        return (
            f"ChunkPlan(table={self.table.name!r}, chunks={len(self.batches)}, "
            f"examples={self.num_examples})"
        )
