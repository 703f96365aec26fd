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
* **walk or gather** — an order seen for the first time is *walked* over
  the cached chunks (:class:`Visits` windows); the same order object asked
  for again is gathered once by :func:`gather_batches`, and that copy lives
  exactly as long as the order — the paper's shuffle-once copy;
* **append** — :func:`extend_chunk_list` joins decoded delta rows onto the
  tail chunk, in the cache and in pool workers alike; and
* **round-robin assignment** — :func:`split_round_robin` deals a visit
  sequence to parts as strided views (position ``j`` → part ``j % width``,
  how a shared-nothing engine lays segments out), and
  :func:`interleave_round_robin` walks those parts back in windows, the
  visit order of the simulated shared-memory epoch.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

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
    """The visit order walked first, rows outside the selection mask dropped;
    the one place ordinals are normalised (a negative one counts from the end
    once, as in ``Table.row_at``) and bounds-checked (``IndexError``)."""
    if row_order is None:
        return np.flatnonzero(mask)
    order = np.asarray(row_order, dtype=np.intp)
    order = np.where(order < 0, order + num_rows, order)
    if order.size and (int(order.min()) < 0 or int(order.max()) >= num_rows):
        raise IndexError(f"row ordinal out of range for {num_rows} rows")
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
    if not _gathers(first):
        return None
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


class Visits:
    """A walk window: up to ``chunk_size`` visit ordinals over one cached
    chunk list, row ``g`` at offset ``g % chunk_size`` of ``batches[g //
    chunk_size]`` (the alignment :func:`extend_chunk_list` keeps)."""

    __slots__ = ("batches", "ordinals", "chunk_size")

    def __init__(self, batches: list, ordinals: np.ndarray, chunk_size: int):
        self.batches = batches
        self.ordinals = ordinals
        self.chunk_size = chunk_size

    def __len__(self) -> int:
        return len(self.ordinals)


def visit_rows(batch: Any) -> Iterable[tuple[Any, int]]:
    """``(source batch, row)`` per step of an ``igd_chunk`` over a batch or
    a :class:`Visits` window, in visit order."""
    if type(batch) is Visits:
        chunk_ids, offsets = np.divmod(batch.ordinals, batch.chunk_size)
        return zip(map(batch.batches.__getitem__, chunk_ids.tolist()), offsets.tolist())
    return zip(repeat(batch), range(len(batch)))


def visit_windows(batches: list, ordinals: np.ndarray, chunk_size: int, walks: bool) -> Iterator:
    """``ordinals`` in ``chunk_size`` windows: :class:`Visits` when ``walks``,
    else each window gathered into one batch that is dropped after use."""
    for start in range(0, len(ordinals), chunk_size):
        window = ordinals[start:start + chunk_size]
        yield (
            Visits(batches, window, chunk_size) if walks
            else gather_batches(batches, window, chunk_size)[0]
        )


def _gathers(batch: Any) -> bool:
    return hasattr(batch, "take") and hasattr(type(batch), "concat")


class ChunkPlan:
    """A resolved plan for one aggregate pass over cached columnar chunks:
    ``batches`` as they are, or (``ordinals`` set) a walk over them."""

    __slots__ = ("table", "decoder", "batches", "chunk_size", "ordinals", "walks")

    def __init__(
        self, table: "Table", decoder: "Task", batches: list, chunk_size: int,
        ordinals: "np.ndarray | None" = None, walks: bool = False,
    ):
        self.table = table
        self.decoder = decoder
        self.batches = batches
        self.chunk_size = chunk_size
        self.ordinals = ordinals
        self.walks = walks

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
        walks: bool = False,
    ) -> "ChunkPlan | None":
        """Resolve a plan through the cache; None when the pass cannot chunk.

        ``where`` restricts the pass to rows matching the predicate via a
        selection vector cached once per (table, version, predicate);
        ``row_order`` imposes an explicit visit order.  Both compose: the
        order is walked first and non-matching rows are dropped, exactly
        like the per-tuple loop.  An order (the ``row_order`` object, else
        the selection vector; treated as immutable) is walked on first sight
        — in :class:`Visits` windows when ``walks`` — and gathered once when
        asked for again, the copy kept while the order lives.  ``None`` means
        the aggregate exposed no decoder, the decoding task does not support
        batches, the table's columns cannot be batched, or the batch type has
        no gather kernels — the caller must fall back to per-tuple execution.
        """
        if decoder is None:
            return None
        batches = cache.batches_for(table, decoder, chunk_size)
        if batches is None:
            return None
        if where is None and row_order is None:
            return cls(table, decoder, batches, chunk_size)
        if batches and not _gathers(batches[0]):
            return None
        mask = cache.selection_for(table, where, functions) if where is not None else None
        kept = cache.kept_for(
            table, tuple(anchor for anchor in (row_order, mask) if anchor is not None),
            ("gathered", id(decoder), chunk_size), decoder,
        )
        if kept:
            if "batches" not in kept:
                kept["batches"] = gather_batches(
                    batches, _visit_ordinals(len(table), row_order, mask), chunk_size
                )
            return cls(table, decoder, kept["batches"], chunk_size)
        if kept is not None:
            kept["seen"] = True
        ordinals = _visit_ordinals(len(table), row_order, mask)
        return cls(table, decoder, batches, chunk_size, ordinals, walks)

    def __iter__(self) -> Iterator[Any]:
        if self.ordinals is None:
            return iter(self.batches)
        return visit_windows(self.batches, self.ordinals, self.chunk_size, self.walks)

    def __repr__(self) -> str:
        walked = self.ordinals is not None
        rows = len(self.ordinals) if walked else sum(map(len, self.batches))
        return f"ChunkPlan(table={self.table.name!r}, examples={rows}, walked={walked})"
