"""Task interface: objective, per-example gradient step, and loss.

Every analytics technique Bismarck supports (Figure 1B of the paper) is a
:class:`Task`: it knows how to build its initial model, how to turn a database
row into a training example, how to take one incremental gradient step on one
example (the body of the UDA ``transition`` function), and how to evaluate its
loss on one example (used by the loss UDA and the stopping rules).

The code-snippet comparison in Figure 4 of the paper — LR and SVM differ in a
handful of lines inside ``transition`` — is mirrored here: the task subclasses
are tiny, and everything else (ordering, parallelism, sampling, convergence)
is shared.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, ProximalOperator
from ..db.chunk_plan import visit_rows
from ..db.types import Row, SparseVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db.table imports types only)
    from ..db.chunk_plan import Visits
    from ..db.table import Table, TableChunk

# ---------------------------------------------------------------------------
# Sparse/dense feature helpers (the Dot_Product / Scale_And_Add of Figure 4)
# ---------------------------------------------------------------------------
FeatureVector = "np.ndarray | Mapping[int, float]"


def sparse_arrays(features: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Index/value arrays of a sparse mapping, in its iteration order.

    A stored :class:`~repro.db.types.SparseVector` already is that pair (its
    views of the table's CSR block); any other mapping is converted.  The
    array form makes the per-tuple sparse ops the *same float operations* as
    the chunked CSR kernels, which is what keeps the two execution paths
    bit-for-bit identical.
    """
    if type(features) is SparseVector:
        return features.indices, features.values
    count = len(features)
    indices = np.fromiter(features.keys(), dtype=np.intp, count=count)
    values = np.fromiter(features.values(), dtype=np.float64, count=count)
    return indices, values


def dot_product(weights: np.ndarray, features: Any) -> float:
    """``w . x`` for dense (ndarray) or sparse (index->value mapping) features."""
    if isinstance(features, Mapping):
        if not features:
            return 0.0
        indices, values = sparse_arrays(features)
        return float(np.dot(weights[indices], values))
    return float(np.dot(weights, features))


def scale_and_add(weights: np.ndarray, features: Any, scalar: float) -> None:
    """``w += scalar * x`` in place, for dense or sparse features."""
    if isinstance(features, Mapping):
        if not features:
            return
        indices, values = sparse_arrays(features)
        weights[indices] += scalar * values
    else:
        weights += scalar * features


# ---------------------------------------------------------------------------
# Columnar example batches (the decoded form of a TableChunk)
# ---------------------------------------------------------------------------
class ExampleBatch:
    """A block of decoded training examples in columnar form.

    Dense feature vectors materialise as one ``(n, d)`` matrix ``X``; sparse
    mappings as CSR-style ``indptr`` / ``indices`` / ``data`` arrays.  Labels
    are a single ``(n,)`` vector ``y``.  The exact-IGD kernels fetch one row
    at a time (``X[i]``, or row ``i``'s CSR slices) and run bit-for-bit the
    float operations of the per-tuple ``dot_product`` / ``scale_and_add``,
    while the loss/accuracy kernels use the fully vectorized
    :meth:`decision_values`.
    """

    __slots__ = ("kind", "X", "y", "indptr", "indices", "data", "dimension", "length")

    def __init__(
        self,
        kind: str,
        *,
        y: np.ndarray,
        dimension: int,
        X: np.ndarray | None = None,
        indptr: np.ndarray | None = None,
        indices: np.ndarray | None = None,
        data: np.ndarray | None = None,
    ):
        if kind not in ("dense", "sparse"):
            raise ValueError(f"unknown batch kind {kind!r}")
        self.kind = kind
        self.X = X
        self.y = y
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.dimension = dimension
        self.length = int(y.shape[0])

    def __len__(self) -> int:
        return self.length

    # ----------------------------------------------------- vectorized kernels
    def decision_values(self, w: np.ndarray) -> np.ndarray:
        """``X @ w`` for dense or sparse rows."""
        if self.kind == "dense":
            return self.X @ w
        lo, hi = int(self.indptr[0]), int(self.indptr[-1])
        result = np.zeros(self.length)
        if hi > lo:
            products = w[self.indices[lo:hi]] * self.data[lo:hi]
            starts = np.asarray(self.indptr[:-1] - lo, dtype=np.intp)
            counts = np.diff(self.indptr)
            # reduceat mis-handles zero-width segments (repeated or
            # out-of-range start indices), so reduce over the non-empty rows
            # only: their starts are strictly increasing and each segment runs
            # to the next non-empty start, which is exactly that row's entries.
            nonempty = counts > 0
            result[nonempty] = np.add.reduceat(products, starts[nonempty])
        return result

    # ------------------------------------------------------- gather kernels
    def take(self, indices: np.ndarray) -> "ExampleBatch":
        """Row gather: a new batch holding rows ``indices`` in that order.

        This is the selection/permutation kernel of the chunk plane: WHERE
        masks and logical row orders are applied as one vectorized gather
        over the cached batch instead of per-tuple ``row_at`` loops.  Dense
        rows gather with fancy indexing; sparse rows with the standard CSR
        row-gather (per-row segment copy), so the gathered rows hold exactly
        the same float values as the originals.
        """
        indices = np.asarray(indices, dtype=np.intp)
        y = self.y[indices]
        if self.kind == "dense":
            return ExampleBatch("dense", X=self.X[indices], y=y, dimension=self.dimension)
        counts = self.indptr[indices + 1] - self.indptr[indices]
        indptr = np.zeros(indices.shape[0] + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        # Element positions: each gathered row k copies the contiguous source
        # run indptr_src[indices[k]] .. + counts[k].
        starts = np.repeat(self.indptr[indices], counts)
        within = np.arange(total, dtype=np.intp) - np.repeat(indptr[:-1], counts)
        element = starts + within
        return ExampleBatch(
            "sparse",
            indptr=indptr,
            indices=self.indices[element],
            data=self.data[element],
            y=y,
            dimension=self.dimension,
        )

    @classmethod
    def concat(cls, batches: "list[ExampleBatch]") -> "ExampleBatch":
        """Concatenate batches of the same kind into one batch."""
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        y = np.concatenate([batch.y for batch in batches])
        if first.kind == "dense":
            return cls(
                "dense",
                X=np.concatenate([batch.X for batch in batches]),
                y=y,
                dimension=first.dimension,
            )
        counts = np.concatenate([np.diff(batch.indptr) for batch in batches])
        indptr = np.zeros(y.shape[0] + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            "sparse",
            indptr=indptr,
            indices=np.concatenate([batch.indices for batch in batches]),
            data=np.concatenate([batch.data for batch in batches]),
            y=y,
            dimension=first.dimension,
        )

    def __repr__(self) -> str:
        return f"ExampleBatch(kind={self.kind!r}, rows={self.length}, dim={self.dimension})"


def _shared_rows(rows: list[np.ndarray]) -> np.ndarray | None:
    """``np.stack(rows)`` as a read-only view of the buffer the rows share, or ``None``.

    Rows 0, 1 and n-1 give the candidate (one base, a positive constant
    step).  Reading every row's address costs more than the copy it saves, so
    the candidate must equal the rows' transient concatenation bit for bit.
    """
    first, n = rows[0], len(rows)
    base = first.base
    if base is None or first.dtype != np.float64 or any(row.base is not base for row in rows):
        return None
    # Row n-1 bounds the view in the buffer only if it is laid out as row 0.
    if len(set(map(len, rows))) > 1 or rows[-1].strides != first.strides:
        return None
    start = first.__array_interface__["data"][0]
    step = rows[1].__array_interface__["data"][0] - start if n > 1 else 0
    if n > 1 and (step <= 0 or rows[-1].__array_interface__["data"][0] != start + (n - 1) * step):
        return None
    view = np.lib.stride_tricks.as_strided(
        first, (n, len(first)), (step, *first.strides), writeable=False
    )
    stacked = np.concatenate(rows).reshape(view.shape)
    if stacked.dtype != np.float64:
        return None
    return view if np.array_equal(view.view(np.int64), stacked.view(np.int64)) else None


def make_example_batch(
    features: np.ndarray, labels: np.ndarray, dimension: int
) -> ExampleBatch | None:
    """Build an :class:`ExampleBatch` from a chunk's feature/label columns.

    ``features`` is the raw column array: a numeric array for scalar features
    (the 1-D CA-TX layout, treated as ``(n, 1)`` dense), or an object array of
    per-row ndarrays (dense) or index->value mappings (sparse).  Dense rows
    become a read-only ``X``: a view of the buffer they are rows of when
    :func:`_shared_rows` finds one, else their ``np.stack`` copy.  Returns
    ``None`` when the column cannot be batched (mixed or exotic feature
    types), signalling the caller to fall back to per-tuple execution.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = labels.shape[0]
    if n == 0:
        return ExampleBatch("dense", X=np.zeros((0, dimension)), y=labels, dimension=dimension)
    if features.dtype != object:
        X = np.asarray(features, dtype=np.float64).reshape(n, 1)
        return ExampleBatch("dense", X=X, y=labels, dimension=dimension)
    first = features[0]
    if isinstance(first, np.ndarray):
        rows = list(features)
        if not all(isinstance(row, np.ndarray) and row.ndim == 1 for row in rows):
            return None
        X = _shared_rows(rows)
        if X is None:
            try:
                X = np.stack(rows).astype(np.float64, copy=False)
            except ValueError:
                return None
            X.flags.writeable = False
        return ExampleBatch("dense", X=X, y=labels, dimension=dimension)
    if isinstance(first, Mapping):
        # Stored values skip the ABC check, most of its cost per row.
        if set(map(type, features)) != {SparseVector} and not all(
            isinstance(row, Mapping) for row in features
        ):
            return None
        keys, values = zip(*map(sparse_arrays, features))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, keys), dtype=np.intp, count=n), out=indptr[1:])
        indices = np.concatenate(keys, dtype=np.intp)
        data = np.concatenate(values, dtype=np.float64)
        return ExampleBatch(
            "sparse", indptr=indptr, indices=indices, data=data, y=labels, dimension=dimension
        )
    return None


class _CacheEntry:
    __slots__ = ("table_ref", "version", "payload", "task")

    def __init__(
        self,
        table: "Table",
        version: int,
        payload: Any,
        task: "Task",
    ):
        # A weak reference: entries must be bound to the exact Table object
        # (a dropped-and-recreated table of the same name starts its own
        # version sequence, so the name+version pair alone is not unique),
        # without keeping replaced tables' data alive.
        self.table_ref = weakref.ref(table)
        self.version = version
        self.payload = payload
        # Pin the task so its id() cannot be recycled while the entry lives.
        self.task = task

    def valid_for(self, table: "Table", version: int) -> bool:
        return self.table_ref() is table and self.version == version


def _forget_order(cache_ref: "weakref.ref[ExampleCache]", key: tuple) -> None:
    """Finalizer of a :meth:`ExampleCache.kept_for` anchor: drop what it kept."""
    cache = cache_ref()
    if cache is not None:
        cache._orders.pop(key, None)


class ExampleCache:
    """Per-(table-name, version, task) cache of decoded example batches.

    Row -> example decoding is the dominant per-epoch cost of the per-tuple
    path; this cache makes it happen once per *table mutation* instead of once
    per tuple per epoch.  Entries are keyed by table name + the table's
    monotonic :attr:`~repro.db.table.Table.version`, so any physical mutation
    (insert, shuffle, cluster, truncate) invalidates stale batches on the next
    lookup.  Unbatchable (table, task) pairs are negatively cached so the
    fallback decision is also O(1) per epoch.

    **Incremental extension.**  When a stale entry's version delta classifies
    as append-only in the table's ledger, the cache does not invalidate:
    it decodes only the new tail rows, re-chunks them onto the cached chunk
    list (preserving the global ``chunk_size`` alignment the gather paths
    rely on), and stores the extended payload at the new version.  The
    extension kernels (``concat`` + ``take``) preserve exact float values, so
    an extended cache is bit-for-bit identical to a cold decode at the same
    version.  Rewrites (shuffle, cluster, truncate) keep full invalidation.
    ``decoded_rows`` counts every row actually decoded, so streaming
    workloads can assert the incremental path only pays for the delta.
    What one visit order needs beyond that lives in :meth:`kept_for`.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: dict[tuple, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        # Derived entries (selection vectors and other per-version artefacts)
        # keep their own counters so decode statistics stay meaningful: a
        # ``misses`` that stays flat across epochs means zero re-decodes even
        # when selections are being resolved alongside.
        self.derived_hits = 0
        self.derived_misses = 0
        #: Number of stale lookups served by extending the cached payload
        #: with a delta decode instead of rebuilding it from scratch.
        self.extensions = 0
        #: Total rows decoded (full rebuilds + delta extensions).  The
        #: streaming bench asserts this only grows by the delta under
        #: append-only traffic.
        self.decoded_rows = 0
        #: What :meth:`kept_for` keeps per visit order, dropped with the order.
        self._orders: dict[tuple, _CacheEntry] = {}

    def _append_delta(self, entry: "_CacheEntry | None", table: "Table"):
        """The entry's append-only delta to the current version, or ``None``.

        ``None`` means the entry cannot be extended (no entry, different
        table object, negatively-cached payload, or a rewrite delta) and the
        caller must rebuild from scratch.
        """
        if entry is None or entry.payload is None or entry.table_ref() is not table:
            return None
        delta = table.classify_delta(entry.version)
        if not delta.is_append:
            return None
        return delta

    def batches_for(
        self, table: "Table", task: "Task", chunk_size: int
    ) -> "list[ExampleBatch] | None":
        """Cached batches for ``table`` decoded by ``task``; None if unbatchable."""
        if not getattr(task, "supports_batches", False):
            return None
        key = (table.name, id(task), chunk_size)
        version = table.version
        entry = self._entries.get(key)
        if entry is not None and entry.valid_for(table, version):
            self.hits += 1
            self._touch(key)
            return entry.payload
        delta = self._append_delta(entry, table)
        if delta is not None:
            extended = self._extend_batches(
                entry.payload, table, task, chunk_size, delta
            )
            if extended is not None:
                self.extensions += 1
                self._store(key, entry, table, version, extended, task)
                return extended
        self.misses += 1
        batches: list[ExampleBatch] | None = []
        for chunk in table.iter_chunks(chunk_size):
            batch = task.batch_from_chunk(chunk)
            if batch is None:
                batches = None
                break
            batches.append(batch)
        if batches is not None:
            self.decoded_rows += len(table)
        self._store(key, entry, table, version, batches, task)
        return batches

    def _extend_batches(
        self,
        cached: "list[ExampleBatch]",
        table: "Table",
        task: "Task",
        chunk_size: int,
        delta,
    ) -> "list[ExampleBatch] | None":
        """Extend a cached chunk list with decoded delta rows, or ``None``.

        Decodes the appended rows into one batch and hands it to
        :func:`~repro.db.chunk_plan.extend_chunk_list`, which keeps every
        full cached chunk and re-chunks the tail.  Returns ``None`` when the
        delta rows fail to decode or decode to an incompatible batch kind;
        the caller falls back to a full rebuild.
        """
        from ..db.chunk_plan import extend_chunk_list
        from ..db.table import TableChunk

        base_rows = delta.base_rows
        if sum(len(batch) for batch in cached) != base_rows:
            return None
        new_values = table.tail_values(base_rows)
        if len(new_values) != delta.rows_added:
            return None
        new_chunk = TableChunk(
            table.schema,
            new_values,
            table_name=table.name,
            table_version=table.version,
            start=base_rows,
        )
        new_batch = task.batch_from_chunk(new_chunk)
        if new_batch is None:
            return None
        if base_rows % chunk_size and getattr(cached[-1], "kind", None) != getattr(
            new_batch, "kind", None
        ):
            return None
        self.decoded_rows += delta.rows_added
        return extend_chunk_list(cached, base_rows, [new_batch], chunk_size)

    def examples_for(self, table: "Table", task: "Task") -> list:
        """Cached decoded examples (``task.example_from_row`` over the heap).

        Unlike :meth:`batches_for` this works for *every* task — decoding a
        row into an example is the base Task contract — so per-example
        backends (the shared-memory epoch) can serve any workload from the
        cache.  Entries share the table/version/task key scheme with the
        columnar batches and are invalidated identically; append-only deltas
        extend the cached list with the decoded tail rows only.
        """
        key = (table.name, id(task), "examples")
        version = table.version
        entry = self._entries.get(key)
        if entry is not None and entry.valid_for(table, version):
            self.hits += 1
            self._touch(key)
            return entry.payload
        delta = self._append_delta(entry, table)
        if delta is not None and len(entry.payload) == delta.base_rows:
            schema = table.schema
            new_examples = [
                task.example_from_row(Row(schema, values))
                for values in table.tail_values(delta.base_rows)
            ]
            examples = entry.payload + new_examples
            self.extensions += 1
            self.decoded_rows += delta.rows_added
            self._store(key, entry, table, version, examples, task)
            return examples
        self.misses += 1
        examples = [task.example_from_row(row) for row in table.to_rows()]
        self.decoded_rows += len(examples)
        self._store(key, entry, table, version, examples, task)
        return examples

    def derived_for(self, table: "Table", key: tuple, pin: Any, build) -> Any:
        """Cache an arbitrary per-version artefact derived from ``table``.

        ``key`` identifies the artefact (selection vectors); entries share
        the table/version invalidation of the decoded batches but keep their
        own hit/miss counters, so decode statistics stay meaningful.  ``pin``
        keeps any identity-keyed objects alive for the entry's lifetime so
        their ``id()`` cannot be recycled.
        """
        full_key = (table.name, "derived") + tuple(key)
        version = table.version
        entry = self._entries.get(full_key)
        if entry is not None and entry.valid_for(table, version):
            self.derived_hits += 1
            self._touch(full_key)
            return entry.payload
        self.derived_misses += 1
        payload = build()
        self._store(full_key, entry, table, version, payload, pin)
        return payload

    def kept_for(self, table: "Table", anchors: tuple, key: tuple, pin: Any) -> "dict | None":
        """Scratch space kept for one visit order; empty on its first sight.

        ``anchors`` name the order by identity (a row order, a selection
        vector, segment orders).  Nothing pins them: a ``weakref.finalize`` on
        each, holding only a weak reference to this cache, drops the dict with
        any of them.  ``pin`` holds the object whose id ``key`` carries.  None
        when there is no anchor or one cannot be weakly referenced (a list).
        """
        if not anchors:
            return None
        try:
            for anchor in anchors:
                weakref.ref(anchor)
        except TypeError:
            return None
        full_key = (table.name, *map(id, anchors), *key)
        entry = self._orders.get(full_key)
        if entry is not None and entry.valid_for(table, table.version):
            self.derived_hits += 1
            return entry.payload
        self.derived_misses += 1
        if entry is None:
            for anchor in anchors:
                weakref.finalize(anchor, _forget_order, weakref.ref(self), full_key)
        entry = self._orders[full_key] = _CacheEntry(table, table.version, {}, pin)
        return entry.payload

    def selection_for(
        self, table: "Table", predicate: Any, functions: Mapping[str, Any] | None = None
    ) -> np.ndarray:
        """Cached boolean selection vector of ``predicate`` over ``table``.

        The predicate (an :class:`~repro.db.expressions.Expression`) is
        evaluated once per *table version* — not once per tuple per epoch —
        into a ``(len(table),)`` bool mask, which the chunk plane applies as a
        batch take/mask over cached example batches.  Predicates are assumed
        deterministic; entries share the version-keyed invalidation of the
        decoded batches.  Hashable (frozen-dataclass) predicates are keyed
        structurally so equal predicates built by different callers share one
        vector; unhashable ones fall back to identity keying.  The key also
        carries the identity of every UDF the predicate references, so
        re-registering a function under the same name invalidates the vector
        instead of serving a mask computed with the old binding.
        """
        function_map = dict(functions) if functions else {}
        bindings = tuple(
            function_map.get(name)
            for name in sorted(predicate.referenced_functions())
        )
        try:
            hash(predicate)
            predicate_key: Any = predicate
        except TypeError:
            predicate_key = id(predicate)
        key = ("selection", predicate_key, tuple(id(f) for f in bindings))

        def build() -> np.ndarray:
            return np.fromiter(
                (bool(predicate.evaluate(row, function_map)) for row in table.to_rows()),
                dtype=np.bool_,
                count=len(table),
            )

        return self.derived_for(table, key, (predicate, bindings), build)

    def _touch(self, key: tuple) -> None:
        """Move an entry to the back of the eviction order (LRU on hit).

        Keeps hot entries — notably the decoded base batches that every
        epoch walks — alive while older derived artefacts age out first.
        """
        self._entries[key] = self._entries.pop(key)

    def _store(
        self, key: tuple, entry: "_CacheEntry | None", table: "Table",
        version: int, payload: Any, task: "Task",
    ) -> None:
        # Pop before re-assigning so refreshed entries (extensions, rebuilds
        # of a stale key) move to the back of the eviction order — true LRU
        # by last touch, not by first insertion.
        self._entries.pop(key, None)
        if entry is None and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = _CacheEntry(table, version, payload, task)

    def clear(self) -> None:
        """Drop every entry and kept order; the counters stay."""
        self._entries.clear()
        self._orders.clear()

    def __len__(self) -> int:
        return len(self._entries)


class Task:
    """Base class for analytics tasks solved by IGD."""

    #: Short machine-readable name, used by the SQL front end and registries.
    name: str = "task"

    #: Whether the task implements the chunked/batched kernels below.  Tasks
    #: that leave this False always run through the per-tuple path.
    supports_batches: bool = False

    def __init__(self, proximal: ProximalOperator | None = None):
        self.proximal: ProximalOperator = proximal or IdentityProximal()

    # -------------------------------------------------------------- interface
    def initial_model(self, rng: np.random.Generator | None = None) -> Model:
        """Build the initial model state (typically zeros)."""
        raise NotImplementedError

    def example_from_row(self, row: Row | Mapping[str, Any]) -> Any:
        """Convert a database row into this task's example representation."""
        raise NotImplementedError

    def gradient_step(self, model: Model, example: Any, alpha: float) -> None:
        """One incremental gradient step on ``example`` with step size ``alpha``.

        Mutates ``model`` in place; the proximal operator is applied by the
        caller (the IGD UDA), not here, so the same task works with different
        regularisers.
        """
        raise NotImplementedError

    def loss(self, model: Model, example: Any) -> float:
        """Per-example loss f(w, z_i) (without the P(w) term)."""
        raise NotImplementedError

    def predict(self, model: Model, example: Any) -> Any:
        """Optional prediction for one example."""
        raise NotImplementedError(f"{type(self).__name__} does not implement predict()")

    # --------------------------------------------------------------- helpers
    def total_loss(self, model: Model, examples: Iterable[Any]) -> float:
        """Sum of per-example losses (the data term of the objective)."""
        return float(sum(self.loss(model, example) for example in examples))

    # ----------------------------------------------------------- batched API
    def batch_from_chunk(self, chunk: "TableChunk") -> ExampleBatch | None:
        """Decode a columnar table chunk into an ExampleBatch (None = can't)."""
        return None

    def batch_loss(self, model: Model, batch: ExampleBatch) -> float:
        """Sum of per-example losses over a batch (one numpy reduction)."""
        raise NotImplementedError(f"{type(self).__name__} does not implement batch_loss()")

    def batch_correct(self, model: Model, batch: ExampleBatch) -> int:
        """Number of correctly classified examples in a batch."""
        raise NotImplementedError(f"{type(self).__name__} does not implement batch_correct()")

    def igd_chunk(
        self,
        model: Model,
        batch: "ExampleBatch | Visits",
        alphas: np.ndarray,
        proximal: ProximalOperator,
    ) -> None:
        """Sequential IGD over a batch or a ``Visits`` window: bit-for-bit the per-tuple updates.

        ``alphas[i]`` is the step size of the i-th visit (precomputed by the
        aggregate from the step-size schedule).  Kernels loop once over
        :func:`~repro.db.chunk_plan.visit_rows` and fetch each row once from
        its source batch, so a walked order runs the same float operations
        as its gathered copy.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement igd_chunk()")

    def describe(self) -> str:
        return self.name


class DecodedExampleBatch:
    """A chunk of task-decoded examples cached once per table version.

    The generic chunk representation for tasks whose per-example kernels are
    not expressible over flat columnar arrays (CRF sequences, Kalman time
    steps, portfolio return samples).  The chunked win for these tasks is
    decoding — row formation and parsing happen once per *table mutation*
    instead of once per tuple per epoch — plus per-chunk instead of per-tuple
    engine overhead; the float operations stay exactly the per-tuple ones.
    """

    __slots__ = ("examples",)

    def __init__(self, examples: list):
        self.examples = examples

    def __len__(self) -> int:
        return len(self.examples)

    # ------------------------------------------------------- gather kernels
    # Subclasses carrying extra per-example arrays (e.g. the CRF's
    # SequenceBatch) must override both kernels to gather those arrays too —
    # the base implementations return a plain DecodedExampleBatch.
    def take(self, indices) -> "DecodedExampleBatch":
        """Example gather: rows ``indices`` of this batch, in that order."""
        examples = self.examples
        return DecodedExampleBatch([examples[int(i)] for i in indices])

    @classmethod
    def concat(cls, batches: "list[DecodedExampleBatch]") -> "DecodedExampleBatch":
        if len(batches) == 1:
            return batches[0]
        return DecodedExampleBatch(
            [example for batch in batches for example in batch.examples]
        )

    def __repr__(self) -> str:
        return f"DecodedExampleBatch(rows={len(self.examples)})"


class PerExampleChunkTask(Task):
    """Chunked execution through cached decoded examples.

    Subclasses get the full ``supports_batches`` contract without writing
    columnar kernels: ``batch_from_chunk`` decodes the chunk's rows through
    the task's own ``example_from_row``, ``igd_chunk`` replays the task's own
    ``gradient_step`` over the cached examples (bit-for-bit the per-tuple
    updates), and ``batch_loss`` accumulates the task's ``loss`` in scan
    order.
    """

    supports_batches = True

    def batch_from_chunk(self, chunk: "TableChunk") -> DecodedExampleBatch | None:
        schema = chunk.schema
        try:
            examples = [
                self.example_from_row(Row(schema, values))
                for values in chunk.row_values()
            ]
        except Exception:
            # Any decode failure (missing columns, malformed payloads) makes
            # the (table, task) pair unbatchable; the cache records the miss
            # negatively and execution falls back to per-tuple.
            return None
        return DecodedExampleBatch(examples)

    def igd_chunk(
        self,
        model: Model,
        batch: "DecodedExampleBatch | Visits",
        alphas: np.ndarray,
        proximal: ProximalOperator,
    ) -> None:
        apply_proximal = not isinstance(proximal, IdentityProximal)
        for alpha, (source, i) in zip(alphas, visit_rows(batch)):
            self.gradient_step(model, source.examples[i], alpha)
            if apply_proximal:
                proximal.apply(model, alpha)

    def batch_loss(self, model: Model, batch: DecodedExampleBatch) -> float:
        total = 0.0
        for example in batch.examples:
            total += self.loss(model, example)
        return total


class SupervisedExample:
    """A generic (features, label) example used by LR, SVM and least squares."""

    __slots__ = ("features", "label")

    def __init__(self, features: Any, label: float):
        self.features = features
        self.label = float(label)

    def __repr__(self) -> str:
        return f"SupervisedExample(label={self.label}, features={type(self.features).__name__})"


class LinearModelTask(Task):
    """Shared plumbing for tasks whose model is a single coefficient vector."""

    supports_batches = True

    def __init__(
        self,
        dimension: int,
        *,
        feature_column: str = "vec",
        label_column: str = "label",
        proximal: ProximalOperator | None = None,
    ):
        super().__init__(proximal)
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.feature_column = feature_column
        self.label_column = label_column

    def initial_model(self, rng: np.random.Generator | None = None) -> Model:
        return Model({"w": np.zeros(self.dimension)})

    def example_from_row(self, row: Row | Mapping[str, Any]) -> SupervisedExample:
        features = row[self.feature_column]
        label = row[self.label_column]
        return SupervisedExample(features, label)

    # ----------------------------------------------------------- batched API
    def batch_from_chunk(self, chunk: "TableChunk") -> ExampleBatch | None:
        features = chunk.column(self.feature_column)
        labels = chunk.column(self.label_column)
        return make_example_batch(features, labels, self.dimension)

    def batch_correct(self, model: Model, batch: ExampleBatch) -> int:
        if not hasattr(self, "classify"):
            raise NotImplementedError(f"{type(self).__name__} does not classify")
        decisions = batch.decision_values(model["w"])
        predicted = self.batch_classify_decisions(decisions)
        truth = np.where(batch.y > 0, 1, -1)
        return int(np.count_nonzero(predicted == truth))

    def batch_classify_decisions(self, decisions: np.ndarray) -> np.ndarray:
        """±1 labels from decision values; must mirror ``classify`` exactly."""
        return np.where(decisions >= 0.0, 1, -1)
