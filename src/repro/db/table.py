"""In-memory heap tables with page-structured storage.

Tables store rows in fixed-size *pages* (lists of value tuples), mimicking the
heap-file organisation of a disk-based RDBMS.  The page structure matters for
the Bismarck reproduction because the paper's data-ordering study is about the
physical order rows are returned by a sequential scan: :meth:`Table.cluster_by`
re-orders the heap like a ``CLUSTER`` command, and :meth:`Table.shuffle` is the
physical analogue of ``CREATE TABLE shuffled AS SELECT * FROM t ORDER BY
RANDOM()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ExecutionError, SchemaError
from .types import (
    FLOAT64,
    ColumnType,
    Row,
    Schema,
    SparseVector,
    coerce_value,
    narrow_indices,
    pack_sparse,
    sparse_rows,
)

DEFAULT_PAGE_SIZE = 256
#: Default number of rows per columnar chunk yielded by :meth:`Table.scan_chunks`.
DEFAULT_CHUNK_SIZE = 4096

#: How many ledger entries a table retains.  Version deltas that reach past
#: the retained window classify as rewrites (the safe answer), so the bound
#: only limits how far back *incremental* consumers can reach, never
#: correctness.  Streaming workloads touch caches every few versions, so a
#: few thousand entries is far more history than any consumer needs.
DEFAULT_LEDGER_CAPACITY = 4096


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded mutation: how the table moved to ``version``."""

    version: int
    #: ``"append"`` (rows added at the tail, existing rows untouched) or
    #: ``"rewrite"`` (contents or physical order changed arbitrarily).
    kind: str
    #: Rows added by this mutation (0 for rewrites).
    rows_added: int
    #: Total rows after this mutation.
    rows_after: int
    #: The mutating operation, e.g. ``"insert_many"`` or ``"shuffle"``.
    op: str


@dataclass(frozen=True)
class VersionDelta:
    """Classification of the mutations between two versions of a table.

    ``kind`` is one of:

    * ``"same"`` — no mutations; the versions are equal.
    * ``"append"`` — every mutation in the range appended rows at the tail;
      rows ``[0, base_rows)`` are bit-identical to the old version and rows
      ``[base_rows, base_rows + rows_added)`` are new.
    * ``"rewrite"`` — at least one mutation rewrote contents or physical
      order (or the ledger no longer covers the range); ``op`` names the
      first rewriting operation when known.
    """

    kind: str
    rows_added: int = 0
    base_rows: int = 0
    op: str | None = None

    @property
    def is_append(self) -> bool:
        return self.kind == "append"

    @property
    def is_same(self) -> bool:
        return self.kind == "same"

#: Logical column types that materialise as typed (non-object) numpy arrays.
_CHUNK_DTYPES = {
    ColumnType.FLOAT: np.float64,
    ColumnType.INTEGER: np.int64,
    ColumnType.BOOLEAN: np.bool_,
}


def encode_rows(schema: Schema, rows: list[tuple]) -> dict:
    """The fields a durable record or image carries ``rows`` in.

    Two kinds of column leave the tuples for ``"blocks"``, ``{column_index:
    block}``, so pickle frames a few buffers per column instead of an object
    per row:

    * a ``FLOAT_ARRAY`` column whose every value in ``rows`` is a 1-D float64
      array of one length, as one stacked ``(n, d)`` array;
    * a ``SPARSE_VECTOR`` column whose every value is a :class:`SparseVector`
      or NULL, as one CSR entry ``(indptr, indices, values, nulls)``: the
      non-NULL rows' arrays concatenated, keys in the narrowest of uint16 /
      int32 / int64 that holds them, and the NULL rows' positions.

    Everything else stays inline in ``"rows"`` — ragged, ``None`` or
    list-valued arrays, and scalar columns (typed arrays grew the file).
    With no block the result is ``{"rows": rows}`` alone, byte for byte what
    was written before blocks existed.
    """
    blocks: dict[int, Any] = {}
    if rows:
        for index, column in enumerate(schema.columns):
            if column.type not in (ColumnType.FLOAT_ARRAY, ColumnType.SPARSE_VECTOR):
                continue
            values = [row[index] for row in rows]
            if column.type is ColumnType.SPARSE_VECTOR:
                present = [value for value in values if value is not None]
                if all(type(value) is SparseVector for value in present):
                    blocks[index] = _csr_entry(values, present)
                continue
            shape = getattr(values[0], "shape", ())
            if len(shape) == 1 and all(
                type(value) is np.ndarray and value.dtype == FLOAT64 and value.shape == shape
                for value in values
            ):
                blocks[index] = np.array(values)
    if not blocks:
        return {"rows": rows}
    inline = [
        [row[index] for row in rows] for index in range(len(schema)) if index not in blocks
    ]
    return {"rows": list(zip(*inline)) if inline else [()] * len(rows), "blocks": blocks}


def _csr_entry(values: list, present: list) -> tuple:
    """A sparse column's block: ``present``, its non-NULL values, concatenated."""
    keys = [value.indices for value in present]
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)), out=indptr[1:])
    indices = np.concatenate(keys + [np.zeros(0, dtype=np.uint16)])
    data = np.concatenate([value.values for value in present] + [np.zeros(0)])
    nulls = tuple(i for i, value in enumerate(values) if value is None)
    return indptr, narrow_indices(indices), data, nulls


def _sparse_column(indptr, indices, values, nulls) -> list:
    column = sparse_rows(indptr, indices, values)
    for position in nulls:  # ascending, so each lands where it was
        column.insert(position, None)
    return column


def decode_rows(schema: Schema, fields: Mapping) -> list[tuple]:
    """The row tuples :func:`encode_rows` was given.

    Array values are views ``block[i]`` of the one decoded buffer and sparse
    values :class:`SparseVector` views of the one CSR entry.  A record
    without blocks is its ``rows`` list as it stands, except that the plain
    dicts older code wrote into a sparse column are packed into one block the
    same way, so every reader sees one kind of sparse value.
    """
    rows = fields["rows"]
    blocks = fields.get("blocks") or {}
    for index, block in blocks.items():
        held = len(block) if isinstance(block, np.ndarray) else len(block[0]) - 1 + len(block[3])
        if held != len(rows):
            raise ExecutionError(
                f"corrupt durable record: column {index} block holds {held} rows "
                f"beside {len(rows)} row tuples"
            )
    inline_sparse = {
        index for index, column in enumerate(schema.columns)
        if column.type is ColumnType.SPARSE_VECTOR and index not in blocks
    }
    if not rows or not (blocks or inline_sparse):
        return rows
    # Column by column, never ``zip(*rows)``: one iterator per row is enough
    # tracked allocations to push a reopen into a full GC pass.
    columns, position = [], 0
    for index in range(len(rows[0]) + len(blocks)):
        if index in blocks:
            block = blocks[index]
            columns.append(list(block) if isinstance(block, np.ndarray) else _sparse_column(*block))
            continue
        column = [row[position] for row in rows]
        position += 1
        if index in inline_sparse:
            column = _pack_legacy_maps(column)
        columns.append(column)
    return list(zip(*columns))


def _pack_legacy_maps(column: list) -> list:
    """A sparse column written inline by older code, its dicts as one CSR block."""
    maps = [value for value in column if value is not None]
    packed = all(type(value) is dict for value in maps) and pack_sparse(maps)
    stored = iter(packed or [coerce_value(value, ColumnType.SPARSE_VECTOR) for value in maps])
    return [None if value is None else next(stored) for value in column]


class TableChunk:
    """A columnar view of a contiguous run of heap rows.

    Chunks are the unit of the batch-at-a-time execution path: instead of one
    :class:`Row` per tuple, consumers get per-column numpy arrays for a block
    of ``len(chunk)`` rows.  Scalar columns (FLOAT / INTEGER / BOOLEAN)
    materialise as typed arrays; everything else (feature vectors, sparse
    maps, text) as object arrays.  Column arrays are built lazily on first
    access so scans that only touch two of five columns never pay for the
    rest.

    ``table_name`` / ``table_version`` identify the exact table state the
    chunk was cut from, which is what example caches key on.
    """

    __slots__ = ("schema", "table_name", "table_version", "start", "_rows", "_columns")

    def __init__(
        self,
        schema: Schema,
        rows: list[tuple],
        *,
        table_name: str = "",
        table_version: int = 0,
        start: int = 0,
    ):
        self.schema = schema
        self.table_name = table_name
        self.table_version = table_version
        #: Ordinal (0-based, physical order) of the chunk's first row.
        self.start = start
        self._rows = rows
        self._columns: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def column(self, name: str) -> np.ndarray:
        """Materialise one column of the chunk as a numpy array (cached)."""
        try:
            return self._columns[name]
        except KeyError:
            pass
        index = self.schema.index_of(name)
        values = [row[index] for row in self._rows]
        dtype = _CHUNK_DTYPES.get(self.schema.columns[index].type)
        if dtype is not None:
            array = np.array(values, dtype=dtype)
        else:
            array = np.empty(len(values), dtype=object)
            array[:] = values
        self._columns[name] = array
        return array

    def row_values(self) -> list[tuple]:
        """The chunk's raw value tuples (physical order)."""
        return self._rows

    def __repr__(self) -> str:
        return (
            f"TableChunk(table={self.table_name!r}, start={self.start}, "
            f"rows={len(self._rows)})"
        )


class Table:
    """An append-only in-memory heap table."""

    def __init__(self, name: str, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0:
            raise SchemaError("page_size must be positive")
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self._pages: list[list[tuple]] = []
        self._num_rows = 0
        # Statistics mimicking a system catalog: number of scans and the last
        # clustering key, useful for tests and the experiment harness.
        self.scan_count = 0
        self.clustered_on: str | None = None
        #: Monotonic mutation counter.  Every operation that changes the
        #: table's contents *or physical order* (insert, truncate, shuffle,
        #: cluster) bumps it, so ``(name, version)`` identifies an exact table
        #: state and downstream example caches can never serve stale data.
        self._version = 0
        #: Append-aware version ledger: one :class:`LedgerEntry` per bump,
        #: newest last, bounded to ``ledger_capacity`` entries.  It records
        #: *how* each version was reached (append vs rewrite) so downstream
        #: layers can distinguish "the world grew" from "the world changed".
        self._ledger: list[LedgerEntry] = []
        self.ledger_capacity = DEFAULT_LEDGER_CAPACITY
        #: Mutation observers: ``callback(table, entry)`` invoked after every
        #: ledger bump.  The durable engine attaches its WAL logger here —
        #: :meth:`_bump` is the single choke-point every mutating operation
        #: goes through, so observing it observes everything.
        self._observers: list[Callable[["Table", LedgerEntry], None]] = []

    @property
    def version(self) -> int:
        return self._version

    def add_observer(self, callback: Callable[["Table", LedgerEntry], None]) -> None:
        """Invoke ``callback(table, entry)`` after every mutation."""
        if callback not in self._observers:
            self._observers.append(callback)

    def remove_observer(self, callback) -> None:
        if callback in self._observers:
            self._observers.remove(callback)

    def _bump(self, kind: str, rows_added: int, op: str) -> None:
        """Advance the version and record how it was reached in the ledger."""
        self._version += 1
        entry = LedgerEntry(
            version=self._version,
            kind=kind,
            rows_added=rows_added,
            rows_after=self._num_rows,
            op=op,
        )
        self._ledger.append(entry)
        if len(self._ledger) > self.ledger_capacity:
            del self._ledger[: len(self._ledger) - self.ledger_capacity]
        for observer in self._observers:
            observer(self, entry)

    def ledger_entries(self, since_version: int = 0) -> list[LedgerEntry]:
        """Retained ledger entries with ``version > since_version``, oldest first."""
        return [entry for entry in self._ledger if entry.version > since_version]

    def classify_delta(self, old_version: int) -> VersionDelta:
        """Classify the mutations between ``old_version`` and the current version.

        Returns an append delta only when the ledger proves every mutation in
        the range appended rows at the tail; a range the retained ledger no
        longer covers (or a nonsensical ``old_version``) classifies as a
        rewrite, which is always safe — consumers fall back to a full rebuild.
        """
        if old_version == self._version:
            return VersionDelta(kind="same", base_rows=self._num_rows)
        if old_version > self._version:
            return VersionDelta(kind="rewrite", op="unknown")
        entries = self.ledger_entries(old_version)
        covered = (
            bool(entries)
            and entries[0].version == old_version + 1
            and entries[-1].version == self._version
        )
        if not covered:
            return VersionDelta(kind="rewrite", op="unknown")
        for entry in entries:
            if entry.kind != "append":
                return VersionDelta(kind="rewrite", op=entry.op)
        rows_added = sum(entry.rows_added for entry in entries)
        return VersionDelta(
            kind="append",
            rows_added=rows_added,
            base_rows=self._num_rows - rows_added,
        )

    # ------------------------------------------------------------------ write
    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row, coercing values to the schema's types."""
        row = self.schema.coerce_row(values)
        if not self._pages or len(self._pages[-1]) >= self.page_size:
            self._pages.append([])
        self._pages[-1].append(row)
        self._num_rows += 1
        self.clustered_on = None
        self._bump("append", 1, "insert")

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Insert many rows with batched page appends; returns the number inserted."""
        coerced = self.schema.coerce_rows(rows)
        if not coerced:
            return 0
        self._extend_pages(coerced)
        self.clustered_on = None
        self._bump("append", len(coerced), "insert_many")
        return len(coerced)

    def _extend_pages(self, rows: list[tuple]) -> None:
        """Append ``rows`` to the heap: fill the tail page, then cut new ones."""
        space = self.page_size - len(self._pages[-1]) if self._pages else 0
        if space:
            self._pages[-1].extend(rows[:space])
        for start in range(space, len(rows), self.page_size):
            self._pages.append(rows[start:start + self.page_size])
        self._num_rows += len(rows)

    def truncate(self) -> None:
        """Remove all rows."""
        self._pages = []
        self._num_rows = 0
        self.clustered_on = None
        self._bump("rewrite", 0, "truncate")

    # ------------------------------------------------------------------- read
    def __len__(self) -> int:
        return self._num_rows

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def scan(self) -> Iterator[Row]:
        """Yield rows in physical (heap) order."""
        self.scan_count += 1
        schema = self.schema
        for page in self._pages:
            for values in page:
                yield Row(schema, values)

    def scan_values(self) -> Iterator[tuple]:
        """Yield raw value tuples in physical order (no Row wrapper)."""
        self.scan_count += 1
        for page in self._pages:
            yield from page

    def scan_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TableChunk]:
        """Yield columnar :class:`TableChunk` blocks in physical order.

        Counts as exactly one scan regardless of how many chunks are yielded.
        """
        self.scan_count += 1
        yield from self.iter_chunks(chunk_size)

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TableChunk]:
        """Chunk iteration without touching the scan statistics.

        Used by the executor's chunked path, which counts one logical scan per
        aggregate pass itself (cached passes never re-read the heap, but still
        count as a scan of the table's data).
        """
        if chunk_size <= 0:
            raise SchemaError("chunk_size must be positive")
        buffer: list[tuple] = []
        start = 0
        for page in self._pages:
            buffer.extend(page)
            while len(buffer) >= chunk_size:
                block, buffer = buffer[:chunk_size], buffer[chunk_size:]
                yield TableChunk(
                    self.schema,
                    block,
                    table_name=self.name,
                    table_version=self._version,
                    start=start,
                )
                start += chunk_size
        if buffer:
            yield TableChunk(
                self.schema,
                buffer,
                table_name=self.name,
                table_version=self._version,
                start=start,
            )

    def row_at(self, index: int) -> Row:
        """Random access by row ordinal (0-based, physical order)."""
        if index < 0:
            index += self._num_rows
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range for {self._num_rows} rows")
        page, offset = divmod(index, self.page_size)
        # Pages are only ever partially filled at the tail, so divmod against
        # the nominal page size is valid except when earlier pages were split;
        # we never split pages, so this holds.
        return Row(self.schema, self._pages[page][offset])

    def tail_values(self, start: int) -> list[tuple]:
        """Raw value tuples of rows ``[start, len)`` in physical order.

        The delta-decode read path: after an append-only version delta,
        incremental consumers fetch exactly the new rows instead of
        re-scanning the heap.  Valid because pages are never split — every
        page except the last is exactly ``page_size`` rows.
        """
        if start <= 0:
            return [values for page in self._pages for values in page]
        if start >= self._num_rows:
            return []
        page_index, offset = divmod(start, self.page_size)
        result = list(self._pages[page_index][offset:])
        for page in self._pages[page_index + 1:]:
            result.extend(page)
        return result

    def column_values(self, column: str) -> list:
        """Materialise a single column in physical order."""
        index = self.schema.index_of(column)
        return [values[index] for page in self._pages for values in page]

    def to_rows(self) -> list[Row]:
        """Materialise all rows (physical order)."""
        schema = self.schema
        return [Row(schema, values) for page in self._pages for values in page]

    # ------------------------------------------------------- physical reorder
    def _replace_all(
        self, value_tuples: list[tuple], *, op: str, clustered_on: str | None
    ) -> None:
        # clustered_on is set before the bump: observers (the WAL) log it.
        self._pages, self._num_rows = [], 0
        self._extend_pages(value_tuples)
        self.clustered_on = clustered_on
        self._bump("rewrite", 0, op)

    def cluster_by(self, column: str, *, descending: bool = False) -> None:
        """Physically re-order the heap by a column (like SQL ``CLUSTER``)."""
        index = self.schema.index_of(column)
        all_rows = [values for page in self._pages for values in page]
        all_rows.sort(key=lambda values: values[index], reverse=descending)
        self._replace_all(all_rows, op="cluster_by", clustered_on=column)

    def cluster_by_key(self, key: Callable[[Row], Any], *, label: str = "<callable>") -> None:
        """Physically re-order the heap using an arbitrary key function."""
        schema = self.schema
        all_rows = [values for page in self._pages for values in page]
        all_rows.sort(key=lambda values: key(Row(schema, values)))
        self._replace_all(all_rows, op="cluster_by_key", clustered_on=label)

    def shuffle(self, rng: np.random.Generator | None = None, seed: int | None = None) -> None:
        """Physically shuffle the heap (``ORDER BY RANDOM()`` materialised).

        This deliberately touches every row: the wall-clock cost of this call
        is exactly the "shuffle overhead" the paper's ShuffleOnce /
        ShuffleAlways comparison is about.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        all_rows = [values for page in self._pages for values in page]
        permutation = rng.permutation(len(all_rows))
        self._replace_all([all_rows[i] for i in permutation], op="shuffle", clustered_on=None)

    def copy(self, name: str | None = None) -> "Table":
        """Deep-enough copy of the table (rows are immutable tuples).

        Observers are deliberately not copied: a clone is a new, unlogged
        object until someone attaches to it.
        """
        clone = Table(name or self.name, self.schema, page_size=self.page_size)
        clone._pages = [list(page) for page in self._pages]
        clone._num_rows = self._num_rows
        clone.clustered_on = self.clustered_on
        clone._version = self._version
        clone._ledger = list(self._ledger)
        clone.ledger_capacity = self.ledger_capacity
        return clone

    def __getstate__(self) -> dict:
        # Observers are engine-side callbacks (often bound methods of the
        # owning Database); a pickled table must never drag the engine along.
        state = dict(self.__dict__)
        state["_observers"] = []
        return state

    # ------------------------------------------------------------- durability
    def to_image(self) -> dict:
        """A picklable snapshot of the table's complete durable state.

        Carries the version counter and the full retained ledger, so a table
        restored from an image classifies version deltas exactly like the
        original — ``partial_fit`` watermarks survive a crash.  The rows are
        in :func:`encode_rows` form: ``"rows"`` and, when an array column
        stacked, ``"blocks"``.
        """
        return {
            "name": self.name,
            "schema": self.schema,
            "page_size": self.page_size,
            **encode_rows(self.schema, self.tail_values(0)),
            "version": self._version,
            "ledger": list(self._ledger),
            "ledger_capacity": self.ledger_capacity,
            "clustered_on": self.clustered_on,
        }

    @classmethod
    def from_image(cls, image: dict) -> "Table":
        """Rebuild a table from :meth:`to_image` output."""
        table = cls(image["name"], image["schema"], page_size=image["page_size"])
        table._extend_pages(decode_rows(image["schema"], image))
        table._version = image["version"]
        table._ledger = list(image["ledger"])
        table.ledger_capacity = image.get("ledger_capacity", DEFAULT_LEDGER_CAPACITY)
        table.clustered_on = image.get("clustered_on")
        return table

    def apply_logged_mutation(
        self, entry: LedgerEntry, rows: list[tuple], clustered_on: str | None
    ) -> None:
        """Re-apply one WAL-logged mutation during recovery.

        Bypasses :meth:`_bump` entirely: the original :class:`LedgerEntry` is
        appended verbatim and the version counter is set to the entry's, so
        the reconstructed ledger is indistinguishable from the pre-crash one
        and observers (not yet attached during recovery anyway) never re-log
        a replayed record.  ``rows`` are the appended tail for ``append``
        entries and the full post-mutation row image for rewrites; a record
        whose row count contradicts its entry is refused, not applied.
        """
        appended = entry.kind == "append"
        expected = entry.rows_added if appended else entry.rows_after
        if len(rows) != expected or (appended and self._num_rows + expected != entry.rows_after):
            raise ExecutionError(
                f"corrupt durable record: {entry.op} to version {entry.version} of "
                f"{self.name!r} carries {len(rows)} rows but its ledger entry says "
                f"+{entry.rows_added} -> {entry.rows_after}"
            )
        if not appended:
            self._pages, self._num_rows = [], 0
        self._extend_pages(rows)
        self.clustered_on = clustered_on
        self._version = entry.version
        self._ledger.append(entry)
        if len(self._ledger) > self.ledger_capacity:
            del self._ledger[: len(self._ledger) - self.ledger_capacity]

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self._num_rows}, "
            f"pages={self.num_pages}, columns={list(self.schema.column_names)})"
        )
