"""Column types, schemas and row representation for the RDBMS substrate.

The substrate supports the small set of types the Bismarck workloads need:
integers, floats, text, booleans, dense float arrays (feature vectors) and
sparse maps (feature index -> value).  Schemas validate and coerce inserted
values so downstream code can rely on consistent Python/numpy types.
"""

from __future__ import annotations

import collections.abc
import enum
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError, TypeMismatchError, UnknownColumnError

#: The dtype of a canonical ``FLOAT_ARRAY`` value.  Compare with ``==``: an
#: unpickled array carries an equal dtype that is not this object.
FLOAT64 = np.dtype(np.float64)

#: A CSR block stores its keys in the narrowest of these that holds them.
_INDEX_DTYPES = tuple(np.iinfo(dtype) for dtype in (np.uint16, np.int32, np.int64))


class SparseVector(collections.abc.Mapping):
    """The canonical ``SPARSE_VECTOR`` value: an immutable ``{index: value}`` map.

    ``indices`` and ``values`` are read-only views into one CSR block that a
    whole batch of rows shares (:func:`sparse_rows`), keys and values in
    insertion order.  As a mapping it yields Python ``int`` / ``float``,
    equals the dict with the same items and, like a dict, is unhashable;
    ``values`` is the array, not the dict method.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray, values: np.ndarray):
        self.indices = indices
        self.values = values

    def _dict(self) -> dict:
        return dict(zip(self.indices.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices.tolist())

    def __getitem__(self, key):
        return self._dict()[key]

    def items(self):
        return self._dict().items()

    def __reduce__(self):
        return (_frozen_sparse_vector, (self.indices, self.values))

    def __repr__(self) -> str:
        return f"SparseVector({self._dict()!r})"


def _frozen_sparse_vector(indices: np.ndarray, values: np.ndarray) -> SparseVector:
    indices.flags.writeable = values.flags.writeable = False
    return SparseVector(indices, values)


def sparse_rows(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> list:
    """One :class:`SparseVector` per CSR row, each a read-only view of the block."""
    indices.flags.writeable = values.flags.writeable = False
    bounds = indptr.tolist()
    return [SparseVector(indices[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def narrow_indices(keys: np.ndarray) -> np.ndarray:
    """``keys`` in the narrowest of uint16 / int32 / int64 that holds its extremes."""
    low, high = (int(keys.min()), int(keys.max())) if keys.size else (0, 0)
    dtype = next(info.dtype for info in _INDEX_DTYPES if info.min <= low and high <= info.max)
    return keys.astype(dtype, copy=False)


def pack_sparse(maps: list) -> "list[SparseVector] | None":
    """Dicts as views of one CSR block: ``[{int(k): float(v)} for each map]``.

    One ``np.fromiter`` per array.  ``None`` when that could differ from the
    per-map conversion or raise another exception: a key that is not an
    ``int`` (``1.5`` and ``1`` would both become ``1``), a value numpy cannot
    convert, or a ``None`` value (numpy reads it as NaN where ``float``
    refuses it).
    """
    if not set(map(type, chain.from_iterable(maps))) <= {int}:
        return None
    indptr = np.zeros(len(maps) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, maps), dtype=np.intp, count=len(maps)), out=indptr[1:])
    total = int(indptr[-1])
    try:
        keys = np.fromiter(chain.from_iterable(maps), dtype=np.int64, count=total)
        values = np.fromiter(
            chain.from_iterable(map(dict.values, maps)), dtype=np.float64, count=total
        )
    except (ValueError, TypeError, OverflowError):
        return None
    if np.isnan(values).any() and any(
        value is None for value in chain.from_iterable(map(dict.values, maps))
    ):
        return None
    return sparse_rows(indptr, narrow_indices(keys), values)


class ColumnType(enum.Enum):
    """Logical column types supported by the substrate."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    FLOAT_ARRAY = "float_array"
    SPARSE_VECTOR = "sparse_vector"
    ANY = "any"

    @classmethod
    def from_string(cls, name: str) -> "ColumnType":
        """Resolve a SQL-ish type name (e.g. ``INT``, ``FLOAT8[]``) to a type."""
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "smallint": cls.INTEGER,
            "serial": cls.INTEGER,
            "float": cls.FLOAT,
            "float8": cls.FLOAT,
            "real": cls.FLOAT,
            "double": cls.FLOAT,
            "double precision": cls.FLOAT,
            "numeric": cls.FLOAT,
            "text": cls.TEXT,
            "varchar": cls.TEXT,
            "char": cls.TEXT,
            "string": cls.TEXT,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
            "float[]": cls.FLOAT_ARRAY,
            "float8[]": cls.FLOAT_ARRAY,
            "real[]": cls.FLOAT_ARRAY,
            "double[]": cls.FLOAT_ARRAY,
            "array": cls.FLOAT_ARRAY,
            "float_array": cls.FLOAT_ARRAY,
            "sparse": cls.SPARSE_VECTOR,
            "sparse_vector": cls.SPARSE_VECTOR,
            "svec": cls.SPARSE_VECTOR,
            "any": cls.ANY,
        }
        if normalized in aliases:
            return aliases[normalized]
        raise SchemaError(f"unknown column type: {name!r}")


def coerce_value(value: Any, column_type: ColumnType, *, nullable: bool = True) -> Any:
    """Coerce ``value`` into the canonical Python representation of a type.

    Raises :class:`TypeMismatchError` if coercion is impossible and
    :class:`SchemaError` if a NULL is inserted into a non-nullable column.
    """
    if value is None:
        if not nullable:
            raise SchemaError("NULL value in non-nullable column")
        return None

    if column_type is ColumnType.ANY:
        return value

    try:
        if column_type is ColumnType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER")
        if column_type is ColumnType.FLOAT:
            if isinstance(value, (int, float, np.integer, np.floating)):
                return float(value)
            if isinstance(value, str):
                return float(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT")
        if column_type is ColumnType.TEXT:
            if isinstance(value, str):
                return value
            return str(value)
        if column_type is ColumnType.BOOLEAN:
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if isinstance(value, (int, np.integer)) and value in (0, 1):
                return bool(value)
            if isinstance(value, str) and value.lower() in ("true", "false", "t", "f"):
                return value.lower() in ("true", "t")
            raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")
        if column_type is ColumnType.FLOAT_ARRAY:
            if isinstance(value, np.ndarray):
                return np.asarray(value, dtype=np.float64)
            if isinstance(value, (list, tuple)):
                return np.asarray(value, dtype=np.float64)
            raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT_ARRAY")
        if column_type is ColumnType.SPARSE_VECTOR:
            if type(value) is SparseVector:
                return value
            if isinstance(value, Mapping):
                pairs = value.items()
            elif isinstance(value, (list, tuple)) and all(
                isinstance(item, (list, tuple)) and len(item) == 2 for item in value
            ):
                pairs = value
            else:
                raise TypeMismatchError(f"cannot coerce {value!r} to SPARSE_VECTOR")
            packed = pack_sparse([{int(k): float(v) for k, v in pairs}])
            if packed is None:
                raise TypeMismatchError(f"sparse index of {value!r} exceeds int64")
            return packed[0]
    except (ValueError, TypeError, OverflowError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {column_type.value}: {exc}"
        ) from exc

    raise TypeMismatchError(f"unsupported column type {column_type!r}")


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType
    nullable: bool = True

    def coerce(self, value: Any) -> Any:
        """Coerce a raw value into this column's canonical representation."""
        return coerce_value(value, self.type, nullable=self.nullable)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns describing a table."""

    columns: tuple[Column, ...]
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        object.__setattr__(
            self, "_index", {column.name: i for i, column in enumerate(self.columns)}
        )

    @classmethod
    def of(cls, *specs: tuple[str, ColumnType] | Column) -> "Schema":
        """Build a schema from ``(name, type)`` pairs or :class:`Column` objects."""
        columns = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            else:
                name, column_type = spec
                if isinstance(column_type, str):
                    column_type = ColumnType.from_string(column_type)
                columns.append(Column(name, column_type))
        return cls(tuple(columns))

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise UnknownColumnError(name) from None

    def index_of(self, name: str) -> int:
        """Return the positional index of a column."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(name) from None

    def coerce_row(self, values: Sequence[Any] | Mapping[str, Any]) -> tuple:
        """Coerce a row (sequence or mapping) into a canonical value tuple."""
        if isinstance(values, Mapping):
            missing = [c.name for c in self.columns if c.name not in values and not c.nullable]
            if missing:
                raise SchemaError(f"missing values for non-nullable columns: {missing}")
            ordered = [values.get(column.name) for column in self.columns]
        else:
            ordered = list(values)
            if len(ordered) != len(self.columns):
                raise SchemaError(
                    f"row has {len(ordered)} values but schema has {len(self.columns)} columns"
                )
        return tuple(
            column.coerce(value) for column, value in zip(self.columns, ordered)
        )

    def coerce_rows(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[tuple]:
        """Coerce a batch: ``[coerce_row(row) for row in rows]``, checked by column.

        A column whose every value already has its canonical exact type passes
        through untouched (as ``coerce_value`` would leave it).  A sparse
        column of plain dicts is packed into one CSR block, each row holding
        a read-only :class:`SparseVector` view of it, when :func:`pack_sparse`
        can promise the per-map ``{int: float}`` conversion.  Any other batch
        — a value to convert, a NULL, a mapping row, a wrong arity — takes the
        per-row path, so stored values and raised exceptions are the same.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        coerced = self._coerce_canonical(rows)
        return [self.coerce_row(row) for row in rows] if coerced is None else coerced

    def _coerce_canonical(self, rows: list) -> "list[tuple] | None":
        """``coerce_rows`` for an all-canonical batch; ``None`` when it is not one."""
        row_types = set(map(type, rows))
        if not row_types <= {tuple, list} or set(map(len, rows)) != {len(self.columns)}:
            return None

        def values(index: int):  # lazily: a column is never materialised just to be checked
            return map(itemgetter(index), rows)

        fresh: dict[int, list] = {}
        for index, column in enumerate(self.columns):
            kinds = set(map(type, values(index)))
            if column.type is ColumnType.SPARSE_VECTOR and kinds == {dict}:
                fresh[index] = pack_sparse(list(values(index)))
                if fresh[index] is None:
                    return None
                continue
            if column.type is ColumnType.ANY:
                canonical = column.nullable or type(None) not in kinds
            else:
                canonical = kinds == {_CANONICAL_TYPES[column.type]}
            if canonical and column.type is ColumnType.FLOAT_ARRAY:
                canonical = all(value.dtype == FLOAT64 for value in values(index))
            if not canonical:
                return None
        if not fresh and row_types == {tuple}:
            return rows
        columns = (fresh.get(index) or values(index) for index in range(len(self.columns)))
        return list(zip(*columns))


#: The exact type of a value ``coerce_value`` leaves as it is, per column type.
_CANONICAL_TYPES = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool,
    ColumnType.FLOAT_ARRAY: np.ndarray,
    ColumnType.SPARSE_VECTOR: SparseVector,
}


class Row:
    """A lightweight read-only view of one table row.

    Rows support both positional and by-name access, which keeps the executor
    fast (tuples underneath) while letting UDAs and expressions address columns
    by name.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: tuple):
        self._schema = schema
        self._values = values

    @property
    def values(self) -> tuple:
        return self._values

    def __getitem__(self, key: str | int) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.index_of(key)]

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._schema:
            return self[key]
        return default

    def as_dict(self) -> dict:
        return dict(zip(self._schema.column_names, self._values))

    def __iter__(self) -> Iterable[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.column_names, self._values)
        )
        return f"Row({pairs})"
