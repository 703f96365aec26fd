"""Tests for column types, schemas and rows."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Schema, SchemaError, TypeMismatchError, UnknownColumnError
from repro.db.types import Column, Row, SparseVector, coerce_value


class TestColumnType:
    def test_from_string_integer_aliases(self):
        for alias in ("int", "INTEGER", "BigInt", "serial"):
            assert ColumnType.from_string(alias) is ColumnType.INTEGER

    def test_from_string_float_aliases(self):
        for alias in ("float", "FLOAT8", "double precision", "real", "numeric"):
            assert ColumnType.from_string(alias) is ColumnType.FLOAT

    def test_from_string_array_aliases(self):
        for alias in ("float8[]", "FLOAT[]", "real[]", "double[]"):
            assert ColumnType.from_string(alias) is ColumnType.FLOAT_ARRAY

    def test_from_string_sparse(self):
        assert ColumnType.from_string("sparse_vector") is ColumnType.SPARSE_VECTOR
        assert ColumnType.from_string("svec") is ColumnType.SPARSE_VECTOR

    def test_from_string_unknown_raises(self):
        with pytest.raises(SchemaError):
            ColumnType.from_string("geometry")


class TestCoercion:
    def test_integer_from_float_whole(self):
        assert coerce_value(3.0, ColumnType.INTEGER) == 3

    def test_integer_from_string(self):
        assert coerce_value("42", ColumnType.INTEGER) == 42

    def test_integer_from_fractional_float_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(3.5, ColumnType.INTEGER)

    def test_float_coercion(self):
        assert coerce_value(2, ColumnType.FLOAT) == pytest.approx(2.0)
        assert coerce_value("2.5", ColumnType.FLOAT) == pytest.approx(2.5)

    def test_boolean_coercion(self):
        assert coerce_value("true", ColumnType.BOOLEAN) is True
        assert coerce_value(0, ColumnType.BOOLEAN) is False
        with pytest.raises(TypeMismatchError):
            coerce_value(7, ColumnType.BOOLEAN)

    def test_float_array_from_list(self):
        array = coerce_value([1, 2, 3], ColumnType.FLOAT_ARRAY)
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.float64
        np.testing.assert_allclose(array, [1.0, 2.0, 3.0])

    def test_sparse_vector_from_mapping(self):
        value = coerce_value({3: 1.5, "7": 2}, ColumnType.SPARSE_VECTOR)
        assert value == {3: 1.5, 7: 2.0}

    def test_sparse_vector_from_pairs(self):
        value = coerce_value([(1, 0.5), (4, 2.0)], ColumnType.SPARSE_VECTOR)
        assert value == {1: 0.5, 4: 2.0}

    def test_null_nullable(self):
        assert coerce_value(None, ColumnType.FLOAT) is None

    def test_null_not_nullable_raises(self):
        with pytest.raises(SchemaError):
            coerce_value(None, ColumnType.FLOAT, nullable=False)

    def test_text_coerces_anything(self):
        assert coerce_value(12, ColumnType.TEXT) == "12"

    def test_any_passthrough(self):
        sentinel = object()
        assert coerce_value(sentinel, ColumnType.ANY) is sentinel


class TestSchema:
    def test_of_builds_columns(self, simple_schema):
        assert simple_schema.column_names == ("id", "value", "name")
        assert simple_schema.column("value").type is ColumnType.FLOAT

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", ColumnType.INTEGER), ("a", ColumnType.FLOAT))

    def test_index_of(self, simple_schema):
        assert simple_schema.index_of("name") == 2
        with pytest.raises(UnknownColumnError):
            simple_schema.index_of("missing")

    def test_contains(self, simple_schema):
        assert "id" in simple_schema
        assert "missing" not in simple_schema

    def test_coerce_row_from_sequence(self, simple_schema):
        row = simple_schema.coerce_row((1, "2.5", 10))
        assert row == (1, 2.5, "10")

    def test_coerce_row_from_mapping(self, simple_schema):
        row = simple_schema.coerce_row({"id": 5, "value": 1.5, "name": "x"})
        assert row == (5, 1.5, "x")

    def test_coerce_row_wrong_arity(self, simple_schema):
        with pytest.raises(SchemaError):
            simple_schema.coerce_row((1, 2.0))

    def test_schema_of_accepts_string_types(self):
        schema = Schema.of(("vec", "float8[]"), ("label", "float"))
        assert schema.column("vec").type is ColumnType.FLOAT_ARRAY


class TestRow:
    def test_access_by_name_and_index(self, simple_schema):
        row = Row(simple_schema, (1, 2.0, "x"))
        assert row["id"] == 1
        assert row[1] == 2.0
        assert row.get("name") == "x"
        assert row.get("missing", "default") == "default"

    def test_as_dict_and_iteration(self, simple_schema):
        row = Row(simple_schema, (1, 2.0, "x"))
        assert row.as_dict() == {"id": 1, "value": 2.0, "name": "x"}
        assert list(row) == [1, 2.0, "x"]
        assert len(row) == 3

    def test_equality_with_tuple_and_row(self, simple_schema):
        row = Row(simple_schema, (1, 2.0, "x"))
        assert row == (1, 2.0, "x")
        assert row == Row(simple_schema, (1, 2.0, "x"))
        assert row != (2, 2.0, "x")


# ------------------------------------------------- batch coercion, by column
BATCH_SCHEMA = Schema.of(
    Column("i", ColumnType.INTEGER, nullable=False),
    ("f", ColumnType.FLOAT),
    ("t", ColumnType.TEXT),
    ("b", ColumnType.BOOLEAN),
    ("a", ColumnType.FLOAT_ARRAY),
    ("s", ColumnType.SPARSE_VECTOR),
    Column("x", ColumnType.ANY, nullable=False),
)

_floats = st.floats(allow_nan=False, width=64)
_array = st.lists(_floats, max_size=3).map(lambda v: np.array(v, dtype=np.float64))
_sparse = st.dictionaries(st.integers(0, 50), _floats, max_size=3)
_stored = _sparse.map(lambda value: coerce_value(value, ColumnType.SPARSE_VECTOR))
#: Per column: values already canonical, and values ``coerce_value`` converts or refuses.
#: A sparse column takes plain dicts (packed into one block) or stored ``SparseVector``s.
CANONICAL = [st.integers(), _floats, st.text(max_size=3), st.booleans(), _array,
             _sparse | _stored, st.integers() | _array | st.text(max_size=2)]
OTHER = [
    st.booleans() | st.just("7") | st.just(2.0) | st.just(2.5) | st.none() | st.just(np.int64(3)),
    st.integers(-5, 5) | st.just("1.5") | st.just("x") | st.none() | st.just(np.float64(0.5)),
    st.integers() | st.none() | st.just(1.5),
    st.sampled_from([0, 1, 2, "t", "maybe", None, np.bool_(True)]),
    st.lists(_floats, max_size=3) | st.none() | st.just("v")
    | st.lists(_floats, max_size=3).map(lambda v: np.array(v, dtype=np.float32))
    | st.just(np.zeros((2, 2))),
    st.just({"1": 2}) | st.just({"k": 1.0}) | st.just([(1, 2.0)]) | st.just([1, 2]) | st.none()
    | st.just({1: "x"}) | st.just({1: 0.5, 1.5: 2.0}) | st.just({True: 1.0}) | st.just({1: None})
    | st.just({2**63: 1.0}),
    st.none(),
]


@st.composite
def batches(draw):
    """A batch of rows: mostly canonical, with stray values, row kinds and arities."""
    strict = draw(st.booleans())
    columns = [
        canonical if strict or draw(st.integers(0, 5)) else canonical | other
        for canonical, other in zip(CANONICAL, OTHER)
    ]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        values = [draw(column) for column in columns]
        shape = "tuple" if strict else draw(
            st.sampled_from(["tuple", "tuple", "list", "mapping", "partial_mapping", "short", "long"])
        )
        if shape == "tuple":
            rows.append(tuple(values))
        elif shape == "list":
            rows.append(values)
        elif shape == "mapping":
            rows.append(dict(zip(BATCH_SCHEMA.column_names, values)))
        elif shape == "partial_mapping":
            rows.append(dict(list(zip(BATCH_SCHEMA.column_names, values))[draw(st.integers(0, 2)):]))
        else:
            rows.append(tuple(values[:-1] if shape == "short" else values + [0]))
    return rows


def _outcome(function):
    try:
        return function()
    except Exception as error:  # the class is the contract under test
        return type(error)


def _assert_identical(batch, reference):
    """Same values and exact types; arrays that pass untouched are the same objects."""
    assert type(batch) is type(reference)
    if isinstance(reference, np.ndarray):
        assert batch.dtype == reference.dtype and np.array_equal(batch, reference)
    elif isinstance(reference, (list, tuple)):
        assert len(batch) == len(reference)
        for left, right in zip(batch, reference):
            _assert_identical(left, right)
    elif isinstance(reference, SparseVector):
        assert list(batch) == list(reference) and len(batch) == len(reference)
        assert list(batch.items()) == list(reference.items())
        assert [(type(k), type(v)) for k, v in batch.items()] == \
            [(type(k), type(v)) for k, v in reference.items()]
        assert batch.indices.dtype == reference.indices.dtype
    else:
        assert batch == reference


class TestCoerceRows:
    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_equals_per_row_coercion_or_raises_the_same_class(self, rows):
        reference = _outcome(lambda: [BATCH_SCHEMA.coerce_row(row) for row in rows])
        batch = _outcome(lambda: BATCH_SCHEMA.coerce_rows(rows))
        if isinstance(reference, type):
            assert batch is reference
            return
        _assert_identical(batch, reference)
        for coerced, given_row in zip(batch, rows):
            assert type(coerced) is tuple
            values = list(given_row.get(name) for name in BATCH_SCHEMA.column_names) \
                if isinstance(given_row, dict) else given_row
            if type(values[4]) is np.ndarray and values[4].dtype == np.float64:
                assert coerced[4] is values[4]          # no copy, as np.asarray
            if type(values[5]) is SparseVector:
                assert coerced[5] is values[5]          # stored values pass through
            elif coerced[5] is not None:                # a dict: {int(k): float(v)}, read-only
                assert coerced[5] == {int(k): float(v) for k, v in dict(values[5]).items()}
                assert not coerced[5].values.flags.writeable

    def test_accepts_a_generator_and_an_empty_batch(self):
        schema = Schema.of(("x", ColumnType.INTEGER), ("y", ColumnType.FLOAT))
        assert schema.coerce_rows((i, float(i)) for i in range(3)) == [(0, 0.0), (1, 1.0), (2, 2.0)]
        assert schema.coerce_rows([]) == []
        assert schema.coerce_rows(iter(())) == []

    def test_a_batch_of_sparse_maps_is_one_block(self):
        schema = Schema.of(("x", ColumnType.INTEGER), ("s", ColumnType.SPARSE_VECTOR))
        rows = schema.coerce_rows([(i, {i: 0.5, 3 * i + 1: -1.0}) for i in range(5)])
        assert len({id(row[1].indices.base) for row in rows}) == 1
        assert len({id(row[1].values.base) for row in rows}) == 1
        assert rows[2][1] == {2: 0.5, 7: -1.0}
        # Keys the per-map conversion would merge or refuse take that path instead.
        (_, merged), = schema.coerce_rows([(0, {1: 0.5, 1.5: 2.0})])
        assert merged == {1: 2.0} and list(merged) == [1] and len(merged) == 1
        assert schema.coerce_rows([(0, {True: 1.0, "2": 3})]) == [(0, {1: 1.0, 2: 3.0})]
        with pytest.raises(TypeMismatchError):
            schema.coerce_rows([(0, {1: None})])
        with pytest.raises(TypeMismatchError):
            schema.coerce_rows([(0, {2**63: 1.0})])

    @pytest.mark.parametrize("keys, dtype", [
        ([], np.uint16), ([0, 65_535], np.uint16), ([-1, 3], np.int32), ([65_536], np.int32),
        ([-2**31, 2**31 - 1], np.int32), ([2**31], np.int64), ([-2**31 - 1, 0], np.int64),
    ])
    def test_keys_take_the_narrowest_index_dtype(self, keys, dtype):
        schema = Schema.of(("s", ColumnType.SPARSE_VECTOR))
        (value,), = schema.coerce_rows([({key: 1.0 for key in keys},)])
        assert value.indices.dtype == dtype and list(value) == keys

    def test_canonical_tuples_pass_through_as_the_same_objects(self):
        schema = Schema.of(("x", ColumnType.INTEGER), ("v", ColumnType.FLOAT_ARRAY))
        rows = [(i, np.full(2, float(i))) for i in range(4)]
        assert all(a is b for a, b in zip(schema.coerce_rows(rows), rows))
        # bool is not int, numpy scalars are not Python scalars: those convert.
        assert schema.coerce_rows([(True, rows[0][1])]) == [(1, rows[0][1])]
        assert type(schema.coerce_rows([(np.int64(2), rows[0][1])])[0][0]) is int


# --------------------------------------------- a stored sparse value is a dict
_keys = st.integers(-2**40, 2**40) | st.integers(0, 2**16 + 5) | st.integers(-3, 3)


class TestSparseVectorIsADict:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_keys, _floats, max_size=6), _keys)
    def test_behaves_as_the_dict_it_was_made_from(self, expected, probe):
        value = coerce_value(expected, ColumnType.SPARSE_VECTOR)
        assert type(value) is SparseVector
        assert value == expected and expected == value and not value != expected
        assert value != {**expected, probe: 0.5} or expected.get(probe) == 0.5
        assert len(value) == len(expected) and bool(value) == bool(expected)
        assert list(value) == list(expected)  # insertion order
        assert list(value.items()) == list(expected.items())
        assert [(type(k), type(v)) for k, v in value.items()] == [(int, float)] * len(expected)
        for key in expected:
            assert value[key] == expected[key] and value.get(key) == expected[key]
            assert key in value
        assert (probe in value) == (probe in expected)
        assert value.get(probe, "absent") == expected.get(probe, "absent")
        if probe not in expected:
            with pytest.raises(KeyError):
                value[probe]
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is SparseVector and copy == expected
        assert copy.indices.dtype == value.indices.dtype
        for stored in (value, copy):
            assert not stored.indices.flags.writeable and not stored.values.flags.writeable
            with pytest.raises(TypeError):
                stored[probe] = 1.0
            with pytest.raises(TypeError):
                hash(stored)
            with pytest.raises(ValueError):
                stored.values[:1] = 2.0
