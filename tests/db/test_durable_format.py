"""The durable record shape: array and sparse columns as blocks, everything else inline.

Pinned here: the encode/decode pair round-trips every value shape a table can
hold; a directory written *before* array columns became blocks and sparse maps
became CSR entries (``fixtures/parent_format``) still opens, replays and keeps
growing; a record whose row counts disagree is refused instead of building a
table whose length contradicts its ledger; and the bytes on disk stay within
a fixed factor of the raw data.
"""

from __future__ import annotations

import pickle
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, ExecutionError, SparseVector, TrainingState
from repro.db.table import LedgerEntry, Table, decode_rows, encode_rows
from repro.db.types import ColumnType, Schema, coerce_value
from repro.db.wal import RECORD_HEADER, SEGMENT_HEADER_SIZE, read_wal, segment_files

FIXTURE = Path(__file__).parent / "fixtures" / "parent_format"


# ------------------------------------------------------------------ helpers
def assert_same_value(left, right) -> None:
    """Equal in value *and* in type: Python scalars stay Python scalars."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert np.array_equal(left, right, equal_nan=True)
    elif isinstance(left, SparseVector):
        assert not left.indices.flags.writeable and not left.values.flags.writeable
        assert_same_value(left.indices.astype(np.int64), right.indices.astype(np.int64))
        assert_same_value(left.values, right.values)
    elif isinstance(left, dict):
        assert list(left) == list(right)  # key order too
        for key in left:
            assert_same_value(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_same_value(a, b)
    else:
        assert left == right or (left != left and right != right)  # NaN is itself


def assert_same_rows(got: list[tuple], expected: list[tuple]) -> None:
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert_same_value(left, right)


def assert_same_table(recovered: Table, original: Table) -> None:
    assert recovered.schema == original.schema
    assert recovered.version == original.version
    assert recovered.clustered_on == original.clustered_on
    # Byte-equal entry by entry, not merely ==: the ledger is what partial_fit
    # watermarks read.  (One dump of the list would also compare which entries
    # happen to share a string object.)
    assert [pickle.dumps(entry) for entry in recovered.ledger_entries()] == [
        pickle.dumps(entry) for entry in original.ledger_entries()
    ]
    assert len(recovered) == len(original)
    assert_same_rows(recovered.tail_values(0), original.tail_values(0))


def assert_same_catalog(recovered: Database, original: Database) -> None:
    assert recovered.table_names() == original.table_names()
    for key, table in original.tables.items():
        assert_same_table(recovered.tables[key], table)


def through_pickle(fields: dict) -> dict:
    return pickle.loads(pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------- the encode / decode pair
WIDE = Schema.of(
    ("id", "int"), ("a", "float[]"), ("s", "sparse"), ("b", "float[]"),
    ("t", "text"), ("x", "any"), ("y", "float"),
)

finite = st.floats(allow_nan=True, allow_infinity=True, width=64)


def array_column(n: int):
    """``n`` values for one FLOAT_ARRAY column, and whether they form a block."""
    def uniform(d):
        return st.lists(
            st.lists(finite, min_size=d, max_size=d).map(lambda v: np.array(v, dtype=np.float64)),
            min_size=n, max_size=n,
        )

    def vectors(dtype=np.float64):
        width = np.dtype(dtype).itemsize * 8
        return st.lists(st.floats(width=width), max_size=4).map(lambda v: np.array(v, dtype=dtype))

    blocked = st.integers(0, 5).flatmap(uniform).map(lambda values: (values, n > 0))
    inline = st.one_of(
        st.lists(vectors(), min_size=n, max_size=n),                       # ragged
        st.lists(st.none() | vectors(), min_size=n, max_size=n),           # NULLs
        st.lists(st.lists(finite, max_size=3), min_size=n, max_size=n),    # lists
        st.lists(vectors(np.float32), min_size=n, max_size=n),             # not float64
        st.lists(st.just(np.zeros((2, 2))), min_size=n, max_size=n),       # not 1-D
    ).map(lambda values: (values, None))
    return st.one_of(blocked, inline)


@st.composite
def wide_rows(draw):
    n = draw(st.integers(0, 7))
    a, a_blocked = draw(array_column(n))
    b, b_blocked = draw(array_column(n))
    keys = st.integers(0, 99) | st.integers(-2**40, 2**40)
    sparse = st.none() | st.dictionaries(keys, st.floats(allow_nan=False), max_size=4).map(
        lambda value: coerce_value(value, ColumnType.SPARSE_VECTOR)
    )
    anything = st.none() | st.integers() | st.text(max_size=3) | st.lists(st.integers(), max_size=2)
    rows = [
        (i, a[i], draw(sparse), b[i], draw(st.text(max_size=5)), draw(anything), draw(finite))
        for i in range(n)
    ]
    return rows, {1: a_blocked, 2: n > 0, 3: b_blocked}


def _is_block_column(values: list) -> bool:
    return bool(values) and all(
        type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1
        and v.shape == values[0].shape
        for v in values
    )


class TestEncodeDecode:
    @settings(max_examples=150, deadline=None)
    @given(wide_rows())
    def test_round_trip_is_value_for_value_and_type_for_type(self, drawn):
        rows, blocked = drawn
        fields = encode_rows(WIDE, rows)
        expected_blocks = {
            index for index, hint in blocked.items()
            if (hint if hint is not None else _is_block_column([row[index] for row in rows]))
        }
        assert set(fields.get("blocks", {})) == expected_blocks
        if not expected_blocks:
            assert fields == {"rows": rows} and fields["rows"] is rows
        for index, block in fields.get("blocks", {}).items():
            if index == 2:
                indptr, indices, data, nulls = block
                values = [row[2] for row in rows]
                assert nulls == tuple(i for i, value in enumerate(values) if value is None)
                assert len(indptr) == len(rows) - len(nulls) + 1 and len(indices) == len(data)
                continue
            assert block.dtype == np.float64 and block.shape == (len(rows), len(rows[0][index]))
        assert all(len(row) == len(WIDE) - len(expected_blocks) for row in fields["rows"])
        assert_same_rows(decode_rows(WIDE, through_pickle(fields)), rows)

    def test_recovered_arrays_are_views_of_one_buffer(self):
        rows = WIDE.coerce_rows(
            [(i, np.full(3, float(i)), {i: 1.0}, np.arange(2.0), "", None, 0.5) for i in range(5)]
        )
        decoded = decode_rows(WIDE, through_pickle(encode_rows(WIDE, rows)))
        assert len({id(row[1].base) for row in decoded}) == 1
        assert len({id(row[3].base) for row in decoded}) == 1
        assert all(row[1].flags.writeable for row in decoded)
        assert len({id(row[2].indices.base) for row in decoded}) == 1
        assert len({id(row[2].values.base) for row in decoded}) == 1
        assert not any(row[2].values.flags.writeable for row in decoded)
        # ... and stack again: a table recovered from blocks snapshots as blocks.
        assert set(encode_rows(WIDE, decoded + rows)["blocks"]) == {1, 2, 3}
        assert all(a[1] is b[1] for a, b in zip(WIDE.coerce_rows(decoded), decoded))
        assert all(a[2] is b[2] for a, b in zip(WIDE.coerce_rows(decoded), decoded))

    def test_a_schema_of_array_columns_only(self):
        schema = Schema.of(("a", "float[]"), ("b", "float[]"))
        rows = [(np.full(2, float(i)), np.full(0, 1.0)) for i in range(4)]
        fields = encode_rows(schema, rows)
        assert fields["rows"] == [()] * 4 and set(fields["blocks"]) == {0, 1}
        assert_same_rows(decode_rows(schema, through_pickle(fields)), rows)

    def test_no_array_or_sparse_column_means_no_new_key(self):
        schema = Schema.of(("id", "int"), ("t", "text"), ("y", "float"))
        rows = [(1, "a", 1.0), (2, "", -0.5)]
        assert encode_rows(schema, rows) == {"rows": rows}
        assert encode_rows(WIDE, []) == {"rows": []}
        assert decode_rows(schema, {"rows": rows}) is rows

    def test_a_sparse_column_is_one_csr_entry_with_its_nulls(self):
        schema = Schema.of(("id", "int"), ("s", "sparse"))
        rows = schema.coerce_rows([(0, None), (1, {300: 1.0, 2: -2.0}), (2, {}), (3, None)])
        fields = encode_rows(schema, rows)
        assert fields["rows"] == [(0,), (1,), (2,), (3,)]
        indptr, indices, data, nulls = fields["blocks"][1]
        assert indptr.tolist() == [0, 2, 2] and nulls == (0, 3)
        assert indices.dtype == np.uint16 and indices.tolist() == [300, 2]
        assert data.tolist() == [1.0, -2.0]
        assert_same_rows(decode_rows(schema, through_pickle(fields)), rows)
        # Only NULLs: an empty block, still a block.
        assert_same_rows(decode_rows(schema, encode_rows(schema, [(5, None)])), [(5, None)])

    def test_dicts_written_inline_by_older_code_decode_to_sparse_vectors(self):
        schema = Schema.of(("id", "int"), ("v", "float[]"), ("s", "sparse"))
        old = [(0, np.zeros(2), {7: 0.5, 1: -1.0}), (1, np.ones(2), None), (2, None, {})]
        for fields in ({"rows": old}, encode_rows(schema, old)):  # without, and beside, a block
            decoded = decode_rows(schema, through_pickle(fields))
            assert [row[2] for row in decoded] == [{7: 0.5, 1: -1.0}, None, {}]
            assert type(decoded[0][2]) is SparseVector and list(decoded[0][2]) == [7, 1]
            assert decoded[0][2].indices.base is decoded[2][2].indices.base

    def test_block_row_count_must_match_the_tuples(self):
        rows = [(i, np.zeros(3), float(i)) for i in range(4)]
        schema = Schema.of(("id", "int"), ("v", "float[]"), ("y", "float"))
        fields = encode_rows(schema, rows)
        fields["blocks"][1] = fields["blocks"][1][:3]
        with pytest.raises(ExecutionError, match="block holds 3 rows beside 4"):
            decode_rows(schema, fields)
        with pytest.raises(ExecutionError, match="block holds 3 rows beside 0"):
            decode_rows(schema, {"rows": [], "blocks": fields["blocks"]})
        sparse = Schema.of(("id", "int"), ("s", "sparse"))
        fields = encode_rows(sparse, sparse.coerce_rows([(i, {i: 1.0}) for i in range(4)]))
        indptr, indices, data, nulls = fields["blocks"][1]
        fields["blocks"][1] = (indptr[:-1], indices, data, nulls)
        with pytest.raises(ExecutionError, match="block holds 3 rows beside 4"):
            decode_rows(sparse, fields)


# -------------------------------------------- whole histories, through disk
def _dense(i: int, d: int = 4) -> np.ndarray:
    return np.arange(d, dtype=np.float64) * 0.5 - i


HISTORIES = {
    "dense": (
        [("id", "int"), ("vec", "float[]"), ("label", "float")],
        lambda i: (i, _dense(i), 1.0 if i % 2 else -1.0),
    ),
    "ragged_and_null": (
        [("id", "int"), ("vec", "float[]"), ("label", "float")],
        lambda i: (i, None if i % 5 == 0 else _dense(i, 1 + i % 3), float(i)),
    ),
    "two_array_columns": (
        [("a", "float[]"), ("id", "int"), ("b", "float[]")],
        lambda i: (_dense(i, 3), i, _dense(i, 2 if i < 20 else 5)),
    ),
    "sparse": (
        [("id", "int"), ("vec", "sparse"), ("label", "float")],
        lambda i: (i, {(9 * i + 5 * k) % 40: 1.5 * k - i for k in range(i % 4)}, float(i % 2)),
    ),
    "text_and_any": (
        [("id", "int"), ("body", "text"), ("extra", "any")],
        lambda i: (i, f"row {i}", [None, [1.0, i], {"k": i}, np.arange(i % 3)][i % 4]),
    ),
}


@pytest.mark.parametrize("name", sorted(HISTORIES))
@pytest.mark.parametrize("snapshot", [False, True], ids=["log_only", "snapshot_then_log"])
def test_recovered_table_equals_the_pre_crash_table(tmp_path, name, snapshot):
    columns, make_row = HISTORIES[name]
    db = Database.open(tmp_path / "db")
    table = db.create_table("t", columns)
    empty = db.create_table("empty", columns)  # zero rows, image and all
    table.insert_many(make_row(i) for i in range(30))
    table.insert(make_row(30))
    table.shuffle(seed=4)
    if snapshot:
        db.checkpoint()
    table.insert_many(make_row(i) for i in range(31, 45))
    table.cluster_by("id", descending=True)
    table.insert_many([make_row(99)])
    scratch = db.create_table("scratch", columns)
    scratch.insert_many(make_row(i) for i in range(8))
    scratch.truncate()
    scratch.insert(make_row(3))
    # No close(): every append was flushed, and a crash closes nothing.
    with Database.open(tmp_path / "db") as recovered:
        assert recovered.recovery_report.torn_bytes_discarded == 0
        for original in (table, empty, scratch):
            assert_same_table(recovered.table(original.name), original)
    db.close()


@pytest.mark.parametrize("rewrite, clustered_on", [
    (lambda t: t.cluster_by("id", descending=True), "id"),
    (lambda t: t.cluster_by_key(lambda row: row["id"] % 3, label="id mod 3"), "id mod 3"),
    (lambda t: (t.cluster_by("id"), t.shuffle(seed=1)), None),
], ids=["cluster_by", "cluster_by_key", "shuffle_after_cluster_by"])
def test_a_rewrite_logs_the_clustering_it_leaves(tmp_path, rewrite, clustered_on):
    db = Database.open(tmp_path / "db")
    table = db.create_table("t", [("id", "int")])
    table.insert_many((i,) for i in range(6))
    rewrite(table)
    assert table.clustered_on == clustered_on
    with Database.open(tmp_path / "db") as recovered:
        assert_same_table(recovered.table("t"), table)
    db.close()


# ------------------------------------------------------------- the fixture
def record_history(db: Database, *, rounds: int = 1) -> None:
    """The mutations ``fixtures/parent_format`` records, then ``rounds - 1`` more appends.

    Deterministic and RNG-free apart from one seeded physical shuffle, so the
    same call on an in-memory engine yields the tables the directory must
    open to.  The fixture itself was produced by running this function with
    ``rounds=1`` on ``Database.open(FIXTURE)`` at the parent commit (every
    array still pickled inside its row tuple).
    """
    dense = db.create_table(
        "dense", [("id", "int"), ("vec", "float[]"), ("label", "float")]
    )
    dense.insert_many(
        (i, np.arange(6, dtype=np.float64) * 0.25 + i, 1.0 if i % 3 else -1.0)
        for i in range(40)
    )
    sparse = db.create_table(
        "sparse", [("id", "int"), ("vec", "sparse"), ("label", "float")]
    )
    sparse.insert_many(
        (i, {(7 * i + 3 * k) % 50: 0.5 * k - i for k in range(i % 4)}, float(i % 2))
        for i in range(30)
    )
    dense.shuffle(seed=3)
    db.save_training_state(
        TrainingState(
            name="m", task="lr", table_name="dense", table_version=dense.version,
            model={"w": np.linspace(-1.0, 1.0, 6)}, next_epoch=2, step_offset=80,
            history=[0.7, 0.6],
        )
    )
    # The first saved state of a fresh directory snapshots (the log has
    # outgrown "no snapshot"), so everything below is held by the log alone.
    notes = db.create_table("notes", [("id", "int"), ("body", "text"), ("extra", "any")])
    notes.insert_many(
        (i, f"note {i}", [None, ("t", i), {"k": [i]}, 2.5 * i][i % 4]) for i in range(12)
    )
    dense.insert((40, np.full(6, 0.125), 1.0))
    dense.insert_many((i, np.arange(6, dtype=np.float64) - i, -1.0) for i in range(41, 48))
    sparse.insert_many([(30, {}, 1.0), (31, {49: 2.0, 0: -1.0}, 0.0)])
    notes.cluster_by("body", descending=True)
    notes.insert((12, "tail", None))
    for extra in range(1, rounds):
        start = 100 * extra
        dense.insert_many((start + i, np.full(6, float(i)), 1.0) for i in range(5))
        sparse.insert((start, {extra: 1.0}, 0.0))


@pytest.fixture
def parent_directory(tmp_path) -> Path:
    """A scratch copy: opening a directory repairs and appends to it."""
    return Path(shutil.copytree(FIXTURE, tmp_path / "db"))


class TestParentFormatFixture:
    def test_fixture_is_a_small_snapshot_plus_log_in_the_old_shape(self, parent_directory):
        sizes = {entry.name: entry.stat().st_size for entry in FIXTURE.iterdir()}
        assert sorted(sizes) == ["checkpoint-000000.ckpt", "wal-000001.log"]
        assert sum(sizes.values()) <= 50_000
        records, torn = read_wal(parent_directory)
        assert torn == 0 and len(records) == 7
        assert not any("blocks" in record or "blocks" in record.get("image", ()) for record in records)

    def test_fixture_opens_to_the_rows_that_produced_it(self, parent_directory):
        with Database("expected") as expected, Database.open(parent_directory) as opened:
            record_history(expected)
            assert opened.recovery_report.checkpoint_generation == 0
            assert opened.recovery_report.records_replayed == 7
            assert_same_catalog(opened, expected)
            state = opened.training_state("m")
            assert state.next_epoch == 2 and state.table_version == 2
            assert np.array_equal(state.model["w"], np.linspace(-1.0, 1.0, 6))

    def test_fixture_keeps_growing_under_the_new_record_shape(self, parent_directory):
        with Database("expected") as expected:
            record_history(expected, rounds=3)
            with Database.open(parent_directory) as opened:
                for extra in (1, 2):
                    start = 100 * extra
                    opened.table("dense").insert_many(
                        (start + i, np.full(6, float(i)), 1.0) for i in range(5)
                    )
                    opened.table("sparse").insert((start, {extra: 1.0}, 0.0))
                    # Old records and new ones behind one reopen ...
                    with Database.open(shutil.copytree(
                        parent_directory, parent_directory.with_name(f"copy{extra}")
                    )) as mixed:
                        assert "blocks" in read_wal(mixed.path)[0][-2]  # dense.insert_many
                        assert len(mixed.table("dense")) == 48 + 5 * extra
                opened.checkpoint()
            # ... and behind a snapshot the new code wrote.
            with Database.open(parent_directory) as reopened:
                assert reopened.recovery_report.checkpoint_generation == 1
                assert_same_catalog(reopened, expected)


# ------------------------------------------------------ refused, not applied
class TestMismatchedRecordsAreRefused:
    COLUMNS = [("id", "int"), ("vec", "float[]")]

    def _directory_with(self, tmp_path, tamper) -> Path:
        """A directory whose last mutation record was rewritten by ``tamper``."""
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("t", self.COLUMNS)
            table.insert_many((i, np.zeros(3)) for i in range(4))
            position = db.wal.position()
            table.insert_many((i, np.ones(3)) for i in range(4, 7))
        (_, path), = segment_files(tmp_path / "db")
        data = path.read_bytes()
        record = pickle.loads(data[position[1] + RECORD_HEADER.size:])
        tamper(record)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(
            data[:position[1]] + RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        return tmp_path / "db"

    def test_block_shorter_than_its_rows(self, tmp_path):
        def tamper(record):
            record["blocks"][1] = record["blocks"][1][:2]

        with pytest.raises(ExecutionError, match="block holds 2 rows beside 3"):
            Database.open(self._directory_with(tmp_path, tamper))

    def test_append_record_with_fewer_rows_than_its_entry(self, tmp_path):
        def tamper(record):
            record["rows"] = record["rows"][:2]
            record["blocks"][1] = record["blocks"][1][:2]

        with pytest.raises(ExecutionError, match=r"carries 2 rows .* \+3 -> 7"):
            Database.open(self._directory_with(tmp_path, tamper))

    def test_rewrite_record_must_hold_rows_after(self):
        table = Table("t", Schema.of(("id", "int")))
        table.insert_many([(1,), (2,)])
        entry = LedgerEntry(version=2, kind="rewrite", rows_added=0, rows_after=2, op="shuffle")
        with pytest.raises(ExecutionError, match="carries 1 rows"):
            table.apply_logged_mutation(entry, [(2,)], None)
        assert len(table) == 2 and table.version == 1  # untouched


# ------------------------------------------------------------ bytes on disk
def _directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.iterdir())


def test_dense_table_costs_its_raw_bytes_on_disk(tmp_path):
    """2 000 x 54 float64 rows through an fsync WAL: at most 0.5 % framing."""
    rows, dimension = 2_000, 54
    X = np.random.default_rng(0).normal(size=(rows + 200, dimension))
    table = Table("pts", Schema.of(("id", "int"), ("vec", "float[]"), ("label", "float")))
    table.insert_many((i, X[i], float(i % 2)) for i in range(rows))
    with Database.open(tmp_path / "db", durability="fsync") as db:
        db.register_table(table)
        db.insert("pts", [(rows + i, X[rows + i], 1.0) for i in range(200)])
    raw = (rows + 200) * (16 + dimension * 8)
    assert _directory_bytes(tmp_path / "db") <= 1.005 * raw


def test_sparse_rows_cost_less_than_their_raw_bytes_on_disk(tmp_path):
    """2 000 rows x 25 non-zeros of a 2 000-wide space through an fsync WAL: the
    keys fit uint16, so a non-zero costs 10 bytes against 16 raw."""
    rows, nnz, dimension = 2_000, 25, 2_000
    rng = np.random.default_rng(0)
    keys = np.argsort(rng.random((rows + 200, dimension)), axis=1)[:, :nnz].tolist()
    values = rng.normal(size=(rows + 200, nnz)).tolist()
    make = lambda i: (i, dict(zip(keys[i], values[i])), float(i % 2))  # noqa: E731
    table = Table("docs", Schema.of(("id", "int"), ("vec", "sparse"), ("label", "float")))
    table.insert_many(make(i) for i in range(rows))
    with Database.open(tmp_path / "db", durability="fsync") as db:
        db.register_table(table)
        db.insert("docs", [make(rows + i) for i in range(200)])
    records, _ = read_wal(tmp_path / "db")
    assert records[-1]["blocks"][1][1].dtype == np.uint16
    raw = (rows + 200) * (16 + nnz * 16)
    assert _directory_bytes(tmp_path / "db") <= 0.7 * raw
    with Database.open(tmp_path / "db") as reopened:
        assert_same_table(reopened.table("docs"), table)


def test_a_table_of_text_and_scalars_writes_the_bytes_it_always_did(tmp_path):
    """Text and scalar columns: the record shape, hence the log, is unchanged."""
    table = Table("t", Schema.of(("id", "int"), ("weight", "float"), ("body", "text")))
    table.insert_many((i, 0.5 * i, f"row {i}") for i in range(20))
    expected = []  # the records as they were shaped before blocks existed
    with Database.open(tmp_path / "db", durability="fsync") as db:
        db.register_table(table)
        expected.append({"type": "create", "image": {
            "name": "t", "schema": table.schema, "page_size": table.page_size,
            "rows": table.tail_values(0), "version": 1, "ledger": table.ledger_entries(),
            "ledger_capacity": table.ledger_capacity, "clustered_on": None,
        }})
        for rows, since in (([(20, -1.0, "tail")], 20), (None, 0)):
            table.insert_many(rows) if rows else table.shuffle(seed=1)
            expected.append({
                "type": "mutation", "table": "t", "entry": table.ledger_entries()[-1],
                "rows": table.tail_values(since), "clustered_on": None,
            })
    (_, path), = segment_files(tmp_path / "db")
    payloads = [pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL) for record in expected]
    assert path.read_bytes()[SEGMENT_HEADER_SIZE:] == b"".join(
        RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload for payload in payloads
    )
