"""Tests for heap tables: insertion, scans, clustering, shuffling, partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import ColumnType, Schema, SchemaError, Table


@pytest.fixture
def labelled_table():
    schema = Schema.of(("id", ColumnType.INTEGER), ("label", ColumnType.FLOAT))
    table = Table("labelled", schema, page_size=8)
    table.insert_many((i, 1.0 if i % 2 == 0 else -1.0) for i in range(50))
    return table


class TestInsertAndScan:
    def test_len_counts_rows(self, labelled_table):
        assert len(labelled_table) == 50

    def test_scan_preserves_insert_order(self, labelled_table):
        ids = [row["id"] for row in labelled_table.scan()]
        assert ids == list(range(50))

    def test_scan_values_matches_scan(self, labelled_table):
        assert list(labelled_table.scan_values()) == [row.values for row in labelled_table.scan()]

    def test_pages_created_by_page_size(self, labelled_table):
        assert labelled_table.num_pages == (50 + 7) // 8

    def test_row_at_random_access(self, labelled_table):
        assert labelled_table.row_at(17)["id"] == 17
        assert labelled_table.row_at(-1)["id"] == 49

    def test_row_at_out_of_range(self, labelled_table):
        with pytest.raises(IndexError):
            labelled_table.row_at(50)

    def test_insert_coerces_types(self):
        schema = Schema.of(("x", ColumnType.FLOAT))
        table = Table("t", schema)
        table.insert(("3",))
        assert table.row_at(0)["x"] == pytest.approx(3.0)

    def test_insert_mapping(self, labelled_table):
        labelled_table.insert({"id": 100, "label": -1.0})
        assert labelled_table.row_at(-1)["id"] == 100

    def test_column_values(self, labelled_table):
        labels = labelled_table.column_values("label")
        assert len(labels) == 50
        assert set(labels) == {1.0, -1.0}

    def test_truncate(self, labelled_table):
        labelled_table.truncate()
        assert len(labelled_table) == 0
        assert list(labelled_table.scan()) == []

    def test_scan_count_statistic(self, labelled_table):
        before = labelled_table.scan_count
        list(labelled_table.scan())
        assert labelled_table.scan_count == before + 1

    def test_invalid_page_size(self):
        with pytest.raises(SchemaError):
            Table("bad", Schema.of(("x", ColumnType.FLOAT)), page_size=0)


class TestReordering:
    def test_cluster_by_sorts_heap(self, labelled_table):
        labelled_table.cluster_by("label", descending=True)
        labels = labelled_table.column_values("label")
        assert labels == sorted(labels, reverse=True)
        assert labelled_table.clustered_on == "label"

    def test_cluster_by_key_callable(self, labelled_table):
        labelled_table.cluster_by_key(lambda row: -row["id"], label="neg_id")
        assert labelled_table.row_at(0)["id"] == 49
        assert labelled_table.clustered_on == "neg_id"

    def test_shuffle_is_permutation(self, labelled_table):
        before = labelled_table.column_values("id")
        labelled_table.shuffle(seed=3)
        after = labelled_table.column_values("id")
        assert sorted(after) == sorted(before)
        assert after != before  # overwhelmingly likely for 50 rows
        assert labelled_table.clustered_on is None

    def test_shuffle_deterministic_with_seed(self, labelled_table):
        clone = labelled_table.copy()
        labelled_table.shuffle(seed=11)
        clone.shuffle(seed=11)
        assert labelled_table.column_values("id") == clone.column_values("id")

    def test_insert_clears_clustering_flag(self, labelled_table):
        labelled_table.cluster_by("label")
        labelled_table.insert((999, 1.0))
        assert labelled_table.clustered_on is None

    def test_copy_is_independent(self, labelled_table):
        clone = labelled_table.copy("clone")
        clone.insert((999, 1.0))
        assert len(clone) == 51
        assert len(labelled_table) == 50


class TestVersionTracking:
    def test_new_table_starts_at_version_zero(self):
        table = Table("v", Schema.of(("x", ColumnType.FLOAT)))
        assert table.version == 0

    def test_insert_bumps_version(self, labelled_table):
        before = labelled_table.version
        labelled_table.insert((999, 1.0))
        assert labelled_table.version == before + 1

    def test_insert_many_bumps_version_once(self, labelled_table):
        before = labelled_table.version
        labelled_table.insert_many([(100, 1.0), (101, -1.0)])
        assert labelled_table.version == before + 1

    def test_shuffle_bumps_version(self, labelled_table):
        before = labelled_table.version
        labelled_table.shuffle(seed=0)
        assert labelled_table.version > before

    def test_cluster_by_bumps_version(self, labelled_table):
        before = labelled_table.version
        labelled_table.cluster_by("label")
        assert labelled_table.version > before

    def test_cluster_by_key_bumps_version(self, labelled_table):
        before = labelled_table.version
        labelled_table.cluster_by_key(lambda row: -row["id"], label="neg")
        assert labelled_table.version > before

    def test_truncate_bumps_version(self, labelled_table):
        before = labelled_table.version
        labelled_table.truncate()
        assert labelled_table.version > before

    def test_reads_do_not_bump_version(self, labelled_table):
        before = labelled_table.version
        list(labelled_table.scan())
        list(labelled_table.scan_chunks(8))
        labelled_table.row_at(3)
        labelled_table.column_values("label")
        assert labelled_table.version == before

    def test_copy_preserves_version(self, labelled_table):
        labelled_table.shuffle(seed=1)
        assert labelled_table.copy("c").version == labelled_table.version


class TestScanChunks:
    def test_chunks_cover_all_rows_in_order(self, labelled_table):
        chunks = list(labelled_table.scan_chunks(chunk_size=7))
        ids = np.concatenate([chunk.column("id") for chunk in chunks])
        assert ids.tolist() == list(range(50))
        assert [len(chunk) for chunk in chunks] == [7] * 7 + [1]
        assert [chunk.start for chunk in chunks] == [7 * i for i in range(8)]

    def test_chunk_boundaries_independent_of_page_size(self, labelled_table):
        # page_size=8, chunk_size=20 -> chunks straddle pages
        chunks = list(labelled_table.scan_chunks(chunk_size=20))
        assert [len(chunk) for chunk in chunks] == [20, 20, 10]

    def test_scan_chunks_counts_exactly_one_scan(self, labelled_table):
        before = labelled_table.scan_count
        list(labelled_table.scan_chunks(chunk_size=5))
        assert labelled_table.scan_count == before + 1

    def test_typed_columns(self, labelled_table):
        chunk = next(labelled_table.scan_chunks())
        assert chunk.column("id").dtype == np.int64
        assert chunk.column("label").dtype == np.float64

    def test_object_column_for_arrays(self):
        schema = Schema.of(("vec", ColumnType.FLOAT_ARRAY), ("label", ColumnType.FLOAT))
        table = Table("vecs", schema)
        table.insert_many(([float(i), 2.0], float(i)) for i in range(5))
        chunk = next(table.scan_chunks())
        vec_column = chunk.column("vec")
        assert vec_column.dtype == object
        assert np.array_equal(vec_column[3], np.array([3.0, 2.0]))

    def test_chunk_carries_table_identity(self, labelled_table):
        chunk = next(labelled_table.scan_chunks())
        assert chunk.table_name == "labelled"
        assert chunk.table_version == labelled_table.version

    def test_invalid_chunk_size(self, labelled_table):
        with pytest.raises(SchemaError):
            list(labelled_table.scan_chunks(chunk_size=0))

    def test_empty_table_yields_no_chunks(self):
        table = Table("empty", Schema.of(("x", ColumnType.FLOAT)))
        assert list(table.scan_chunks()) == []


class TestInsertManyBatching:
    def test_insert_many_matches_per_row_insert(self):
        schema = Schema.of(("id", ColumnType.INTEGER), ("label", ColumnType.FLOAT))
        one = Table("one", schema, page_size=8)
        many = Table("many", schema, page_size=8)
        rows = [(i, float(i % 3)) for i in range(37)]
        for row in rows:
            one.insert(row)
        assert many.insert_many(rows) == 37
        assert list(one.scan_values()) == list(many.scan_values())
        assert one.num_pages == many.num_pages

    def test_insert_many_fills_partial_tail_page(self):
        schema = Schema.of(("id", ColumnType.INTEGER))
        table = Table("t", schema, page_size=8)
        table.insert((0,))
        table.insert_many([(i,) for i in range(1, 20)])
        assert len(table) == 20
        assert table.num_pages == 3
        assert [row["id"] for row in table.scan()] == list(range(20))

    def test_insert_many_empty_iterable(self):
        table = Table("t", Schema.of(("id", ColumnType.INTEGER)))
        version = table.version
        assert table.insert_many([]) == 0
        assert table.version == version
