"""Tests for dataset generators, loaders and the Table-1 statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    classification_statistics,
    encode_sequence_for_storage,
    load_catx_table,
    load_classification_table,
    load_ratings_table,
    load_returns_table,
    load_sequences_table,
    load_timeseries_table,
    make_catx,
    make_dense_classification,
    make_noisy_timeseries,
    make_portfolio_returns,
    make_ratings,
    make_sequences,
    make_sparse_classification,
    ratings_statistics,
    sequence_statistics,
)
from repro.db import Database, NullAggregate, SegmentedDatabase, SparseVector
from repro.tasks import ConditionalRandomFieldTask


class TestClassificationGenerators:
    def test_dense_shape_and_labels(self):
        dataset = make_dense_classification(100, 10, seed=0)
        assert len(dataset) == 100
        assert dataset.dimension == 10
        assert not dataset.sparse
        assert {example.label for example in dataset.examples} == {1.0, -1.0}

    def test_dense_reproducible(self):
        a = make_dense_classification(50, 5, seed=3)
        b = make_dense_classification(50, 5, seed=3)
        np.testing.assert_allclose(a.examples[7].features, b.examples[7].features)

    def test_dense_roughly_balanced(self):
        dataset = make_dense_classification(200, 5, seed=1)
        assert 80 <= sum(example.label > 0 for example in dataset.examples) <= 120

    def test_sparse_structure(self):
        dataset = make_sparse_classification(
            60, 200, nonzeros_per_example=8, common_features=3, seed=0
        )
        assert dataset.sparse
        for example in dataset.examples:
            assert isinstance(example.features, dict)
            assert len(example.features) == 8 + 3
            assert all(example.features[i] == 1.0 for i in range(3))
            assert max(example.features) < 200

    def test_clustered_by_label_order(self):
        dataset = make_dense_classification(100, 4, seed=2).clustered_by_label()
        labels = [example.label for example in dataset.examples]
        assert labels == sorted(labels, reverse=True)

    def test_shuffled_preserves_multiset(self):
        dataset = make_dense_classification(50, 4, seed=2)
        shuffled = dataset.shuffled(seed=9)
        assert sorted(e.label for e in shuffled.examples) == sorted(
            e.label for e in dataset.examples
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_dense_classification(1, 5)
        with pytest.raises(ValueError):
            make_sparse_classification(10, 20, nonzeros_per_example=0)
        with pytest.raises(ValueError):
            make_sparse_classification(10, 20, nonzeros_per_example=5, common_features=20)

    def test_approximate_bytes_positive(self):
        dense = make_dense_classification(30, 5, seed=0)
        sparse = make_sparse_classification(30, 50, nonzeros_per_example=4, seed=0)
        assert dense.approximate_bytes() > 0
        assert sparse.approximate_bytes() > 0


class TestCATX:
    def test_structure(self):
        dataset = make_catx(10)
        assert len(dataset) == 20
        labels = dataset.labels()
        assert np.all(labels[:10] == 1.0)
        assert np.all(labels[10:] == -1.0)
        assert all(example.features == 1.0 for example in dataset.examples)

    def test_random_order_is_permutation(self):
        dataset = make_catx(10)
        randomized = dataset.random_order(seed=1)
        assert sorted(e.label for e in randomized) == sorted(e.label for e in dataset.examples)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            make_catx(0)


class TestRatingsAndSequences:
    def test_ratings_structure(self):
        dataset = make_ratings(20, 15, 100, rank=3, seed=0)
        assert len(dataset) == 100
        assert 0 < dataset.density() <= 1
        for example in dataset.examples:
            assert 0 <= example.row < 20
            assert 0 <= example.col < 15

    def test_ratings_no_duplicate_cells(self):
        dataset = make_ratings(10, 10, 80, rank=2, seed=1)
        cells = {(example.row, example.col) for example in dataset.examples}
        assert len(cells) == len(dataset)

    def test_ratings_capped_at_matrix_size(self):
        dataset = make_ratings(5, 5, 1000, rank=2, seed=0)
        assert len(dataset) == 25

    def test_sequences_structure(self):
        corpus = make_sequences(10, mean_length=7, num_labels=3, seed=0)
        assert len(corpus) == 10
        assert corpus.num_labels == 3
        assert corpus.num_tokens > 0
        for example in corpus.examples:
            assert len(example.token_features) == len(example.labels)
            assert all(0 <= label < 3 for label in example.labels)
            for features in example.token_features:
                assert all(0 <= f < corpus.num_features for f in features)

    def test_sequence_encoding(self):
        corpus = make_sequences(3, mean_length=5, num_labels=2, seed=1)
        tokens, labels = encode_sequence_for_storage(corpus.examples[0])
        assert "|" in tokens
        assert len(labels.split()) == len(corpus.examples[0])

    def test_invalid_sequence_args(self):
        with pytest.raises(ValueError):
            make_sequences(0)
        with pytest.raises(ValueError):
            make_sequences(5, num_labels=1)
        with pytest.raises(ValueError):
            make_sequences(5, stickiness=1.5)


class TestOtherGenerators:
    def test_timeseries(self):
        series = make_noisy_timeseries(30, 2, seed=0)
        assert len(series) == 30
        assert series.true_states.shape == (30, 2)
        assert series.examples[5].time_index == 5

    def test_portfolio_returns(self):
        data = make_portfolio_returns(5, 100, seed=0)
        assert len(data) == 100
        assert data.num_assets == 5
        assert data.covariance.shape == (5, 5)
        sample_mean = data.sample_mean()
        assert np.all(np.abs(sample_mean - data.expected_returns) < 0.2)

    def test_portfolio_invalid_args(self):
        with pytest.raises(ValueError):
            make_portfolio_returns(1, 100)
        with pytest.raises(ValueError):
            make_portfolio_returns(5, 1)


class TestLoaders:
    def test_classification_loader_dense(self):
        database = Database()
        dataset = make_dense_classification(20, 4, seed=0)
        table = load_classification_table(database, "papers", dataset.examples)
        assert len(table) == 20
        assert database.table("papers").schema.column_names == ("id", "vec", "label")

    def test_classification_loader_sparse(self):
        database = Database()
        dataset = make_sparse_classification(10, 30, nonzeros_per_example=3, seed=0)
        load_classification_table(database, "docs", dataset.examples, sparse=True)
        row = database.table("docs").row_at(0)
        # Stored as a read-only view of the batch's CSR block, equal to the generated dict.
        assert isinstance(row["vec"], SparseVector)
        assert row["vec"] == dataset.examples[0].features
        assert list(row["vec"]) == list(dataset.examples[0].features)
        assert not row["vec"].values.flags.writeable

    def test_loader_replace(self):
        database = Database()
        dataset = make_dense_classification(10, 3, seed=0)
        load_classification_table(database, "t", dataset.examples)
        load_classification_table(database, "t", dataset.examples[:5], replace=True)
        assert len(database.table("t")) == 5

    def test_catx_loader(self):
        database = Database()
        load_catx_table(database, "catx", make_catx(5).examples)
        assert len(database.table("catx")) == 10

    def test_ratings_loader(self):
        database = Database()
        dataset = make_ratings(5, 5, 10, rank=2, seed=0)
        load_ratings_table(database, "ratings", dataset.examples)
        assert database.execute("SELECT count(*) FROM ratings").scalar() == 10

    def test_sequences_loader_roundtrips_through_task(self):
        database = Database()
        corpus = make_sequences(4, mean_length=5, num_labels=2, seed=0)
        load_sequences_table(database, "sentences", corpus.examples)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        decoded = [task.example_from_row(row) for row in database.table("sentences").scan()]
        assert decoded[0].labels == corpus.examples[0].labels
        assert decoded[0].token_features == corpus.examples[0].token_features

    def test_timeseries_and_returns_loaders(self):
        database = Database()
        series = make_noisy_timeseries(10, 2, seed=0)
        load_timeseries_table(database, "obs", series.examples)
        assert len(database.table("obs")) == 10
        returns = make_portfolio_returns(4, 20, seed=0)
        load_returns_table(database, "returns", returns.examples)
        assert len(database.table("returns")) == 20

    def test_loader_on_segmented_database(self):
        database = SegmentedDatabase(3, "dbms_b")
        dataset = make_dense_classification(30, 4, seed=0)
        load_classification_table(database, "papers", dataset.examples)
        assert len(database.table("papers")) == 30
        assert database.run_parallel_aggregate("papers", NullAggregate).per_segment_tuples == [10] * 3


class TestStatistics:
    def test_statistics_rows(self):
        dense = make_dense_classification(50, 5, seed=0)
        sparse = make_sparse_classification(20, 100, nonzeros_per_example=4, seed=0)
        ratings = make_ratings(10, 10, 40, rank=2, seed=0)
        corpus = make_sequences(5, num_labels=2, seed=0)
        stats = [
            classification_statistics(dense),
            classification_statistics(sparse),
            ratings_statistics(ratings),
            sequence_statistics(corpus),
        ]
        for stat in stats:
            assert stat.num_examples > 0
            assert stat.approximate_bytes > 0
            assert stat.size_human()
        assert stats[1].format == "sparse-vector"
        assert stats[2].format == "sparse-matrix"
        assert "x" in stats[2].dimension
