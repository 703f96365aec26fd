"""Tests for the MADlib-style SQL front end and model persistence."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest

from repro.core import Model
from repro.data import (
    load_classification_table,
    load_ratings_table,
    load_sequences_table,
    make_dense_classification,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from repro.db import Database, Schema, SegmentedDatabase, Table
from repro.frontend import install_frontend, load_model, model_exists, save_model
from repro.frontend import train as train_module
from repro.frontend.train import _infer_feature_dimension


@pytest.fixture
def frontend_db():
    database = Database("postgres", seed=0)
    dense = make_dense_classification(150, 6, seed=0)
    load_classification_table(database, "labeledpapers", dense.examples, sparse=False)
    install_frontend(database)
    return database


class TestModelPersistence:
    def test_save_and_load_roundtrip(self, frontend_db):
        model = Model({"w": np.array([1.0, -2.0, 3.5]), "b": np.array([[1.0, 2.0], [3.0, 4.0]])})
        save_model(frontend_db, "roundtrip", model)
        assert model_exists(frontend_db, "roundtrip")
        loaded = load_model(frontend_db, "roundtrip")
        assert loaded.allclose(model)

    def test_save_overwrites_existing(self, frontend_db):
        save_model(frontend_db, "m", Model({"w": np.array([1.0])}))
        save_model(frontend_db, "m", Model({"w": np.array([5.0, 6.0])}))
        loaded = load_model(frontend_db, "m")
        np.testing.assert_allclose(loaded["w"], [5.0, 6.0])

    def test_model_tables_are_relations(self, frontend_db):
        save_model(frontend_db, "relmodel", Model({"w": np.array([1.0, 2.0])}))
        rows = frontend_db.execute("SELECT count(*) FROM relmodel").scalar()
        assert rows == 2

    def test_model_exists_false_for_missing(self, frontend_db):
        assert not model_exists(frontend_db, "nothere")


class TestTrainingFunctions:
    def test_svmtrain_query_from_paper(self, frontend_db):
        """The exact interaction from Section 2.1 of the paper."""
        result = frontend_db.execute(
            "SELECT SVMTrain('myModel', 'labeledpapers', 'vec', 'label')"
        )
        assert "myModel" in result.scalar()
        assert model_exists(frontend_db, "myModel")
        accuracy = frontend_db.execute(
            "SELECT ClassifyAccuracy('myModel', 'labeledpapers', 'vec', 'label')"
        ).scalar()
        assert accuracy > 0.8

    def test_lrtrain_and_predict(self, frontend_db):
        frontend_db.execute("SELECT LRTrain('lrModel', 'labeledpapers', 'vec', 'label')")
        message = frontend_db.execute(
            "SELECT LRPredict('lrModel', 'labeledpapers', 'vec', 'scores')"
        ).scalar()
        assert "scored 150 rows" in message
        assert frontend_db.has_table("scores")
        scores = frontend_db.table("scores").column_values("score")
        assert all(0.0 <= value <= 1.0 for value in scores)

    def test_svmpredict_writes_decisions(self, frontend_db):
        frontend_db.execute("SELECT SVMTrain('m2', 'labeledpapers', 'vec', 'label')")
        message = frontend_db.execute(
            "SELECT SVMPredict('m2', 'labeledpapers', 'vec', 'decisions')"
        ).scalar()
        assert "150 rows" in message
        assert len(frontend_db.table("decisions")) == 150

    def test_lassotrain(self, frontend_db):
        frontend_db.execute(
            "SELECT LassoTrain('lassoModel', 'labeledpapers', 'vec', 'label', 0.1)"
        )
        model = load_model(frontend_db, "lassoModel")
        assert model["w"].shape == (6,)

    def test_training_with_explicit_params(self, frontend_db):
        message = frontend_db.execute(
            "SELECT LRTrain('custom', 'labeledpapers', 'vec', 'label', 0.05, 3)"
        ).scalar()
        assert "epochs=3" in message

    def test_sparse_training(self):
        database = Database("postgres", seed=0)
        sparse = make_sparse_classification(80, 40, nonzeros_per_example=5, seed=1)
        load_classification_table(database, "sparse_docs", sparse.examples, sparse=True)
        install_frontend(database)
        database.execute("SELECT SVMTrain('sm', 'sparse_docs', 'vec', 'label')")
        model = load_model(database, "sm")
        assert model["w"].shape == (40,)

    def test_lmftrain(self):
        database = Database("postgres", seed=0)
        ratings = make_ratings(30, 20, 300, rank=3, seed=2)
        load_ratings_table(database, "ratings", ratings.examples)
        install_frontend(database)
        database.execute("SELECT LMFTrain('mf', 'ratings', 'row_id', 'col_id', 'rating', 3)")
        model = load_model(database, "mf")
        assert model["L"].shape == (30, 3)
        assert model["R"].shape == (20, 3)
        mean_prediction = database.execute(
            "SELECT LMFPredict('mf', 'ratings', 'row_id', 'col_id')"
        ).scalar()
        assert np.isfinite(mean_prediction)

    def test_crftrain(self):
        database = Database("postgres", seed=0)
        corpus = make_sequences(12, mean_length=6, num_labels=3, seed=3)
        load_sequences_table(database, "sentences", corpus.examples)
        install_frontend(database)
        message = database.execute(
            "SELECT CRFTrain('crfModel', 'sentences', 'tokens', 'labels', 0.2, 3)"
        ).scalar()
        assert "crfModel" in message
        model = load_model(database, "crfModel")
        assert "emission" in model and "transition" in model

    def test_frontend_on_segmented_database(self):
        database = SegmentedDatabase(4, "dbms_b", seed=0)
        dense = make_dense_classification(100, 5, seed=4)
        load_classification_table(database, "labeledpapers", dense.examples, sparse=False)
        install_frontend(database)
        result = database.execute("SELECT SVMTrain('pm', 'labeledpapers', 'vec', 'label')")
        assert "pm" in result.scalar()
        assert model_exists(database, "pm")


# ------------------------------------------------ feature-dimension inference
def _scan_dimension(table, feature_column: str) -> int:
    """The full-scan inference the memo must agree with (the reference loop)."""
    dimension = 0
    for row in table.scan():
        features = row[feature_column]
        if isinstance(features, Mapping):
            if features:
                dimension = max(dimension, max(features) + 1)
        else:
            dimension = max(dimension, len(features))
    return dimension


class TestFeatureDimensionInference:
    @pytest.fixture
    def rows_read(self, monkeypatch):
        """Row counts of every ``tail_values`` call, newest last."""
        read = []
        original = Table.tail_values

        def counting(table, start):
            values = original(table, start)
            read.append(len(values))
            return values

        monkeypatch.setattr(Table, "tail_values", counting)
        return read

    def test_sparse_history_of_appends_widening_and_rewrites(self, rows_read):
        table = Table("pts", Schema.of(("vec", "sparse"), ("label", "float")))
        memo: dict = {}

        def check(expected_rows_read: int) -> int:
            del rows_read[:]
            dimension = _infer_feature_dimension(table, "vec", memo)
            assert dimension == _scan_dimension(table, "vec")
            assert rows_read == [expected_rows_read]
            return dimension

        table.insert_many(({i % 7: 1.0}, 1.0) for i in range(50))
        assert check(50) == 7                    # first sight: the whole table
        assert check(0) == 7                     # same version: nothing read
        table.insert_many([({3: 1.0}, -1.0), ({}, 1.0)])
        table.insert(({2: 0.5}, 1.0))
        assert check(3) == 7                     # two appends: only their rows
        table.insert_many([({40: 1.0}, 1.0)])
        assert check(1) == 41                    # a widening append is still a delta
        table.shuffle(seed=0)
        assert check(54) == 41                   # a rewrite rescans
        table.truncate()
        table.insert_many([({1: 1.0}, 1.0)])
        assert check(1) == 2                     # and may narrow

    def test_dense_and_mixed_columns(self, rows_read):
        dense = Table("d", Schema.of(("vec", "float[]"), ("label", "float")))
        dense.insert_many((np.zeros(5), 1.0) for _ in range(10))
        memo: dict = {}
        assert _infer_feature_dimension(dense, "vec", memo) == 5
        dense.insert_many((np.zeros(5), 1.0) for _ in range(4))
        assert _infer_feature_dimension(dense, "vec", memo) == 5
        assert rows_read == [10, 4]
        mixed = Table("m", Schema.of(("vec", "any"), ("label", "float")))
        mixed.insert_many([(np.zeros(3), 1.0), ({8: 1.0}, -1.0), ([1.0, 2.0], 1.0)])
        assert _infer_feature_dimension(mixed, "vec") == _scan_dimension(mixed, "vec") == 9

    def test_a_new_table_under_an_old_name_is_rescanned(self, rows_read):
        memo: dict = {}
        first = Table("pts", Schema.of(("vec", "sparse")))
        first.insert_many([({9: 1.0},), ({1: 1.0},)])
        assert _infer_feature_dimension(first, "vec", memo) == 10
        second = Table("pts", Schema.of(("vec", "sparse")))
        second.insert_many([({1: 1.0},)])
        second.insert_many([({2: 1.0},)])  # versions 1..2 would read as an append to `first`
        assert _infer_feature_dimension(second, "vec", memo) == 3
        assert rows_read == [2, 2]

    def test_empty_column_still_raises(self):
        table = Table("pts", Schema.of(("vec", "sparse")))
        table.insert(({},))
        with pytest.raises(ValueError, match="could not infer"):
            _infer_feature_dimension(table, "vec", {})

    def test_sql_refresh_reads_only_the_appended_rows(self, frontend_db, rows_read, monkeypatch):
        frontend_db.execute("SELECT LRTrain('m', 'labeledpapers', 'vec', 'label', 0.1, 2)")
        vec = frontend_db.table("labeledpapers").row_at(0)["vec"]
        frontend_db.insert("labeledpapers", [(150 + i, vec, 1.0) for i in range(5)])
        inferred = []
        original = train_module._infer_feature_dimension

        def spying(table, column, memo=None):
            del rows_read[:]
            dimension = original(table, column, memo)
            inferred.append((dimension, list(rows_read)))
            return dimension

        monkeypatch.setattr(train_module, "_infer_feature_dimension", spying)
        summary = frontend_db.execute(
            "SELECT LRTrain('m', 'labeledpapers', 'vec', 'label', 0.1, 2)"
        ).scalar()
        assert "continued" in summary
        assert inferred == [(6, [5])]
