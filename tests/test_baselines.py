"""Tests for the baseline ('native tool') trainers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    train_als_matrix_factorization,
    train_batch_crf,
    train_batch_gradient_descent,
    train_batch_matrix_factorization,
    train_batch_svm,
    train_newton_logistic_regression,
)
from repro.core import train_in_memory
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from repro.db import Database, SparseVector
from repro.tasks import (
    ConditionalRandomFieldTask,
    LinearRegressionTask,
    LogisticRegressionTask,
    LowRankMatrixFactorizationTask,
    SVMTask,
)
from repro.tasks.base import SupervisedExample


@pytest.fixture(scope="module")
def dense():
    return make_dense_classification(200, 6, seed=11)


@pytest.fixture(scope="module")
def ratings():
    return make_ratings(30, 20, 400, rank=3, noise=0.05, seed=11)


class TestNewtonLR:
    def test_converges_to_low_loss(self, dense):
        result = train_newton_logistic_regression(dense.examples, 6, iterations=8)
        igd = train_in_memory(LogisticRegressionTask(6), dense.examples, epochs=10, step_size=0.1)
        # Newton should reach at least the quality IGD reaches.
        assert result.final_objective <= igd.final_objective * 1.05

    def test_objective_monotone_after_first_iterations(self, dense):
        result = train_newton_logistic_regression(dense.examples, 6, iterations=8)
        trace = result.objective_trace()
        assert trace[-1] <= trace[1]

    def test_early_stop_on_tiny_step(self, dense):
        result = train_newton_logistic_regression(dense.examples, 6, iterations=50, tolerance=1e-3)
        assert result.iterations < 50

    def test_sparse_table_rows_train_like_their_dense_form(self):
        """Rows read back from a sparse column (``SparseVector``, not dict) densify."""
        data = make_sparse_classification(80, 12, nonzeros_per_example=3, seed=5)
        database = Database()
        load_classification_table(database, "docs", data.examples, sparse=True)
        stored = [
            SupervisedExample(row["vec"], row["label"]) for row in database.table("docs").scan()
        ]
        assert all(isinstance(example.features, SparseVector) for example in stored)
        dense = []
        for example in stored:
            features = np.zeros(12)
            for index, value in example.features.items():
                features[index] = value
            dense.append(SupervisedExample(features, example.label))
        sparse_run = train_newton_logistic_regression(stored, 12, iterations=5)
        dense_run = train_newton_logistic_regression(dense, 12, iterations=5)
        assert np.array_equal(sparse_run.model["w"], dense_run.model["w"])
        # The reported objective sums sparse vs dense dot products: same value, other rounding.
        assert np.allclose(sparse_run.objective_trace(), dense_run.objective_trace(), rtol=1e-12)


class TestBatchLinearBaselines:
    def test_batch_gd_decreases_objective(self, dense):
        result = train_batch_gradient_descent(
            LogisticRegressionTask(6), dense.examples, step_size=0.001, iterations=20
        )
        trace = result.objective_trace()
        assert trace[-1] < trace[0]

    def test_batch_gd_rejects_non_linear_tasks(self, ratings):
        task = LowRankMatrixFactorizationTask(30, 20, rank=3)
        with pytest.raises(TypeError):
            train_batch_gradient_descent(task, ratings.examples)

    def test_batch_gd_least_squares(self):
        rng = np.random.default_rng(0)
        from repro.tasks import SupervisedExample

        true_w = np.array([1.0, -1.0])
        examples = [
            SupervisedExample(x, float(x @ true_w))
            for x in rng.normal(size=(100, 2))
        ]
        result = train_batch_gradient_descent(
            LinearRegressionTask(2), examples, step_size=0.005, iterations=100
        )
        np.testing.assert_allclose(result.model["w"], true_w, atol=0.1)

    def test_batch_svm_decreases_objective(self, dense):
        result = train_batch_svm(SVMTask(6), dense.examples, step_size=0.001, iterations=20)
        trace = result.objective_trace()
        assert trace[-1] < trace[0]

    def test_batch_svm_needs_more_passes_than_igd(self, dense):
        """The core of Figure 7A: per pass, IGD makes far more progress."""
        igd = train_in_memory(SVMTask(6), dense.examples, epochs=5, step_size=0.05, seed=0)
        batch = train_batch_svm(SVMTask(6), dense.examples, step_size=0.005, iterations=5)
        assert igd.final_objective < batch.final_objective

    def test_time_to_reach_helper(self, dense):
        result = train_batch_svm(SVMTask(6), dense.examples, step_size=0.005, iterations=10)
        assert result.time_to_reach(result.objective_trace()[-1]) is not None
        assert result.time_to_reach(-1.0) is None


class TestMatrixFactorizationBaselines:
    def test_als_fits_ratings_well(self, ratings):
        task = LowRankMatrixFactorizationTask(30, 20, rank=3, mu=0.01)
        result = train_als_matrix_factorization(task, ratings.examples, iterations=10)
        rmse = task.reconstruction_rmse(result.model, ratings.examples)
        assert rmse < 0.5

    def test_als_objective_decreases(self, ratings):
        task = LowRankMatrixFactorizationTask(30, 20, rank=3, mu=0.01)
        result = train_als_matrix_factorization(task, ratings.examples, iterations=5)
        trace = result.objective_trace()
        assert trace[-1] < trace[0]

    def test_batch_mf_much_slower_convergence_than_igd(self, ratings):
        """Figure 7A's LMF claim: per pass, SGD beats batch gradient descent."""
        task = LowRankMatrixFactorizationTask(30, 20, rank=3, mu=0.01)
        igd = train_in_memory(task, ratings.examples, epochs=10, step_size=0.05, seed=0)
        batch = train_batch_matrix_factorization(
            LowRankMatrixFactorizationTask(30, 20, rank=3, mu=0.01),
            ratings.examples,
            step_size=0.001,
            iterations=10,
        )
        assert igd.final_objective < batch.final_objective

    def test_batch_mf_objective_decreases(self, ratings):
        result = train_batch_matrix_factorization(
            LowRankMatrixFactorizationTask(30, 20, rank=3, mu=0.01),
            ratings.examples,
            step_size=0.001,
            iterations=10,
        )
        trace = result.objective_trace()
        assert trace[-1] < trace[0]


class TestBatchCRF:
    def test_objective_decreases(self):
        corpus = make_sequences(15, mean_length=6, num_labels=3, seed=5)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        result = train_batch_crf(task, corpus.examples, step_size=0.5, iterations=8)
        trace = result.objective_trace()
        assert trace[-1] < trace[0]

    def test_igd_converges_faster_per_pass(self):
        """Figure 7B's claim at unit-test scale."""
        corpus = make_sequences(15, mean_length=6, num_labels=3, seed=5)
        igd = train_in_memory(
            ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
            corpus.examples,
            epochs=5,
            step_size=0.2,
            seed=0,
        )
        batch = train_batch_crf(
            ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
            corpus.examples,
            step_size=0.5,
            iterations=5,
        )
        assert igd.final_objective < batch.final_objective
