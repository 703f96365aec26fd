"""Tests for the linear-model tasks: least squares, LR, SVM, lasso."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IGDConfig, Model, train, train_in_memory
from repro.data import (
    load_classification_table,
    make_catx,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import Database
from repro.tasks import (
    LassoTask,
    LinearRegressionTask,
    LogisticRegressionTask,
    OneDimensionalLeastSquares,
    SVMTask,
    SupervisedExample,
    catx_closed_form_final,
    catx_closed_form_iterates,
    dot_product,
    scale_and_add,
    sigmoid,
)
from repro.tasks.logistic_regression import log1p_exp, log1p_exp_array


class TestFeatureHelpers:
    def test_dot_product_dense_and_sparse(self):
        weights = np.array([1.0, 2.0, 3.0])
        assert dot_product(weights, np.array([1.0, 0.0, 1.0])) == pytest.approx(4.0)
        assert dot_product(weights, {0: 2.0, 2: 1.0}) == pytest.approx(5.0)

    def test_scale_and_add(self):
        weights = np.zeros(3)
        scale_and_add(weights, np.array([1.0, 1.0, 0.0]), 2.0)
        np.testing.assert_allclose(weights, [2.0, 2.0, 0.0])
        scale_and_add(weights, {2: 4.0}, 0.5)
        np.testing.assert_allclose(weights, [2.0, 2.0, 2.0])

    def test_sigmoid_stability(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_log1p_exp_stability(self):
        assert log1p_exp(100.0) == pytest.approx(100.0)
        assert log1p_exp(-100.0) == pytest.approx(0.0)
        assert log1p_exp(0.0) == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize("value", [-np.inf, -36.0, -35.0, 0.0, 35.0, 36.0, np.inf, np.nan])
    def test_log1p_exp_array_agrees_with_the_scalar_loss(self, value):
        """The chunk plane's loss kernel clamps as the per-tuple one does on
        both sides of +-35 and at infinity, and passes a NaN through."""
        vectorized = log1p_exp_array(np.array([value]))[0]
        np.testing.assert_allclose(vectorized, log1p_exp(value), rtol=1e-15)


class TestOneDimensionalLeastSquares:
    def test_gradient_step_moves_towards_label(self):
        task = OneDimensionalLeastSquares()
        model = task.initial_model()
        task.gradient_step(model, SupervisedExample(1.0, 2.0), 0.5)
        assert model["w"][0] == pytest.approx(1.0)

    def test_loss_value(self):
        task = OneDimensionalLeastSquares()
        model = Model({"w": np.array([3.0])})
        assert task.loss(model, SupervisedExample(1.0, 1.0)) == pytest.approx(2.0)

    def test_converges_to_mean_on_catx(self):
        task = OneDimensionalLeastSquares()
        dataset = make_catx(100)
        result = train_in_memory(task, dataset.examples, epochs=20, step_size=0.05, seed=0)
        assert abs(result.model["w"][0]) < 0.1

    def test_closed_form_matches_simulation(self):
        """Appendix C: the unfolded closed form equals the recursive dynamics."""
        labels = [1.0] * 10 + [-1.0] * 10
        iterates = catx_closed_form_iterates(labels, w0=1.0, alpha=0.2)
        assert iterates[0] == 1.0
        final = catx_closed_form_final(labels, w0=1.0, alpha=0.2)
        assert iterates[-1] == pytest.approx(final)

    def test_closed_form_clustered_order_approaches_minus_one(self):
        """Appendix C: with sigma(i)=i and large enough alpha, w -> ~-1."""
        n = 200
        labels = [1.0] * n + [-1.0] * n
        final = catx_closed_form_final(labels, w0=0.0, alpha=0.1)
        assert final < -0.9

    def test_example_from_row(self):
        task = OneDimensionalLeastSquares()
        example = task.example_from_row({"x": 1.0, "y": -1.0})
        assert example.features == 1.0
        assert example.label == -1.0


class TestLinearRegression:
    def test_recovers_true_weights(self):
        rng = np.random.default_rng(0)
        true_w = np.array([1.0, -2.0, 0.5])
        examples = []
        for _ in range(200):
            x = rng.normal(size=3)
            examples.append(SupervisedExample(x, float(x @ true_w) + 0.01 * rng.normal()))
        task = LinearRegressionTask(3)
        result = train_in_memory(task, examples, epochs=30, step_size=0.05, seed=0)
        np.testing.assert_allclose(result.model["w"], true_w, atol=0.1)

    def test_predict(self):
        task = LinearRegressionTask(2)
        model = Model({"w": np.array([2.0, 1.0])})
        assert task.predict(model, SupervisedExample(np.array([1.0, 3.0]), 0.0)) == pytest.approx(5.0)


class TestLogisticRegression:
    def test_gradient_matches_figure4_snippet(self):
        """One step must equal w += alpha * y * sigmoid(-y w.x) * x."""
        task = LogisticRegressionTask(3)
        model = Model({"w": np.array([0.1, -0.2, 0.3])})
        x = np.array([1.0, 2.0, -1.0])
        y = -1.0
        wx = float(model["w"] @ x)
        expected = model["w"] + 0.2 * y * sigmoid(-wx * y) * x
        task.gradient_step(model, SupervisedExample(x, y), 0.2)
        np.testing.assert_allclose(model["w"], expected)

    def test_loss_is_logistic(self):
        task = LogisticRegressionTask(1)
        model = Model({"w": np.array([1.0])})
        example = SupervisedExample(np.array([2.0]), 1.0)
        assert task.loss(model, example) == pytest.approx(np.log1p(np.exp(-2.0)))

    def test_training_improves_accuracy(self):
        dataset = make_dense_classification(300, 8, seed=1)
        task = LogisticRegressionTask(8)
        result = train_in_memory(task, dataset.examples, epochs=10, step_size=0.1, seed=0)
        correct = sum(
            1
            for example in dataset.examples
            if task.classify(result.model, example) == (1 if example.label > 0 else -1)
        )
        assert correct / len(dataset) > 0.85

    def test_sparse_features_supported(self):
        dataset = make_sparse_classification(150, 60, nonzeros_per_example=5, seed=1)
        task = LogisticRegressionTask(60)
        result = train_in_memory(task, dataset.examples, epochs=8, step_size=0.1, seed=0)
        assert result.objective_trace()[-1] < result.objective_trace()[0]

    def test_predict_is_probability(self):
        task = LogisticRegressionTask(2)
        model = Model({"w": np.array([10.0, 0.0])})
        probability = task.predict(model, SupervisedExample(np.array([1.0, 0.0]), 1.0))
        assert 0.99 < probability <= 1.0

    def test_mu_installs_l1_proximal(self):
        from repro.core import L1Proximal

        task = LogisticRegressionTask(3, mu=0.5)
        assert isinstance(task.proximal, L1Proximal)
        assert task.proximal.mu == 0.5

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            LogisticRegressionTask(0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_diverged_run_reports_nan_and_never_converges(self, sparse):
        """A NaN model's loss is NaN on the chunk plane as on the per-tuple
        plane (the non-batching twin), so a threshold rule never reads it as
        having reached its target."""
        if sparse:
            data = make_sparse_classification(50, 10, nonzeros_per_example=3, seed=0)
        else:
            data = make_dense_classification(50, 4, seed=0)
        rows_twin = type("Rows", (LogisticRegressionTask,), {"supports_batches": False})
        for task_cls in (LogisticRegressionTask, rows_twin):
            database = Database("postgres", seed=0)
            load_classification_table(database, "pts", data.examples, sparse=sparse)
            result = train(
                task_cls(data.dimension), database, "pts",
                config=IGDConfig(step_size=1e308, max_epochs=3,
                                 stopping={"kind": "threshold", "target": 20.0}),
            )
            assert np.isnan(result.model["w"]).all()
            assert np.isnan(result.objective_trace()).all()
            assert result.epochs_run == 3 and not result.converged


class TestSVM:
    def test_gradient_matches_figure4_snippet(self):
        """Update only when 1 - y*w.x > 0, by alpha * y * x."""
        task = SVMTask(2)
        model = Model({"w": np.array([0.0, 0.0])})
        x = np.array([1.0, -1.0])
        task.gradient_step(model, SupervisedExample(x, 1.0), 0.5)
        np.testing.assert_allclose(model["w"], [0.5, -0.5])

    def test_no_update_outside_margin(self):
        task = SVMTask(2)
        model = Model({"w": np.array([10.0, 0.0])})
        before = model["w"].copy()
        task.gradient_step(model, SupervisedExample(np.array([1.0, 0.0]), 1.0), 0.5)
        np.testing.assert_allclose(model["w"], before)

    def test_hinge_loss(self):
        task = SVMTask(2)
        model = Model({"w": np.array([1.0, 0.0])})
        assert task.loss(model, SupervisedExample(np.array([0.5, 0.0]), 1.0)) == pytest.approx(0.5)
        assert task.loss(model, SupervisedExample(np.array([2.0, 0.0]), 1.0)) == 0.0

    def test_training_separates_data(self):
        dataset = make_dense_classification(300, 8, seed=2)
        task = SVMTask(8)
        result = train_in_memory(task, dataset.examples, epochs=10, step_size=0.05, seed=0)
        correct = sum(
            1
            for example in dataset.examples
            if task.classify(result.model, example) == (1 if example.label > 0 else -1)
        )
        assert correct / len(dataset) > 0.85


class TestLasso:
    def test_lasso_produces_sparser_model_than_plain_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.zeros(20)
        true_w[:3] = [2.0, -1.5, 1.0]
        examples = []
        for _ in range(200):
            x = rng.normal(size=20)
            examples.append(SupervisedExample(x, float(x @ true_w) + 0.05 * rng.normal()))
        lasso = LassoTask(20, mu=0.5)
        plain = LinearRegressionTask(20)
        lasso_result = train_in_memory(lasso, examples, epochs=20, step_size=0.02, seed=0)
        plain_result = train_in_memory(plain, examples, epochs=20, step_size=0.02, seed=0)
        lasso_small = np.sum(np.abs(lasso_result.model["w"]) < 1e-3)
        plain_small = np.sum(np.abs(plain_result.model["w"]) < 1e-3)
        assert lasso_small > plain_small

    def test_lasso_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            LassoTask(5, mu=-0.1)

    def test_penalty_is_mu_times_l1_norm(self):
        task = LassoTask(2, mu=1.0)
        model = Model({"w": np.array([1.0, -1.0])})
        assert task.proximal.penalty(model) == pytest.approx(2.0)
