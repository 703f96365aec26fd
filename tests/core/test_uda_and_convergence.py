"""Tests for the IGD aggregate, loss aggregate and stopping rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AnyOf,
    DiminishingStepSize,
    EpochRecord,
    FixedEpochs,
    IGDAggregate,
    LossAggregate,
    Model,
    ObjectiveThreshold,
    RelativeImprovement,
    ToleranceToOptimum,
    make_stopping_rule,
)
from repro.core.uda import AccuracyAggregate
from repro.data import load_catx_table, make_catx
from repro.db import Database
from repro.tasks import (
    LogisticRegressionTask,
    OneDimensionalLeastSquares,
    SupervisedExample,
)


@pytest.fixture
def catx_db():
    database = Database("postgres", seed=0)
    load_catx_table(database, "catx", make_catx(50).examples)
    return database


class TestIGDAggregate:
    def test_runs_one_epoch_over_table(self, catx_db):
        task = OneDimensionalLeastSquares()
        aggregate = IGDAggregate(task, 0.1)
        model = catx_db.run_aggregate("catx", aggregate)
        assert isinstance(model, Model)
        assert model.metadata["gradient_steps"] == 100
        assert model.metadata["epoch"] == 0

    def test_initial_model_is_respected(self, catx_db):
        task = OneDimensionalLeastSquares()
        start = task.initial_model()
        start["w"][0] = 123.0
        aggregate = IGDAggregate(task, 0.0001, initial_model=start)
        model = catx_db.run_aggregate("catx", aggregate)
        # Tiny step size: the model should stay near its starting point.
        assert model["w"][0] == pytest.approx(123.0, rel=0.1)
        # And the caller's model object must not be mutated.
        assert start["w"][0] == 123.0

    def test_transition_accepts_raw_examples(self):
        task = OneDimensionalLeastSquares()
        aggregate = IGDAggregate(task, 0.5)
        state = aggregate.initialize()
        state = aggregate.transition(state, SupervisedExample(1.0, 2.0))
        assert state.gradient_steps == 1
        assert state.model["w"][0] == pytest.approx(1.0)

    def test_merge_is_step_weighted_average(self):
        task = OneDimensionalLeastSquares()
        aggregate = IGDAggregate(task, 0.5)
        state_a = aggregate.initialize()
        state_b = aggregate.initialize()
        state_a.model["w"][0] = 2.0
        state_a.gradient_steps = 30
        state_b.model["w"][0] = -1.0
        state_b.gradient_steps = 10
        merged = aggregate.merge(state_a, state_b)
        assert merged.gradient_steps == 40
        assert merged.model["w"][0] == pytest.approx((2.0 * 30 - 1.0 * 10) / 40)

    def test_merge_with_zero_steps(self):
        task = OneDimensionalLeastSquares()
        aggregate = IGDAggregate(task, 0.5)
        merged = aggregate.merge(aggregate.initialize(), aggregate.initialize())
        assert merged.gradient_steps == 0

    def test_later_epoch_continues_the_step_count(self):
        """A follow-up epoch's aggregate indexes the schedule past the steps
        already taken, so a diminishing step size keeps diminishing."""
        task = OneDimensionalLeastSquares()
        aggregate = IGDAggregate(
            task, DiminishingStepSize(alpha0=1.0), epoch=3, step_offset=3
        )
        state = aggregate.initialize()
        assert (state.epoch, state.step_offset) == (3, 3)
        state = aggregate.transition(state, SupervisedExample(1.0, 2.0))
        # alpha_3 = 1 / 4, half the 0.5 step that lands on w = 1.0.
        assert state.model["w"][0] == pytest.approx(0.5)
        model = aggregate.terminate(state)
        assert model.metadata["gradient_steps"] == 4
        assert model.metadata["epoch"] == 3

    def test_proximal_applied_each_step(self):
        from repro.core import L1Proximal

        task = OneDimensionalLeastSquares(proximal=L1Proximal(mu=100.0))
        aggregate = IGDAggregate(task, 0.1)
        state = aggregate.initialize()
        state = aggregate.transition(state, SupervisedExample(1.0, 1.0))
        # The huge L1 penalty clamps the weight straight back to zero.
        assert state.model["w"][0] == pytest.approx(0.0)


class TestLossAndAccuracyAggregates:
    def test_loss_aggregate_sums_losses(self, catx_db):
        task = OneDimensionalLeastSquares()
        model = task.initial_model()  # w = 0 -> loss 0.5 per example
        total = catx_db.run_aggregate("catx", LossAggregate(task, model))
        assert total == pytest.approx(0.5 * 100)

    def test_loss_aggregate_merge(self):
        task = OneDimensionalLeastSquares()
        model = task.initial_model()
        aggregate = LossAggregate(task, model)
        a = aggregate.transition(aggregate.initialize(), SupervisedExample(1.0, 1.0))
        b = aggregate.transition(aggregate.initialize(), SupervisedExample(1.0, -1.0))
        assert aggregate.terminate(aggregate.merge(a, b)) == pytest.approx(1.0)

    def test_accuracy_aggregate(self):
        task = LogisticRegressionTask(2)
        model = Model({"w": np.array([1.0, 0.0])})
        aggregate = AccuracyAggregate(task, model)
        examples = [
            SupervisedExample(np.array([1.0, 0.0]), 1.0),
            SupervisedExample(np.array([-1.0, 0.0]), -1.0),
            SupervisedExample(np.array([1.0, 0.0]), -1.0),
        ]
        state = aggregate.initialize()
        for example in examples:
            state = aggregate.transition(state, example)
        assert aggregate.terminate(state) == pytest.approx(2 / 3)

    def test_accuracy_aggregate_requires_classifier(self):
        task = OneDimensionalLeastSquares()
        with pytest.raises(TypeError):
            AccuracyAggregate(task, task.initial_model())


def _history(*objectives: float) -> list[EpochRecord]:
    return [
        EpochRecord(epoch=i, objective=value, elapsed_seconds=0.1, gradient_steps=(i + 1) * 10)
        for i, value in enumerate(objectives)
    ]


class TestStoppingRules:
    def test_fixed_epochs(self):
        rule = FixedEpochs(3)
        assert not rule.should_stop(_history(5, 4))
        assert rule.should_stop(_history(5, 4, 3))

    def test_fixed_epochs_validation(self):
        with pytest.raises(ValueError):
            FixedEpochs(0)

    def test_relative_improvement(self):
        rule = RelativeImprovement(tolerance=0.01, patience=1, min_epochs=2)
        assert not rule.should_stop(_history(100, 50))
        assert rule.should_stop(_history(100, 50, 49.9))

    def test_relative_improvement_patience(self):
        rule = RelativeImprovement(tolerance=0.01, patience=2, min_epochs=2)
        assert not rule.should_stop(_history(100, 99.99, 50))
        assert rule.should_stop(_history(100, 50, 49.99, 49.98))

    def test_objective_threshold(self):
        rule = ObjectiveThreshold(target=10.0)
        assert not rule.should_stop(_history(20, 15))
        assert rule.should_stop(_history(20, 9.9))

    def test_tolerance_to_optimum(self):
        rule = ToleranceToOptimum(optimum=100.0, tolerance=1e-3)
        assert rule.threshold() == pytest.approx(100.1)
        assert not rule.should_stop(_history(101))
        assert rule.should_stop(_history(100.05))

    def test_any_of(self):
        rule = AnyOf(FixedEpochs(5), ObjectiveThreshold(target=1.0))
        assert rule.should_stop(_history(0.5))
        assert rule.should_stop(_history(10, 10, 10, 10, 10))
        assert not rule.should_stop(_history(10, 10))

    def test_any_of_requires_rules(self):
        with pytest.raises(ValueError):
            AnyOf()

    def test_make_stopping_rule_coercions(self):
        assert isinstance(make_stopping_rule(None, max_epochs=7), FixedEpochs)
        assert isinstance(make_stopping_rule(5), FixedEpochs)
        rule = make_stopping_rule({"kind": "tolerance", "optimum": 1.0, "tolerance": 0.01})
        assert isinstance(rule, ToleranceToOptimum)
        existing = FixedEpochs(2)
        assert make_stopping_rule(existing) is existing

    def test_make_stopping_rule_unknown_kind(self):
        with pytest.raises(ValueError):
            make_stopping_rule({"kind": "psychic"})
