"""Tests for the Bismarck epoch-loop driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FixedEpochs,
    IGDAggregate,
    IGDConfig,
    PureUDAParallelism,
    SharedMemoryParallelism,
    ToleranceToOptimum,
    train,
    train_in_memory,
)
from repro.core.driver import BismarckRunner
from repro.data import load_classification_table, make_dense_classification
from repro.db import Database, SegmentedDatabase
from repro.tasks import LogisticRegressionTask, SVMTask


@pytest.fixture
def workload():
    dataset = make_dense_classification(150, 6, seed=3)
    return dataset


@pytest.fixture
def serial_db(workload):
    database = Database("postgres", seed=0)
    load_classification_table(database, "papers", workload.examples, sparse=False)
    return database


@pytest.fixture
def segmented_db(workload):
    database = SegmentedDatabase(4, "dbms_b", seed=0)
    load_classification_table(database, "papers", workload.examples, sparse=False)
    return database


class TestSerialTraining:
    def test_objective_decreases(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(task, serial_db, "papers", max_epochs=5, step_size=0.1)
        trace = result.objective_trace()
        assert len(trace) == 5
        assert trace[-1] < trace[0]
        assert result.epochs_run == 5
        assert result.parallelism_name == "serial"

    def test_histories_record_steps_and_norms(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(task, serial_db, "papers", max_epochs=3, step_size=0.1)
        assert [r.gradient_steps for r in result.history] == [150, 300, 450]
        assert all(r.model_norm > 0 for r in result.history)

    def test_stopping_rule_halts_early(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(
            task,
            serial_db,
            "papers",
            max_epochs=30,
            step_size=0.1,
            stopping={"kind": "relative", "tolerance": 0.05, "patience": 1},
        )
        assert result.converged
        assert result.epochs_run < 30

    def test_tolerance_to_optimum_stopping(self, serial_db):
        task = LogisticRegressionTask(6)
        reference = train(task, serial_db, "papers", max_epochs=10, step_size=0.1)
        optimum = reference.final_objective
        result = train(
            task,
            serial_db,
            "papers",
            max_epochs=50,
            step_size=0.1,
            stopping=ToleranceToOptimum(optimum=optimum, tolerance=0.05),
        )
        assert result.converged
        assert result.final_objective <= optimum * 1.06

    def test_initial_model_continuation(self, serial_db):
        task = LogisticRegressionTask(6)
        first = train(task, serial_db, "papers", max_epochs=3, step_size=0.1)
        second = train(
            task, serial_db, "papers", max_epochs=1, step_size=0.1,
            initial_model=first.model,
        )
        assert second.final_objective <= first.final_objective * 1.05

    def test_compute_objective_false_skips_loss(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(
            task, serial_db, "papers", max_epochs=2, step_size=0.1, compute_objective=False
        )
        assert all(np.isnan(record.objective) for record in result.history)

    def test_ordering_recorded(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(task, serial_db, "papers", max_epochs=2, ordering="clustered")
        assert result.ordering_name == "clustered"
        result = train(task, serial_db, "papers", max_epochs=2, ordering="shuffle_always")
        assert result.ordering_name == "shuffle_always"
        assert result.shuffle_seconds > 0

    def test_time_and_epoch_to_reach(self, serial_db):
        task = LogisticRegressionTask(6)
        result = train(task, serial_db, "papers", max_epochs=5, step_size=0.1)
        target = result.objective_trace()[2]
        assert result.epochs_to_reach(target) <= 3
        assert result.time_to_reach(target) is not None
        assert result.epochs_to_reach(-1.0) is None
        assert result.time_to_reach(-1.0) is None

    def test_config_override_merging(self, serial_db):
        task = LogisticRegressionTask(6)
        config = IGDConfig(step_size=0.1, max_epochs=10)
        result = train(task, serial_db, "papers", config=config, max_epochs=2)
        assert result.epochs_run == 2

    @pytest.mark.parametrize("build", [
        lambda: IGDConfig(batch_size=4),
        lambda: IGDAggregate(LogisticRegressionTask(6), 0.1, batch_size=4),
    ], ids=["IGDConfig", "IGDAggregate"])
    def test_batch_size_is_not_an_option(self, build):
        """IGD takes one gradient step per tuple; no option trades that for
        averaged mini-batch steps, and none is silently ignored."""
        with pytest.raises(TypeError, match="batch_size"):
            build()


class TestParallelTraining:
    def test_pure_uda_requires_segmented_db(self, serial_db):
        task = LogisticRegressionTask(6)
        with pytest.raises(TypeError):
            train(task, serial_db, "papers", max_epochs=1, parallelism=PureUDAParallelism())

    def test_pure_uda_on_segments(self, segmented_db):
        task = LogisticRegressionTask(6)
        result = train(
            task, segmented_db, "papers", max_epochs=4, step_size=0.1,
            parallelism=PureUDAParallelism(),
        )
        assert result.parallelism_name == "pure_uda"
        assert result.objective_trace()[-1] < result.objective_trace()[0]

    @pytest.mark.parametrize("scheme", ["lock", "aig", "nolock"])
    def test_shared_memory_schemes(self, serial_db, scheme):
        task = LogisticRegressionTask(6)
        result = train(
            task, serial_db, "papers", max_epochs=3, step_size=0.1,
            parallelism=SharedMemoryParallelism(scheme=scheme, workers=4),
        )
        assert result.parallelism_name == f"shared_memory[{scheme}x4]"
        assert result.objective_trace()[-1] < result.objective_trace()[0]

    def test_shared_memory_converges_better_than_pure_uda(self, segmented_db):
        """Figure 9(A)'s key claim at unit-test scale."""
        task = SVMTask(6)
        pure = train(
            task, segmented_db, "papers", max_epochs=3, step_size=0.1,
            ordering="clustered", parallelism=PureUDAParallelism(),
        )
        shm = train(
            SVMTask(6), segmented_db, "papers", max_epochs=3, step_size=0.1,
            ordering="clustered",
            parallelism=SharedMemoryParallelism(scheme="nolock", workers=4),
        )
        assert shm.final_objective <= pure.final_objective * 1.2

    def test_serial_on_segmented_master(self, segmented_db):
        task = LogisticRegressionTask(6)
        result = train(task, segmented_db, "papers", max_epochs=2, step_size=0.1)
        assert result.epochs_run == 2


class TestInMemoryTraining:
    def test_in_memory_matches_interface(self, workload):
        task = LogisticRegressionTask(6)
        result = train_in_memory(task, workload.examples, epochs=4, step_size=0.1, seed=0)
        assert result.parallelism_name == "in_memory"
        assert len(result.history) == 4
        assert result.objective_trace()[-1] < result.objective_trace()[0]

    def test_in_memory_no_shuffle_keeps_order_name(self, workload):
        task = LogisticRegressionTask(6)
        result = train_in_memory(task, workload.examples, epochs=1, shuffle=False)
        assert result.ordering_name == "as_given"

    def test_runner_reuse(self, serial_db):
        task = LogisticRegressionTask(6)
        runner = BismarckRunner(serial_db, task, IGDConfig(step_size=0.1, max_epochs=2))
        first = runner.train("papers")
        second = runner.train("papers")
        assert first.epochs_run == second.epochs_run == 2
