"""Tests for epoch-adaptive batch schedules and their driver integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchSchedule, IGDConfig, make_batch_schedule, train
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database
from repro.tasks import LogisticRegressionTask


class TestBatchSchedule:
    def test_constant_schedule(self):
        schedule = BatchSchedule(initial=4)
        assert [schedule.batch_size(e) for e in range(4)] == [4, 4, 4, 4]
        assert schedule.max_batch_size(10) == 4

    def test_geometric_growth_with_cap(self):
        schedule = BatchSchedule(initial=1, growth=2.0, cap=8)
        assert [schedule.batch_size(e) for e in range(6)] == [1, 2, 4, 8, 8, 8]
        assert schedule.max_batch_size(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchSchedule(initial=0)
        with pytest.raises(ValueError):
            BatchSchedule(initial=1, growth=0.5)
        with pytest.raises(ValueError):
            BatchSchedule(initial=8, cap=4)
        with pytest.raises(ValueError):
            BatchSchedule(initial=1).batch_size(-1)

    def test_batch_sizes_round_per_epoch(self):
        assert BatchSchedule(initial=1, growth=1.4).batch_size(2) == 2  # round(1.96)
        assert BatchSchedule(initial=1, growth=1.5).batch_size(1) == 2  # round(1.5)

    def test_uncapped_growth_saturates_instead_of_overflowing(self):
        schedule = BatchSchedule(initial=1, growth=10.0)
        assert schedule.batch_size(400) == schedule.batch_size(500) > 10**9
        assert schedule.max_batch_size(2000) == schedule.batch_size(400)
        IGDConfig(batch_size=schedule, max_epochs=1500)  # validates without overflow

    def test_make_batch_schedule_coercions(self):
        assert make_batch_schedule(3) == BatchSchedule(initial=3)
        assert make_batch_schedule({"initial": 2, "growth": 1.5}) == BatchSchedule(2, 1.5)
        schedule = BatchSchedule(initial=2)
        assert make_batch_schedule(schedule) is schedule
        with pytest.raises(TypeError):
            make_batch_schedule(2.5)
        with pytest.raises(TypeError):
            make_batch_schedule(True)


class TestDriverIntegration:
    @pytest.fixture()
    def workload(self):
        dataset = make_sparse_classification(60, 40, nonzeros_per_example=5, seed=2)
        return dataset, LogisticRegressionTask(dataset.dimension)

    def test_growth_schedule_trains_and_reduces_steps(self, workload):
        dataset, task = workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "docs", dataset.examples, sparse=True)
        run = train(
            task, database, "docs",
            config=IGDConfig(
                step_size=0.05, max_epochs=4, ordering="shuffle_once", seed=0,
                batch_size=BatchSchedule(initial=1, growth=4.0, cap=16),
            ),
        )
        assert run.epochs_run == 4
        assert all(np.isfinite(run.objective_trace()))
        # Epoch batch sizes 1, 4, 16, 16 -> step counts n, ceil(n/4), ...
        n = len(dataset.examples)
        per_epoch = [
            run.history[0].gradient_steps,
            run.history[1].gradient_steps - run.history[0].gradient_steps,
            run.history[2].gradient_steps - run.history[1].gradient_steps,
            run.history[3].gradient_steps - run.history[2].gradient_steps,
        ]
        assert per_epoch[0] == n
        assert per_epoch[1] == -(-n // 4)
        assert per_epoch[2] == per_epoch[3] == -(-n // 16)

    def test_first_epoch_matches_exact_igd(self, workload):
        """A growth schedule starting at 1 begins bit-for-bit as exact IGD."""
        dataset, task = workload
        runs = {}
        for name, batch_size in (
            ("exact", 1),
            ("growth", BatchSchedule(initial=1, growth=8.0)),
        ):
            database = Database("postgres", seed=0)
            load_classification_table(database, "docs", dataset.examples, sparse=True)
            runs[name] = train(
                task, database, "docs",
                config=IGDConfig(
                    step_size=0.05, max_epochs=1, ordering="shuffle_once", seed=0,
                    batch_size=batch_size,
                ),
            )
        assert np.array_equal(
            runs["exact"].model.as_flat_vector(), runs["growth"].model.as_flat_vector()
        )

    def test_schedule_refused_with_shared_memory(self, workload):
        schedule = BatchSchedule(initial=1, growth=2.0)
        from repro.core import SharedMemoryParallelism

        with pytest.raises(ValueError, match="serial"):
            IGDConfig(
                batch_size=schedule, max_epochs=4,
                parallelism=SharedMemoryParallelism(scheme="nolock", workers=2),
            )
