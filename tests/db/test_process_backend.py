"""Tests for the real multi-process execution backend.

Determinism contract under test (the ISSUE-4 acceptance bar):

* pure-UDA (model-averaging) process runs are **bit-for-bit identical** to
  the in-process backends for a fixed seed and worker count;
* the racy shared-memory schemes are pinned by statistical objective-band
  assertions (their nondeterminism is the mechanism being reproduced);
* no shared-memory segments leak, pools reap their workers, and the arena
  lifecycle (context manager, idempotent free) holds under the process
  backend too.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.uda import IGDAggregate, LossAggregate
from repro.data import (
    load_classification_table,
    load_sequences_table,
    make_sequences,
    make_sparse_classification,
)
from repro.db import Database, ExecutionError, ProcessWorkerPool, SegmentedDatabase
from repro.db.process_backend import run_process_aggregate
from repro.tasks.crf import ConditionalRandomFieldTask
from repro.tasks.logistic_regression import LogisticRegressionTask

pytestmark = pytest.mark.backends


@pytest.fixture(scope="module")
def lr_workload():
    dataset = make_sparse_classification(90, 50, nonzeros_per_example=5, seed=11)
    return dataset, LogisticRegressionTask(dataset.dimension)


@pytest.fixture(scope="module")
def crf_workload():
    corpus = make_sequences(12, num_labels=3, seed=5)
    return corpus, lambda: ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)


def _shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestPureUDAProcessParity:
    def test_lr_bit_for_bit_vs_in_process(self, lr_workload):
        dataset, task = lr_workload
        results = {}
        for backend in ("in_process", "process"):
            database = SegmentedDatabase(3, "dbms_b", seed=0)
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            results[backend] = train(
                task,
                database,
                "pts",
                config=IGDConfig(
                    max_epochs=3,
                    ordering="shuffle_once",
                    parallelism=PureUDAParallelism(backend=backend),
                    seed=0,
                ),
            )
            database.close_process_pools()
        a, b = results["in_process"], results["process"]
        assert np.array_equal(a.model.as_flat_vector(), b.model.as_flat_vector())
        assert a.objective_trace() == b.objective_trace()
        assert b.parallelism_name == "pure_uda+process"

    def test_crf_bit_for_bit_vs_in_process(self, crf_workload):
        corpus, make_task = crf_workload
        vectors = []
        for backend in ("in_process", "process"):
            database = SegmentedDatabase(2, "dbms_b", seed=0)
            load_sequences_table(database, "conll_like", corpus.examples)
            run = train(
                make_task(),
                database,
                "conll_like",
                config=IGDConfig(
                    max_epochs=2,
                    ordering="shuffle_once",
                    parallelism=PureUDAParallelism(backend=backend),
                    seed=0,
                ),
            )
            database.close_process_pools()
            vectors.append(run.model.as_flat_vector())
        assert np.array_equal(vectors[0], vectors[1])

    @pytest.mark.parametrize("backend", ["in_process", "process"])
    def test_merge_count_is_segments_minus_one(self, lr_workload, backend):
        """Both backends merge through merge_partial_states: n - 1 merges."""
        dataset, task = lr_workload
        with SegmentedDatabase(3, "dbms_b", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            outcome = database.run_parallel_aggregate(
                "pts", lambda: IGDAggregate(task, 0.1), backend=backend
            )
        assert outcome.num_segments == 3
        assert outcome.merges == 2
        assert outcome.total_tuples == len(dataset.examples)

    def test_process_backend_refuses_per_tuple(self, lr_workload):
        dataset, task = lr_workload
        database = SegmentedDatabase(2, "dbms_b", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        with pytest.raises(ExecutionError):
            database.run_parallel_aggregate(
                "pts",
                lambda: IGDAggregate(task, 0.1),
                execution="per_tuple",
                backend="process",
            )
        database.close_process_pools()


class TestExecutorProcessBackend:
    def test_loss_aggregate_matches_serial(self, lr_workload):
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        model = task.initial_model()
        serial = database.run_aggregate("pts", LossAggregate(task, model), execution="auto")
        with ProcessWorkerPool(3) as pool:
            parallel = run_process_aggregate(
                database.executor, database.table("pts"), LossAggregate(task, model),
                pool=pool, execution="auto",
            )
        assert parallel == pytest.approx(serial, rel=1e-12)

    def test_igd_matches_segmented_bit_for_bit(self, lr_workload):
        """Executor process partitions == a segmented run with equal segments."""
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        segmented = SegmentedDatabase(4, "dbms_b", seed=0)
        load_classification_table(segmented, "pts", dataset.examples, sparse=True)
        aggregate = lambda: IGDAggregate(task, 0.1)  # noqa: E731
        reference = segmented.run_parallel_aggregate("pts", aggregate).value
        with ProcessWorkerPool(4) as pool:
            model = run_process_aggregate(
                database.executor, database.table("pts"), aggregate(),
                pool=pool, execution="auto",
            )
        assert np.array_equal(
            model.as_flat_vector(), reference.as_flat_vector()
        )

    def test_row_order_and_where_compose(self, lr_workload):
        from repro.db.expressions import BinaryOp, ColumnRef, Literal

        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        table = database.table("pts")
        predicate = BinaryOp("<", ColumnRef("id"), Literal(60))
        order = np.random.default_rng(3).permutation(len(table))
        model_serial = database.run_aggregate(
            "pts", IGDAggregate(task, 0.1), where=predicate, row_order=order,
            execution="auto",
        )
        # One worker: the process partition is the full serial visit order,
        # so the filtered + permuted pass must be bit-for-bit the serial one.
        with ProcessWorkerPool(1) as pool:
            model_process = run_process_aggregate(
                database.executor, table, IGDAggregate(task, 0.1), pool=pool,
                where=predicate, row_order=order, execution="auto",
            )
        assert np.array_equal(
            model_serial.as_flat_vector(), model_process.as_flat_vector()
        )

    def test_per_tuple_execution_refused(self, lr_workload):
        """Matches the driver/SegmentedDatabase contract and the docs."""
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        model = task.initial_model()
        with database:
            with pytest.raises(ExecutionError, match="per-tuple"):
                database.run_aggregate(
                    "pts", LossAggregate(task, model),
                    execution="per_tuple", backend="process", process_workers=2,
                )

    def test_non_mergeable_aggregate_raises(self, lr_workload):
        from repro.db import FunctionalAggregate

        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        counter = FunctionalAggregate(initialize=int, transition=lambda s, v: s + 1)
        with ProcessWorkerPool(2) as pool:
            with pytest.raises(ExecutionError):
                run_process_aggregate(
                    database.executor, database.table("pts"), counter,
                    pool=pool, execution="auto",
                )


class TestSharedMemoryProcessSchemes:
    @pytest.mark.parametrize("scheme", ["nolock", "aig", "lock"])
    def test_scheme_converges_within_band(self, scheme, lr_workload):
        """Racy schemes: statistical (objective-band) assertions only."""
        dataset, task = lr_workload
        serial_db = Database("postgres", seed=0)
        load_classification_table(serial_db, "pts", dataset.examples, sparse=True)
        serial = train(
            task, serial_db, "pts",
            config=IGDConfig(max_epochs=4, ordering="shuffle_once", seed=0),
        )
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        run = train(
            task,
            database,
            "pts",
            config=IGDConfig(
                max_epochs=4,
                ordering="shuffle_once",
                parallelism=SharedMemoryParallelism(scheme=scheme, workers=2, backend="process"),
                seed=0,
            ),
        )
        database.close_process_pools()
        assert run.parallelism_name == f"shared_memory[{scheme}x2]+process"
        # The run must genuinely train (objective drops) and land in a band
        # around the serial optimum despite the racy update schedule.
        assert run.objective_trace()[-1] < run.objective_trace()[0]
        assert run.final_objective < serial.objective_trace()[0]
        assert run.final_objective <= serial.final_objective * 1.5
        # Epoch step accounting: every example contributed one step per epoch.
        assert run.history[-1].gradient_steps == 4 * len(dataset.examples)

    def test_logical_shuffle_ships_payload_once(self, lr_workload):
        """shuffle_always re-orders epochs without re-shipping examples."""
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        run = train(
            task,
            database,
            "pts",
            config=IGDConfig(
                max_epochs=3,
                ordering="shuffle_always",
                parallelism=SharedMemoryParallelism(scheme="nolock", workers=2, backend="process"),
                seed=0,
            ),
        )
        pool = database.process_pool(2)
        # Three epochs with three distinct logical permutations ship exactly
        # two payloads per worker: the decoded example list for the gradient
        # epochs and the columnar chunk list for the (now pool-backed) loss
        # passes — each pickled once per (table, version), never re-shipped.
        kinds = sorted({key[0] for (_worker, key) in pool._loaded})
        assert kinds == ["batches", "examples"]
        assert len({key for (_worker, key) in pool._loaded}) == 2
        assert len(pool._loaded) <= 4
        database.close_process_pools()
        assert run.epochs_run == 3

    def test_per_tuple_execution_rejected(self, lr_workload):
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        with pytest.raises(ValueError):
            train(
                task, database, "pts",
                config=IGDConfig(
                    max_epochs=1,
                    execution="per_tuple",
                    parallelism=SharedMemoryParallelism(scheme="nolock", workers=2, backend="process"),
                    seed=0,
                ),
            )


class TestLifecycle:
    def test_no_segment_leak_after_runs(self, lr_workload):
        dataset, task = lr_workload
        before = _shm_entries()
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        train(
            task, database, "pts",
            config=IGDConfig(
                max_epochs=2,
                parallelism=SharedMemoryParallelism(scheme="nolock", workers=2, backend="process"),
                seed=0,
            ),
        )
        database.close_process_pools()
        assert database.shared_memory.names() == []
        assert _shm_entries() <= before

    def test_pool_close_is_idempotent_and_reaps_workers(self):
        pool = ProcessWorkerPool(2)
        pids = list(pool.run({0: ("ping",), 1: ("ping",)}).values())
        assert len(set(pids)) == 2
        pool.close()
        pool.close()
        assert all(not proc.is_alive() for proc in pool._procs)
        with pytest.raises(ExecutionError):
            pool.run({0: ("ping",)})

    def test_worker_error_propagates(self):
        with ProcessWorkerPool(1) as pool:
            with pytest.raises(ExecutionError, match="nonexistent_payload"):
                pool.run({0: ("uda_state", "nonexistent_payload", None, None)})

    def test_pool_stays_usable_after_worker_error(self):
        """A worker-side exception must not desync the persistent pool."""
        with ProcessWorkerPool(2) as pool:
            with pytest.raises(ExecutionError, match="missing_payload"):
                pool.run({0: ("uda_state", "missing_payload", None, None), 1: ("ping",)})
            # Worker 1's reply to the failed round was drained along with the
            # failure, so the next command must pair with fresh replies — not
            # consume stale buffered ones as its own.
            replies = pool.run({0: ("ping",), 1: ("ping",)})
            assert all(isinstance(pid, int) for pid in replies.values())
            assert len(replies) == 2

    def test_worker_failure_does_not_leak_segments(self, lr_workload):
        """A failing epoch command still frees the model segment."""
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        from repro.db.process_backend import run_process_shared_memory_epoch

        spec = SharedMemoryParallelism(scheme="nolock", workers=2, backend="process")
        pool = database.process_pool(2)
        pool.close()  # dead pool -> the epoch must fail, not hang
        with pytest.raises(ExecutionError):
            run_process_shared_memory_epoch(
                database.table("pts"), task, task.initial_model(), 0.1,
                spec=spec, pool=pool, arena=database.shared_memory,
                cache=database.executor.example_cache,
            )
        assert database.shared_memory.names() == []
        database.close_process_pools()


class TestMeasuredSpeedupSmoke:
    def test_measured_mode_runs_on_any_host(self):
        """The measured Figure 9B path must function even on one core."""
        from repro.experiments.parallelism import run_speedup_experiment

        result = run_speedup_experiment("small", max_workers=2, epochs_per_point=1)
        assert result.worker_counts == [1, 2]
        for scheme in ("pure_uda", "lock", "aig", "nolock"):
            assert len(result.speedups[scheme]) == 2
            assert all(value > 0 for value in result.speedups[scheme])
        assert result.bench_payload()["cores"] >= 1
