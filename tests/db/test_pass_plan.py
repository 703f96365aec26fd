"""Tests for the backend-neutral pass-compilation layer (PassPlan).

The contract under test (the ISSUE-5 acceptance bar):

* process-backed loss/accuracy passes and generic (non-task) aggregates are
  **bit-for-bit equal to their serial counterparts** — the serial backend
  executing the *same plan* (same partitions, same per-item operations, same
  left-to-right merge), and, for integer-state and single-partition plans,
  the plain serial pass itself;
* WHERE and ``row_order`` compose on every path exactly like the chunk plane;
* a whole-loop ``backend="process"`` training run matches the in-process
  pure-UDA model exactly;
* engines release their worker pools and shared-memory segments
  deterministically (``close()`` / context manager), not just via ``atexit``.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.uda import AccuracyAggregate, IGDAggregate, LossAggregate
from repro.data import load_classification_table, make_sparse_classification
from repro.db import (
    Database,
    ExecutionError,
    FunctionalAggregate,
    ProcessBackend,
    SegmentedDatabase,
    SerialBackend,
    compile_pass,
)
from repro.db.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.tasks.logistic_regression import LogisticRegressionTask

pytestmark = pytest.mark.backends


@pytest.fixture(scope="module")
def workload():
    dataset = make_sparse_classification(120, 60, nonzeros_per_example=6, seed=3)
    return dataset, LogisticRegressionTask(dataset.dimension)


def make_database(dataset, *, chunk_size: int | None = 16) -> Database:
    database = Database("postgres", seed=0)
    load_classification_table(database, "pts", dataset.examples, sparse=True)
    if chunk_size is not None:
        # Several chunks, so chunk partitioning has real slack to deal out.
        database.executor.chunk_size = chunk_size
    return database


def _shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestCompilePass:
    def test_rejects_unknown_kind_width_and_missing_context(self, workload):
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            factory = lambda: LossAggregate(task, task.initial_model())  # noqa: E731
            with pytest.raises(ExecutionError, match="pass kind"):
                compile_pass("metrics", table, factory)
            with pytest.raises(ExecutionError, match="workers"):
                compile_pass("loss", table, factory, workers=0)
            with pytest.raises(ExecutionError, match="TrainEpochContext"):
                compile_pass("train", table, factory)

    def test_merge_contract_probed_from_factory(self, workload):
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            loss_plan = compile_pass(
                "loss", table, lambda: LossAggregate(task, task.initial_model())
            )
            assert loss_plan.mergeable and loss_plan.chunk_partitionable
            igd_plan = compile_pass("generic", table, lambda: IGDAggregate(task, 0.1))
            # IGD merges but is order-sensitive: never chunk-partitioned.
            assert igd_plan.mergeable and not igd_plan.chunk_partitionable

    def test_stale_plan_refused_after_physical_mutation(self, workload):
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            plan = compile_pass(
                "loss", table, lambda: LossAggregate(task, task.initial_model())
            )
            table.shuffle(np.random.default_rng(0))
            with pytest.raises(ExecutionError, match="stale PassPlan"):
                SerialBackend(database).run(plan)


def _compile_kind(kind, table, task):
    """A minimal plan of every PASS_KINDS member for revalidation tests."""
    from repro.core.stepsize import make_schedule
    from repro.db.pass_plan import TrainEpochContext

    if kind == "train":
        return compile_pass(
            "train",
            table,
            lambda: IGDAggregate(task, 0.1),
            train=TrainEpochContext(
                task=task,
                model=task.initial_model(),
                schedule=make_schedule(0.1),
                proximal=task.proximal,
            ),
        )
    factories = {
        "loss": lambda: LossAggregate(task, task.initial_model()),
        "accuracy": lambda: AccuracyAggregate(task, task.initial_model()),
        "generic": lambda: FunctionalAggregate(
            initialize=int, transition=lambda s, v: s + 1, merge=lambda a, b: a + b
        ),
    }
    return compile_pass(kind, table, factories[kind])


class TestRevalidate:
    """The append-aware version contract: every pass kind refreshes across
    append deltas and refuses rewrites with the ledger's mutating op named."""

    KINDS = ("train", "loss", "accuracy", "generic")

    @pytest.mark.parametrize("kind", KINDS)
    def test_append_delta_refreshes_plan_in_place(self, kind, workload):
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            plan = _compile_kind(kind, table, task)
            compiled_version, compiled_rows = plan.version, plan.num_rows
            table.insert((900, {0: 1.0}, 1.0))
            table.insert_many([(901, {1: 1.0}, -1.0), (902, {2: 1.0}, 1.0)])
            assert plan.revalidate() is plan
            assert plan.version == table.version > compiled_version
            assert plan.num_rows == len(table) == compiled_rows + 3
            # Idempotent once refreshed.
            plan.revalidate()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "mutate, operation",
        [
            (lambda table: table.shuffle(np.random.default_rng(0)), "shuffle"),
            (lambda table: table.truncate(), "truncate"),
        ],
        ids=["shuffle", "truncate"],
    )
    def test_rewrite_delta_refused_naming_ledger_op(
        self, kind, mutate, operation, workload
    ):
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            plan = _compile_kind(kind, table, task)
            mutate(table)
            with pytest.raises(
                ExecutionError,
                match=rf"stale PassPlan.*rewritten by '{operation}'",
            ):
                plan.revalidate()

    @pytest.mark.parametrize("kind", KINDS)
    def test_append_then_rewrite_still_refused(self, kind, workload):
        """A rewrite anywhere in the version range poisons the whole delta."""
        dataset, task = workload
        with make_database(dataset) as database:
            table = database.table("pts")
            plan = _compile_kind(kind, table, task)
            table.insert((900, {0: 1.0}, 1.0))
            table.shuffle(np.random.default_rng(0))
            table.insert((901, {1: 1.0}, -1.0))
            with pytest.raises(ExecutionError, match="rewritten by 'shuffle'"):
                plan.revalidate()


class TestProcessLossAccuracyParity:
    def test_chunk_partitioned_loss_bit_for_bit_vs_serial_plan(self, workload):
        """Process chunk partitions == the serial backend on the same plan."""
        dataset, task = workload
        model = task.initial_model()
        with make_database(dataset) as database:
            table = database.table("pts")
            assert len(list(table.iter_chunks(database.executor.chunk_size))) > 2
            for workers in (1, 2, 3):
                plan = compile_pass(
                    "loss", table, lambda: LossAggregate(task, model), workers=workers
                )
                serial = SerialBackend(database).run(plan)
                process = ProcessBackend(database).run(plan)
                assert process == serial  # bit-for-bit, not approx

    def test_single_partition_loss_equals_plain_serial_pass(self, workload):
        """A one-worker plan degenerates to the plain serial chunked pass."""
        dataset, task = workload
        model = task.initial_model()
        with make_database(dataset) as database:
            plain = database.run_aggregate("pts", LossAggregate(task, model))
            plan = compile_pass(
                "loss", database.table("pts"),
                lambda: LossAggregate(task, model), workers=1,
            )
            assert ProcessBackend(database).run(plan) == plain

    def test_accuracy_process_equals_plain_serial_exactly(self, workload):
        """Integer-state reductions are exact under any partitioning."""
        dataset, task = workload
        model = task.initial_model()
        with make_database(dataset) as database:
            plain = database.run_aggregate("pts", AccuracyAggregate(task, model))
            for workers in (1, 2, 4):
                plan = compile_pass(
                    "accuracy", database.table("pts"),
                    lambda: AccuracyAggregate(task, model), workers=workers,
                )
                assert ProcessBackend(database).run(plan) == plain
                assert SerialBackend(database).run(plan) == plain

    def test_where_and_row_order_compose_bit_for_bit(self, workload):
        """Filtered + permuted loss passes: process == serial reference."""
        dataset, task = workload
        model = task.initial_model()
        predicate = BinaryOp("<", ColumnRef("id"), Literal(90))
        with make_database(dataset) as database:
            table = database.table("pts")
            order = np.random.default_rng(7).permutation(len(table))
            plan = compile_pass(
                "loss", table, lambda: LossAggregate(task, model),
                where=predicate, row_order=order, workers=3,
            )
            serial = SerialBackend(database).run(plan)
            process = ProcessBackend(database).run(plan)
            assert process == serial
            # One worker: the composed visit order is the serial per-tuple
            # order, so the pass equals the plain filtered+ordered pass.
            single = compile_pass(
                "loss", table, lambda: LossAggregate(task, model),
                where=predicate, row_order=order, workers=1,
            )
            reference = database.run_aggregate(
                "pts", LossAggregate(task, model),
                where=predicate, row_order=order, per_tuple=True,
            )
            assert ProcessBackend(database).run(single) == pytest.approx(reference, rel=1e-12)


class TestGenericProcessAggregates:
    @pytest.mark.parametrize("name", ["sum", "avg", "stddev", "count", "min", "max"])
    def test_builtin_bit_for_bit_vs_serial_plan(self, workload, name):
        dataset, _task = workload
        predicate = BinaryOp("<", ColumnRef("id"), Literal(100))
        with make_database(dataset, chunk_size=None) as database:
            table = database.table("pts")
            order = np.random.default_rng(5).permutation(len(table))
            for workers in (1, 3):
                plan = compile_pass(
                    "generic", table, lambda: database.aggregates.create(name),
                    argument=ColumnRef("id"), where=predicate, row_order=order,
                    workers=workers,
                )
                serial = SerialBackend(database).run(plan)
                process = ProcessBackend(database).run(plan)
                assert process == serial  # bit-for-bit, incl. float sums

    @pytest.mark.parametrize("name", ["count", "min", "max"])
    def test_order_free_builtins_equal_plain_serial(self, workload, name):
        """COUNT/MIN/MAX are exact under any partitioning, vs plain serial."""
        dataset, _task = workload
        with make_database(dataset, chunk_size=None) as database:
            plain = database.run_aggregate("pts", name, "id")
            value = database.run_aggregate(
                "pts", name, "id", backend="process",
                process_workers=3,
            )
            assert value == plain

    def test_udf_argument_ships_referenced_functions(self, workload):
        dataset, _task = workload
        with make_database(dataset, chunk_size=None) as database:
            database.register_function("halved", _halve)
            argument = FunctionCall("halved", (ColumnRef("id"),))
            plan = compile_pass(
                "generic", database.table("pts"),
                lambda: database.aggregates.create("sum"),
                argument=argument, workers=2,
            )
            serial = SerialBackend(database).run(plan)
            process = ProcessBackend(database).run(plan)
            assert process == serial

    def test_unpicklable_aggregate_fails_cleanly(self, workload):
        """A lambda-built aggregate errors clearly and leaves the pool usable."""
        dataset, _task = workload
        with make_database(dataset, chunk_size=None) as database:
            counter = FunctionalAggregate(
                initialize=int,
                transition=lambda s, v: s + 1,
                merge=lambda a, b: a + b,
            )
            with pytest.raises(ExecutionError, match="picklable"):
                database.run_aggregate(
                    "pts", counter, "id", backend="process",
                    process_workers=2,
                )
            # The failed scatter never desynced the pipes: the same pool
            # still serves a well-formed pass.
            assert database.run_aggregate(
                "pts", "count", "id", backend="process",
                process_workers=2,
            ) == len(dataset.examples)

    def test_explicit_chunked_request_errors_instead_of_degrading(self, workload):
        """One plan, two backends: the serial one folds a task that cannot
        batch per tuple; the pool, which folds chunks only, refuses it by
        name instead of degrading."""
        dataset, task = workload
        rows_task = type("Rows", (type(task),), {"supports_batches": False})(task.dimension)
        with make_database(dataset) as database:
            plan = compile_pass(
                "generic", database.table("pts"), lambda: IGDAggregate(rows_task, 0.1)
            )
            serial = SerialBackend(database).run(plan)
            reference = database.run_aggregate(
                "pts", IGDAggregate(rows_task, 0.1), per_tuple=True
            )
            assert np.array_equal(serial["w"], reference["w"])
            with pytest.raises(ExecutionError, match=r"cannot run chunked over table 'pts'"):
                ProcessBackend(database).run(plan)

    def test_non_mergeable_generic_refused(self, workload):
        dataset, _task = workload
        with make_database(dataset, chunk_size=None) as database:
            lonely = FunctionalAggregate(initialize=int, transition=lambda s, v: s + 1)
            with pytest.raises(ExecutionError, match="merge"):
                database.run_aggregate(
                    "pts", lonely, backend="process",
                    process_workers=2,
                )


def _halve(value):
    return value / 2.0


class TestWholeLoopParallelism:
    def test_process_run_matches_in_process_pure_uda_exactly(self, workload):
        """Whole-loop backend='process' == in-process pure-UDA, model-exact."""
        dataset, task = workload
        results = {}
        for backend in ("in_process", "process"):
            with SegmentedDatabase(3, "dbms_b", seed=0) as database:
                load_classification_table(database, "pts", dataset.examples, sparse=True)
                results[backend] = train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=3, ordering="shuffle_always",
                        parallelism=PureUDAParallelism(backend=backend), seed=0,
                    ),
                )
        a, b = results["in_process"], results["process"]
        assert np.array_equal(a.model.as_flat_vector(), b.model.as_flat_vector())
        # The process run's loss pass runs partitioned on the pool; partial
        # sums reassociate, so traces agree to float-noise, models exactly.
        np.testing.assert_allclose(
            a.objective_trace(), b.objective_trace(), atol=1e-9, rtol=0
        )

    def test_pure_uda_segments_must_match_the_database(self, workload):
        """A spec width the database does not have is named, not silently ignored."""
        dataset, task = workload
        with SegmentedDatabase(2, "dbms_b", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            with pytest.raises(ExecutionError, match="segments=3.*2 segments"):
                train(
                    task, database, "pts",
                    config=IGDConfig(max_epochs=1, parallelism=PureUDAParallelism(segments=3)),
                )
            for segments in (None, 2):
                train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=1, parallelism=PureUDAParallelism(segments=segments)
                    ),
                )

    def test_parallel_evaluation_toggle_preserves_models(self, workload):
        """parallel_evaluation changes who computes the loss, never the model."""
        dataset, task = workload
        vectors = {}
        traces = {}
        for flag in (False, True):
            with SegmentedDatabase(2, "dbms_b", seed=0) as database:
                load_classification_table(database, "pts", dataset.examples, sparse=True)
                run = train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=2, ordering="shuffle_once",
                        parallelism=PureUDAParallelism(backend="process"),
                        parallel_evaluation=flag, seed=0,
                    ),
                )
                vectors[flag] = run.model.as_flat_vector()
                traces[flag] = run.objective_trace()
        assert np.array_equal(vectors[False], vectors[True])
        np.testing.assert_allclose(traces[False], traces[True], atol=1e-9, rtol=0)

    def test_shared_memory_whole_loop_trains(self, workload):
        """Process shmem run with pool-backed loss converges into the band."""
        dataset, task = workload
        with make_database(dataset) as database:
            run = train(
                task, database, "pts",
                config=IGDConfig(
                    max_epochs=3, ordering="shuffle_once",
                    parallelism=SharedMemoryParallelism(
                        scheme="nolock", workers=2, backend="process"
                    ),
                    parallel_evaluation=True, seed=0,
                ),
            )
        trace = run.objective_trace()
        assert all(np.isfinite(trace))
        assert trace[-1] < trace[0]

    def test_harness_evaluate_model_parity(self, workload):
        from repro.experiments import evaluate_model

        dataset, task = workload
        model = task.initial_model()
        with make_database(dataset) as database:
            serial = evaluate_model(database, "pts", task, model, workers=2)
            process = evaluate_model(
                database, "pts", task, model, workers=2, backend="process"
            )
            assert process == serial
            with_penalty = evaluate_model(
                database, "pts", task, model, include_penalty=True
            )
            assert with_penalty >= serial or task.proximal.penalty(model) <= 0
            accuracy = evaluate_model(
                database, "pts", task, model, kind="accuracy", workers=2,
                backend="process",
            )
            assert 0.0 <= accuracy <= 1.0


class TestLifecycle:
    def test_context_manager_reaps_pools_and_arena(self, workload):
        dataset, task = workload
        before = _shm_entries()
        with make_database(dataset) as database:
            train(
                task, database, "pts",
                config=IGDConfig(
                    max_epochs=2,
                    parallelism=SharedMemoryParallelism(
                        scheme="nolock", workers=2, backend="process"
                    ),
                    seed=0,
                ),
            )
            assert len(multiprocessing.active_children()) >= 2
        assert database._process_pools == {}
        assert database.shared_memory.names() == []
        assert _shm_entries() <= before
        # No stray worker processes survive the close.
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, workload):
        dataset, _task = workload
        database = make_database(dataset)
        database.process_pool(2)
        database.close()
        database.close()
        assert multiprocessing.active_children() == []

    def test_whole_experiment_run_leaves_no_workers_or_segments(self):
        """The experiment harness itself cleans up deterministically."""
        from repro.experiments import run_whole_loop_experiment

        before = _shm_entries()
        result = run_whole_loop_experiment("small", workers=2, epochs=2)
        assert set(result.total_seconds) == {"serial", "gradient_only", "whole_loop"}
        assert result.speedup_vs_gradient_only() > 0
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= before
