"""Parity suite: the chunked columnar path must reproduce the per-tuple path.

The chunked fast path (cached ExampleBatches + vectorized/sequential kernels)
claims *bit-for-bit* identical models for exact IGD and identical-to-1e-9
objective traces.  These tests pin that claim for LR, SVM, lasso and least
squares across all three data orderings, for dense and sparse features, plus
the LMF task, the structured tasks (CRF, Kalman, portfolio), the
loss/accuracy aggregates, the version-keyed example cache, and all three
execution backends (serial, shared-memory, segmented pure-UDA).

A training run's per-tuple reference is the same task's non-batching twin
(:func:`rows_twin`): the engine's one chunk-or-rows rule folds it row by row,
gradient and loss pass alike.  A single pass's reference is the per-tuple
protocol itself, ``run_aggregate(..., per_tuple=True)``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import IGDConfig, train
from repro.core.model import Model
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.stepsize import make_schedule
from repro.core.uda import AccuracyAggregate, IGDAggregate, LossAggregate
from repro.data import (
    load_classification_table,
    load_ratings_table,
    load_returns_table,
    load_sequences_table,
    load_timeseries_table,
    make_dense_classification,
    make_noisy_timeseries,
    make_portfolio_returns,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from repro.db.chunk_plan import interleave_round_robin
from repro.db.engine import Database
from repro.db.errors import ExecutionError
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.parallel import SegmentedDatabase
from repro.db.pass_plan import (
    SerialBackend,
    SharedMemoryBackend,
    TrainEpochContext,
    compile_pass,
)
from repro.tasks import (
    ConditionalRandomFieldTask,
    KalmanSmoothingTask,
    LassoTask,
    LogisticRegressionTask,
    LowRankMatrixFactorizationTask,
    PortfolioOptimizationTask,
    SVMTask,
)
from repro.tasks.base import ExampleCache
from repro.tasks.least_squares import LinearRegressionTask

TASKS = {
    "lr": LogisticRegressionTask,
    "svm": SVMTask,
    "lasso": LassoTask,
    "least_squares": LinearRegressionTask,
}
ORDERINGS = ("shuffle_once", "shuffle_always", "clustered")
STEP = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9}


def rows_twin(task_cls):
    """``task_cls`` that cannot batch: the engine folds it per tuple."""
    return type(f"{task_cls.__name__}Rows", (task_cls,), {"supports_batches": False})


#: A task that genuinely cannot chunk (the old role of the CRF task).
PerTupleOnlyTask = rows_twin(LogisticRegressionTask)


def assert_same_run(reference, result, *components):
    for name in components:
        assert np.array_equal(reference.model[name], result.model[name])
    assert np.allclose(
        reference.objective_trace(), result.objective_trace(), atol=1e-9, rtol=0
    )


def _tiny_edge_table():
    from repro.db import ColumnType, Schema, Table

    schema = Schema.of(("vec", ColumnType.FLOAT_ARRAY), ("label", ColumnType.FLOAT))
    table = Table("edge", schema)
    table.insert(([1.0], 1.0))  # wx = -1e-17 for w = [-1e-17]
    return table


def _train(task_cls, data, *, sparse: bool, ordering: str, **config):
    database = Database("postgres", seed=0)
    load_classification_table(database, "points", data.examples, sparse=sparse, replace=True)
    task = task_cls(data.dimension)
    cfg = IGDConfig(step_size=STEP, max_epochs=3, ordering=ordering, seed=11, **config)
    return train(task, database, "points", config=cfg)


class TestChunkedPathParity:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("task_name", sorted(TASKS))
    def test_dense_models_bit_identical(self, task_name, ordering):
        data = make_dense_classification(160, 10, seed=0)
        task_cls = TASKS[task_name]
        per_tuple = _train(rows_twin(task_cls), data, sparse=False, ordering=ordering)
        chunked = _train(task_cls, data, sparse=False, ordering=ordering)
        assert_same_run(per_tuple, chunked, "w")

    @pytest.mark.parametrize("task_name", sorted(TASKS))
    def test_sparse_models_bit_identical(self, task_name):
        data = make_sparse_classification(150, 40, nonzeros_per_example=5, seed=1)
        task_cls = TASKS[task_name]
        per_tuple = _train(rows_twin(task_cls), data, sparse=True, ordering="shuffle_once")
        chunked = _train(task_cls, data, sparse=True, ordering="shuffle_once")
        assert_same_run(per_tuple, chunked, "w")

    def test_gradient_step_counts_match(self):
        data = make_dense_classification(90, 6, seed=2)
        per_tuple = _train(PerTupleOnlyTask, data, sparse=False, ordering="shuffle_once")
        chunked = _train(LogisticRegressionTask, data, sparse=False, ordering="shuffle_once")
        assert [r.gradient_steps for r in per_tuple.history] == [
            r.gradient_steps for r in chunked.history
        ]

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_one_gradient_step_per_tuple_per_epoch(self, ordering):
        data = make_dense_classification(90, 6, seed=2)
        for task_cls in (PerTupleOnlyTask, LogisticRegressionTask):
            run = _train(task_cls, data, sparse=False, ordering=ordering)
            assert [r.gradient_steps for r in run.history] == [90, 180, 270]

    def test_lmf_models_bit_identical(self):
        ratings = make_ratings(40, 30, 500, rank=4, seed=3)
        results = []
        for task_cls in (rows_twin(LowRankMatrixFactorizationTask), LowRankMatrixFactorizationTask):
            database = Database("postgres", seed=0)
            load_ratings_table(database, "ratings", ratings.examples, replace=True)
            task = task_cls(ratings.num_rows, ratings.num_cols, rank=4, mu=0.01)
            results.append(train(
                task, database, "ratings",
                config=IGDConfig(step_size=0.05, max_epochs=3, ordering="shuffle_once", seed=5),
            ))
        assert_same_run(*results, "L", "R")


class TestLossAndAccuracyAggregates:
    def _database_and_task(self, task_cls=LogisticRegressionTask):
        data = make_dense_classification(120, 7, seed=6)
        database = Database("postgres", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        task = task_cls(data.dimension)
        rng = np.random.default_rng(0)
        model = Model({"w": rng.normal(size=data.dimension)})
        return database, task, model

    def test_loss_aggregate_chunked_matches_per_tuple(self):
        database, task, model = self._database_and_task()
        per_tuple = database.run_aggregate("points", LossAggregate(task, model), per_tuple=True)
        chunked = database.run_aggregate("points", LossAggregate(task, model))
        assert chunked == pytest.approx(per_tuple, abs=1e-9)

    @pytest.mark.parametrize("task_cls", [LogisticRegressionTask, SVMTask], ids=["lr", "svm"])
    def test_accuracy_aggregate_chunked_matches_per_tuple(self, task_cls):
        database, task, model = self._database_and_task(task_cls)
        per_tuple = database.run_aggregate(
            "points", AccuracyAggregate(task, model), per_tuple=True
        )
        chunked = database.run_aggregate("points", AccuracyAggregate(task, model))
        assert chunked == per_tuple

    def test_lr_accuracy_parity_at_sub_ulp_decision_values(self):
        """wx an ulp below zero still rounds sigmoid to exactly 0.5: both
        paths must classify it +1, like the scalar classify threshold."""
        database = Database("postgres", seed=0)
        database.register_table(_tiny_edge_table())
        task = LogisticRegressionTask(1)
        model = Model({"w": np.array([-1e-17])})
        per_tuple = database.run_aggregate("edge", AccuracyAggregate(task, model), per_tuple=True)
        chunked = database.run_aggregate("edge", AccuracyAggregate(task, model))
        assert chunked == per_tuple == 1.0


class TestChunkOrRowsRule:
    def test_unbatchable_task_folds_rows(self):
        data = make_dense_classification(4, 3, seed=0)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        task = PerTupleOnlyTask(data.dimension)
        assert database.executor.chunk_plan(table, IGDAggregate(task, 0.05)) is None
        model = database.run_aggregate("points", IGDAggregate(task, 0.05))
        assert model.metadata["gradient_steps"] == 4

    @pytest.mark.parametrize("name", ["sum", "count"])
    def test_builtin_sql_aggregate_folds_rows(self, name):
        """No chunk decoder, no chunk plan: the rule folds the rows, which
        is exactly the per-tuple protocol."""
        database = Database("postgres", seed=0)
        table = database.create_table("t", [("x", "float")])
        table.insert_many((float(i),) for i in range(10))
        assert database.executor.chunk_plan(table, database.aggregates.create(name)) is None
        assert database.run_aggregate("t", name, "x") == database.run_aggregate(
            "t", name, "x", per_tuple=True
        ) == {"sum": 45.0, "count": 10}[name]

    def test_crf_task_now_chunks(self):
        """The CRF used to be the canonical unbatchable task; it chunks now."""
        corpus = make_sequences(4, num_labels=3, seed=0)
        database = Database("postgres", seed=0)
        table = load_sequences_table(database, "seqs", corpus.examples)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        assert database.executor.chunk_plan(table, IGDAggregate(task, 0.05)) is not None
        model = database.run_aggregate("seqs", IGDAggregate(task, 0.05))
        assert model.metadata["gradient_steps"] == 4

    def test_chunked_execution_counts_one_scan_per_pass(self):
        data = make_dense_classification(60, 5, seed=11)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        task = LogisticRegressionTask(data.dimension)
        model = task.initial_model()
        before = table.scan_count
        database.run_aggregate("points", LossAggregate(task, model))
        assert table.scan_count == before + 1
        # a cached pass still counts as one logical scan
        database.run_aggregate("points", LossAggregate(task, model))
        assert table.scan_count == before + 2


class TestExampleCacheInvalidation:
    def _setup(self):
        data = make_dense_classification(64, 5, seed=12)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        task = LogisticRegressionTask(data.dimension)
        return database, table, task

    def test_cache_hit_on_unchanged_table(self):
        database, table, task = self._setup()
        cache = database.executor.example_cache
        first = cache.batches_for(table, task, 32)
        second = cache.batches_for(table, task, 32)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_shuffle_busts_cache(self):
        database, table, task = self._setup()
        cache = database.executor.example_cache
        stale = cache.batches_for(table, task, 32)
        table.shuffle(seed=0)
        fresh = cache.batches_for(table, task, 32)
        assert fresh is not stale
        first_ids_stale = stale[0].y
        first_ids_fresh = fresh[0].y
        # reordering must be visible through the cache
        assert not np.array_equal(first_ids_stale, first_ids_fresh)

    def test_cluster_by_busts_cache(self):
        database, table, task = self._setup()
        cache = database.executor.example_cache
        stale = cache.batches_for(table, task, 32)
        table.cluster_by("label")
        assert cache.batches_for(table, task, 32) is not stale

    def test_insert_busts_cache(self):
        database, table, task = self._setup()
        cache = database.executor.example_cache
        stale = cache.batches_for(table, task, 32)
        table.insert((999, np.zeros(5), 1.0))
        fresh = cache.batches_for(table, task, 32)
        assert fresh is not stale
        assert sum(len(b) for b in fresh) == sum(len(b) for b in stale) + 1

    def test_task_without_batch_support_short_circuits(self):
        database, table, _ = self._setup()
        task = PerTupleOnlyTask(5)
        cache = database.executor.example_cache
        assert cache.batches_for(table, task, 32) is None
        assert cache.misses == 0  # no batch support: no build attempted

    def test_wrong_schema_negatively_cached(self):
        """A batchable task over a table missing its columns (the CRF over a
        classification table) is negatively cached, not an error."""
        database, table, _ = self._setup()
        crf = ConditionalRandomFieldTask(4, 3)
        cache = database.executor.example_cache
        assert cache.batches_for(table, crf, 32) is None
        assert cache.misses == 1
        assert cache.batches_for(table, crf, 32) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_unbatchable_column_negatively_cached(self):
        from repro.db import ColumnType, Schema, Table

        schema = Schema.of(("vec", ColumnType.ANY), ("label", ColumnType.FLOAT))
        table = Table("mixed", schema)
        table.insert_many([(np.zeros(3), 1.0), ({0: 1.0}, -1.0)])  # mixed dense/sparse
        task = LogisticRegressionTask(3)
        cache = ExampleCache()
        assert cache.batches_for(table, task, 32) is None
        assert cache.misses == 1
        # second lookup is a hit on the negative entry, not a re-decode
        assert cache.batches_for(table, task, 32) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_respects_max_entries(self):
        _, table, _ = self._setup()
        cache = ExampleCache(max_entries=2)
        tasks = [LogisticRegressionTask(5) for _ in range(3)]
        for task in tasks:
            cache.batches_for(table, task, 32)
        assert len(cache) == 2

    def test_replaced_table_with_same_name_and_version_not_served_stale(self):
        """A dropped-and-recreated table restarts its version sequence; the
        cache must bind to the table object, not just (name, version)."""
        database = Database("postgres", seed=0)
        task = LogisticRegressionTask(3)
        old = make_dense_classification(40, 3, seed=13)
        new = make_dense_classification(40, 3, seed=14)

        def losses():
            return [
                database.run_aggregate(
                    "pts", LossAggregate(task, task.initial_model()), per_tuple=per_tuple
                )
                for per_tuple in (True, False)
            ]

        old_table = load_classification_table(database, "pts", old.examples, sparse=False)
        per_tuple_old, chunked_old = losses()
        load_classification_table(database, "pts", new.examples, sparse=False, replace=True)
        assert database.table("pts").version == old_table.version  # the trap
        per_tuple_new, chunked_new = losses()
        assert chunked_old == pytest.approx(per_tuple_old, abs=1e-9)
        assert chunked_new == pytest.approx(per_tuple_new, abs=1e-9)


class TestSparseEdgeCases:
    def test_decision_values_with_trailing_empty_rows(self):
        """reduceat segment handling: empty sparse rows (all-zero examples)
        anywhere in the chunk must not truncate their neighbours' dots."""
        from repro.db import ColumnType, Schema, Table

        schema = Schema.of(("vec", ColumnType.SPARSE_VECTOR), ("label", ColumnType.FLOAT))
        table = Table("sparse_edge", schema)
        table.insert_many(
            [
                ({0: 1.0, 1: 2.0}, 1.0),
                ({}, -1.0),
                ({1: 3.0}, 1.0),
                ({}, -1.0),
            ]
        )
        task = LogisticRegressionTask(2)
        batch = task.batch_from_chunk(next(table.iter_chunks(16)))
        w = np.array([10.0, 100.0])
        assert batch.decision_values(w).tolist() == [210.0, 0.0, 300.0, 0.0]

    def test_chunked_parity_with_empty_sparse_rows(self):
        from repro.db import ColumnType, Schema, Table

        rng = np.random.default_rng(15)
        schema = Schema.of(("vec", ColumnType.SPARSE_VECTOR), ("label", ColumnType.FLOAT))
        rows = []
        for i in range(60):
            if i % 7 == 0:
                features = {}
            else:
                features = {int(j): float(rng.normal()) for j in rng.choice(10, size=3, replace=False)}
            rows.append((features, 1.0 if rng.random() > 0.5 else -1.0))
        results = []
        for task_cls in (PerTupleOnlyTask, LogisticRegressionTask):
            database = Database("postgres", seed=0)
            table = Table("pts", schema)
            table.insert_many(rows)
            database.register_table(table)
            results.append(train(
                task_cls(10), database, "pts",
                config=IGDConfig(step_size=0.1, max_epochs=3, ordering="shuffle_once", seed=2),
            ))
        assert_same_run(*results, "w")


# ---------------------------------------------------------------------------
# Structured tasks: CRF, Kalman, portfolio — chunked must equal per-tuple
# ---------------------------------------------------------------------------
def _train_crf(*, rows: bool = False, ordering: str = "shuffle_once", parallelism=None,
               database=None, epochs: int = 3):
    corpus = make_sequences(30, num_labels=3, seed=0)
    if database is None:
        database = Database("postgres", seed=0)
    load_sequences_table(database, "seqs", corpus.examples, replace=True)
    task_cls = rows_twin(ConditionalRandomFieldTask) if rows else ConditionalRandomFieldTask
    return train(
        task_cls(corpus.num_features, corpus.num_labels), database, "seqs",
        config=IGDConfig(
            step_size={"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9},
            max_epochs=epochs, ordering=ordering, seed=1, parallelism=parallelism,
        ),
    )


def _train_kalman(*, rows: bool = False, ordering: str = "shuffle_once"):
    series = make_noisy_timeseries(60, 2, seed=0)
    database = Database("postgres", seed=0)
    load_timeseries_table(database, "ts", series.examples)
    task_cls = rows_twin(KalmanSmoothingTask) if rows else KalmanSmoothingTask
    task = task_cls(
        series.num_steps, series.state_dim,
        dynamics=series.dynamics, observation_matrix=series.observation_matrix,
    )
    return train(
        task, database, "ts",
        config=IGDConfig(step_size=0.05, max_epochs=3, ordering=ordering, seed=1),
    )


def _train_portfolio(*, rows: bool = False, ordering: str = "shuffle_once"):
    data = make_portfolio_returns(6, 120, seed=0)
    database = Database("postgres", seed=0)
    load_returns_table(database, "returns", data.examples)
    task_cls = rows_twin(PortfolioOptimizationTask) if rows else PortfolioOptimizationTask
    task = task_cls(data.num_assets, data.expected_returns, num_samples=len(data.examples))
    return train(
        task, database, "returns",
        config=IGDConfig(step_size=0.05, max_epochs=3, ordering=ordering, seed=1),
    )


@pytest.mark.backends
class TestStructuredTaskParity:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_crf_models_bit_identical(self, ordering):
        per_tuple = _train_crf(rows=True, ordering=ordering)
        chunked = _train_crf(ordering=ordering)
        assert_same_run(per_tuple, chunked, "emission", "transition")

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_kalman_models_bit_identical(self, ordering):
        assert_same_run(
            _train_kalman(rows=True, ordering=ordering), _train_kalman(ordering=ordering),
            "states",
        )

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_portfolio_models_bit_identical(self, ordering):
        assert_same_run(
            _train_portfolio(rows=True, ordering=ordering), _train_portfolio(ordering=ordering),
            "w",
        )

    def test_crf_loss_aggregate_parity(self):
        corpus = make_sequences(20, num_labels=3, seed=2)
        database = Database("postgres", seed=0)
        load_sequences_table(database, "seqs", corpus.examples)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        model = task.initial_model()
        emission = model["emission"]
        emission += np.random.default_rng(0).normal(scale=0.1, size=emission.shape)
        per_tuple = database.run_aggregate("seqs", LossAggregate(task, model), per_tuple=True)
        chunked = database.run_aggregate("seqs", LossAggregate(task, model))
        assert chunked == pytest.approx(per_tuple, abs=1e-9)


# ---------------------------------------------------------------------------
# Backend parity: shared-memory and segmented pure-UDA on the chunk plane
# ---------------------------------------------------------------------------
@pytest.mark.backends
class TestBackendChunkParity:
    @pytest.mark.parametrize("scheme", ["lock", "aig", "nolock"])
    def test_shared_memory_rows_twin_matches_chunked(self, scheme):
        """The twin folds the interleave row by row (its loss pass too), the
        task on the chunk plane: the same model and trace."""
        spec = SharedMemoryParallelism(scheme=scheme, workers=4)
        data = make_dense_classification(80, 6, seed=3)
        results = []
        for task_cls in (PerTupleOnlyTask, LogisticRegressionTask):
            database = Database("postgres", seed=0)
            load_classification_table(database, "points", data.examples, sparse=False)
            results.append(train(
                task_cls(data.dimension), database, "points",
                config=IGDConfig(step_size=0.1, max_epochs=3, ordering="shuffle_once",
                                 seed=4, parallelism=spec),
            ))
        assert_same_run(*results, "w")

    @pytest.mark.parametrize("scheme", ["lock", "nolock"])
    @pytest.mark.parametrize("case", ["lr_dense", "lr_sparse", "lr_rows", "crf"])
    def test_shared_memory_epoch_is_serial_igd_over_the_interleave(self, case, scheme):
        """One simulated epoch is bit-for-bit the serial backend's epoch over
        the workers' window interleave of the plan's visit order."""
        database = Database("postgres", seed=0)
        if case == "crf":
            corpus = make_sequences(30, num_labels=3, seed=0)
            table = load_sequences_table(database, "t", corpus.examples)
            task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        else:
            sparse = case == "lr_sparse"
            data = (make_sparse_classification(90, 40, nonzeros_per_example=5, seed=1)
                    if sparse else make_dense_classification(90, 6, seed=3))
            table = load_classification_table(database, "t", data.examples, sparse=sparse)
            task_cls = PerTupleOnlyTask if case == "lr_rows" else LogisticRegressionTask
            task = task_cls(data.dimension)
        spec = SharedMemoryParallelism(scheme=scheme, workers=4)
        order = np.random.default_rng(2).permutation(len(table))
        schedule = make_schedule({"kind": "epoch_decay", "alpha0": 0.1, "decay": 0.9})
        model = task.initial_model()

        def plan(row_order):
            factory = lambda: IGDAggregate(  # noqa: E731
                task, schedule, initial_model=model, epoch=1, step_offset=90
            )
            context = TrainEpochContext(
                task=task, model=model, schedule=schedule, proximal=task.proximal,
                epoch=1, step_offset=90, spec=spec,
            )
            return compile_pass("train", table, factory, row_order=row_order, train=context)

        simulated, steps = SharedMemoryBackend(database).run(plan(order))
        visit = interleave_round_robin(order, spec.workers, spec.effective_staleness())
        serial, serial_steps = SerialBackend(database).run(plan(visit))
        assert steps == serial_steps == len(table)
        for name in model.component_names():
            assert np.array_equal(simulated[name], serial[name])

    def test_shared_memory_crf_matches_per_tuple(self):
        spec = SharedMemoryParallelism(scheme="nolock", workers=4)
        per_tuple = _train_crf(rows=True, parallelism=spec, epochs=2)
        cached = _train_crf(parallelism=spec, epochs=2)
        assert np.array_equal(per_tuple.model["emission"], cached.model["emission"])
        assert np.array_equal(per_tuple.model["transition"], cached.model["transition"])

    @pytest.mark.parametrize("task_name", sorted(TASKS))
    def test_segmented_pure_uda_chunked_matches_per_tuple(self, task_name):
        results = []
        data = make_dense_classification(96, 7, seed=5)
        for task_cls in (rows_twin(TASKS[task_name]), TASKS[task_name]):
            database = SegmentedDatabase(4, "dbms_b", seed=0)
            load_classification_table(database, "points", data.examples, sparse=False)
            results.append(train(
                task_cls(data.dimension), database, "points",
                config=IGDConfig(step_size=STEP, max_epochs=3, ordering="shuffle_once",
                                 seed=6, parallelism=PureUDAParallelism()),
            ))
        assert_same_run(*results, "w")

    def test_segmented_crf_chunked_matches_per_tuple(self):
        per_tuple, chunked = (
            _train_crf(rows=rows, parallelism=PureUDAParallelism(),
                       database=SegmentedDatabase(4, "dbms_b", seed=0), epochs=2)
            for rows in (True, False)
        )
        assert np.array_equal(per_tuple.model["emission"], chunked.model["emission"])
        assert np.array_equal(per_tuple.model["transition"], chunked.model["transition"])

    @pytest.mark.parametrize("where", [None, BinaryOp(">", ColumnRef("label"), Literal(0.0))],
                             ids=["all", "where"])
    def test_segmented_aggregate_api_parity(self, where):
        """run_parallel_aggregate folds the twin's segments per tuple and
        the task's from cached chunks — WHERE through the selection vector."""
        data = make_dense_classification(60, 5, seed=7)
        database = SegmentedDatabase(4, "dbms_b", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        per_tuple, chunked = (
            database.run_parallel_aggregate(
                "points", lambda task=task: IGDAggregate(task, 0.05), where=where
            )
            for task in (PerTupleOnlyTask(data.dimension), LogisticRegressionTask(data.dimension))
        )
        assert np.array_equal(per_tuple.value["w"], chunked.value["w"])
        assert per_tuple.num_segments == chunked.num_segments == 4

    def test_segmented_chunked_decodes_the_master_once(self):
        data = make_dense_classification(64, 5, seed=8)
        database = SegmentedDatabase(4, "dbms_b", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        task = LogisticRegressionTask(data.dimension)
        cache = database.master.executor.example_cache
        factory = lambda: IGDAggregate(task, 0.05)  # noqa: E731
        database.run_parallel_aggregate("points", factory)
        # The four segments are ordinals over the master's one chunk list.
        assert cache.misses == 1 and cache.decoded_rows == 64
        database.run_parallel_aggregate("points", factory)
        assert cache.misses == 1 and cache.decoded_rows == 64  # second epoch served cached
        assert cache.hits >= 4


# ---------------------------------------------------------------------------
# Selection vectors and permutations: WHERE / row_order on the chunk plane
# ---------------------------------------------------------------------------
def _segment_lengths(rows, count):
    """Rows per segment: segment ``i`` of ``count`` is master rows ``i::count``."""
    return [len(range(index, rows, count)) for index in range(count)]


def _label_predicate():
    return BinaryOp(">", ColumnRef("label"), Literal(0.0))


@st.composite
def selection_passes(draw):
    """(sparse, rows, WHERE id < threshold or None, row order or None, chunk size).

    Threshold 0 selects nothing; the row order may repeat rows, skip rows
    and name them by negative ordinals.
    """
    rows = draw(st.integers(2, 40))
    threshold = draw(st.none() | st.integers(0, rows))
    order = draw(st.none() | st.lists(st.integers(-rows, rows - 1), max_size=2 * rows))
    return draw(st.booleans()), rows, threshold, order, draw(st.integers(1, 48))


@pytest.mark.backends
class TestSelectionPermutationParity:
    """WHERE filters and explicit row orders ride the cached chunk plane and
    must reproduce the per-tuple protocol bit for bit."""

    def _serial_db(self, *, sparse=False, seed=20):
        if sparse:
            data = make_sparse_classification(90, 30, nonzeros_per_example=4, seed=seed)
        else:
            data = make_dense_classification(90, 6, seed=seed)
        database = Database("postgres", seed=0)
        load_classification_table(database, "points", data.examples, sparse=sparse)
        return database, data

    def _igd_model(self, database, task, *, where=None, row_order=None, per_tuple=False):
        aggregate = IGDAggregate(task, STEP)
        return database.run_aggregate(
            "points", aggregate, where=where, row_order=row_order, per_tuple=per_tuple
        )

    def _both_models(self, database, task, **selection):
        """The pass under the per-tuple protocol, then under the default rule."""
        return [
            self._igd_model(database, task, per_tuple=per_tuple, **selection)
            for per_tuple in (True, False)
        ]

    # Hand-picked regressions; the property below draws the combinations.
    @pytest.mark.parametrize("sparse", [False, True])
    def test_where_filtered_models_bit_identical(self, sparse):
        database, data = self._serial_db(sparse=sparse)
        task = LogisticRegressionTask(data.dimension)
        per_tuple, chunked = self._both_models(database, task, where=_label_predicate())
        assert per_tuple.metadata["gradient_steps"] < len(data.examples)
        assert np.array_equal(per_tuple["w"], chunked["w"])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_row_order_models_bit_identical(self, sparse):
        database, data = self._serial_db(sparse=sparse)
        task = LogisticRegressionTask(data.dimension)
        order = np.random.default_rng(3).permutation(len(data.examples))
        per_tuple, chunked = self._both_models(database, task, row_order=order)
        assert np.array_equal(per_tuple["w"], chunked["w"])

    def test_where_and_row_order_compose(self):
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        order = np.random.default_rng(4).permutation(len(data.examples))
        per_tuple, chunked = self._both_models(
            database, task, where=_label_predicate(), row_order=order
        )
        assert np.array_equal(per_tuple["w"], chunked["w"])

    def test_loss_aggregate_where_parity(self):
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        model = Model({"w": np.random.default_rng(0).normal(size=data.dimension)})
        per_tuple, chunked = (
            database.run_aggregate(
                "points", LossAggregate(task, model), where=_label_predicate(),
                per_tuple=per_tuple,
            )
            for per_tuple in (True, False)
        )
        assert chunked == pytest.approx(per_tuple, abs=1e-9)

    def test_empty_selection_parity(self):
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        nothing = BinaryOp(">", ColumnRef("label"), Literal(1e9))
        per_tuple, chunked = self._both_models(database, task, where=nothing)
        assert per_tuple.metadata["gradient_steps"] == 0
        assert np.array_equal(per_tuple["w"], chunked["w"])

    def test_negative_ordinals_match_row_at(self):
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        per_tuple, chunked = self._both_models(database, task, row_order=[-1, 0, -2, 1])
        assert np.array_equal(per_tuple["w"], chunked["w"])

    @settings(max_examples=60, deadline=None)
    @given(selection_passes())
    def test_per_tuple_protocol_matches_the_chunk_plane(self, drawn):
        sparse, rows, threshold, order, chunk_size = drawn
        if sparse:
            data = make_sparse_classification(rows, 30, nonzeros_per_example=4, seed=rows)
        else:
            data = make_dense_classification(rows, 6, seed=rows)
        database = Database("postgres", seed=0)
        database.executor.chunk_size = chunk_size
        load_classification_table(database, "points", data.examples, sparse=sparse)
        task = LogisticRegressionTask(data.dimension)
        where = None if threshold is None else BinaryOp("<", ColumnRef("id"), Literal(threshold))

        def both(make):
            return [
                database.run_aggregate(
                    "points", make(), where=where, row_order=order, per_tuple=per_tuple
                )
                for per_tuple in (True, False)
            ]

        per_tuple, chunked = both(lambda: IGDAggregate(task, STEP))
        assert per_tuple.metadata == chunked.metadata
        assert np.array_equal(per_tuple["w"], chunked["w"])
        model = Model({"w": np.random.default_rng(rows).normal(size=data.dimension)})
        per_tuple, chunked = both(lambda: LossAggregate(task, model))
        assert chunked == pytest.approx(per_tuple, abs=1e-9)

    def test_crf_row_order_models_bit_identical(self):
        """Sequence gathers reuse the cached flattened feature arrays."""
        corpus = make_sequences(24, num_labels=3, seed=3)
        order = np.random.default_rng(5).permutation(len(corpus.examples))
        database = Database("postgres", seed=0)
        load_sequences_table(database, "seqs", corpus.examples)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        per_tuple, chunked = (
            database.run_aggregate(
                "seqs", IGDAggregate(task, 0.1), row_order=order, per_tuple=per_tuple
            )
            for per_tuple in (True, False)
        )
        assert np.array_equal(per_tuple["emission"], chunked["emission"])
        assert np.array_equal(per_tuple["transition"], chunked["transition"])

    def test_lmf_row_order_models_bit_identical(self):
        """Rating gathers cover the RatingBatch take/concat kernels."""
        ratings = make_ratings(20, 15, 200, rank=3, seed=6)
        order = np.random.default_rng(7).permutation(200)
        database = Database("postgres", seed=0)
        load_ratings_table(database, "ratings", ratings.examples)
        task = LowRankMatrixFactorizationTask(ratings.num_rows, ratings.num_cols, rank=3, mu=0.01)
        initial = task.initial_model()
        per_tuple, chunked = (
            database.run_aggregate(
                "ratings", IGDAggregate(task, 0.05, initial_model=initial),
                row_order=order, per_tuple=per_tuple,
            )
            for per_tuple in (True, False)
        )
        assert np.array_equal(per_tuple["L"], chunked["L"])
        assert np.array_equal(per_tuple["R"], chunked["R"])

    def test_segmented_row_orders_match_per_tuple(self):
        data = make_dense_classification(60, 5, seed=21)
        results = []
        for task_cls in (PerTupleOnlyTask, LogisticRegressionTask):
            database = SegmentedDatabase(3, "dbms_b", seed=0)
            load_classification_table(database, "points", data.examples, sparse=False)
            rng = np.random.default_rng(8)  # same orders for both runs
            orders = [rng.permutation(length) for length in _segment_lengths(60, 3)]
            task = task_cls(data.dimension)
            results.append(database.run_parallel_aggregate(
                "points", lambda: IGDAggregate(task, 0.05), segment_row_orders=orders
            ))
        assert np.array_equal(results[0].value["w"], results[1].value["w"])

    def test_chunked_filter_still_scans_once(self):
        database, data = self._serial_db()
        table = database.table("points")
        task = LogisticRegressionTask(data.dimension)
        before = table.scan_count
        self._igd_model(database, task, where=_label_predicate())
        assert table.scan_count == before + 1

    def test_selection_vector_cached_per_version(self):
        database, data = self._serial_db()
        table = database.table("points")
        task = LogisticRegressionTask(data.dimension)
        predicate = _label_predicate()
        cache = database.executor.example_cache
        # First pass derives two artefacts: the selection vector and the
        # gathered (masked) chunk list built from it.
        self._igd_model(database, task, where=predicate)
        assert cache.derived_misses == 2
        self._igd_model(database, task, where=predicate)
        assert cache.derived_misses == 2 and cache.derived_hits == 2
        table.shuffle(seed=0)  # physical mutation busts both derived entries
        self._igd_model(database, task, where=predicate)
        assert cache.derived_misses == 4

    def test_stale_udf_binding_invalidates_selection(self):
        """Re-registering a UDF referenced by the predicate must invalidate
        the cached selection vector — chunked stays bit-for-bit per-tuple."""
        from repro.db.expressions import FunctionCall

        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        predicate = FunctionCall("keep", (ColumnRef("label"),))
        database.register_function("keep", lambda label: label > 0)
        first = self._igd_model(database, task, where=predicate)
        database.register_function("keep", lambda label: label < 0)
        chunked = self._igd_model(database, task, where=predicate)
        per_tuple = self._igd_model(database, task, where=predicate, per_tuple=True)
        assert not np.array_equal(first["w"], chunked["w"])
        assert np.array_equal(per_tuple["w"], chunked["w"])

    @pytest.fixture
    def gathers(self, monkeypatch):
        """Rows of every ``gather_batches`` call, and weak references to what it built."""
        from repro.db import chunk_plan

        calls, copies = [], []
        real = chunk_plan.gather_batches

        def recording(batches, ordinals, chunk_size):
            calls.append(len(ordinals))
            gathered = real(batches, ordinals, chunk_size)
            copies.extend(weakref.ref(batch.y) for batch in gathered)
            return gathered

        monkeypatch.setattr(chunk_plan, "gather_batches", recording)
        return calls, copies

    @pytest.mark.parametrize("ordered, filtered", [(True, False), (False, True), (True, True)],
                             ids=["row_order", "where", "both"])
    def test_an_order_is_walked_then_gathered_once_when_reused(self, gathers, ordered, filtered):
        """First sight walks the cached chunks; the same order again gathers
        once and the copy serves every later pass — all bit-for-bit."""
        calls, _ = gathers
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        cache = database.executor.example_cache
        order = np.random.default_rng(11).permutation(len(data.examples)) if ordered else None
        where = _label_predicate() if filtered else None
        first = self._igd_model(database, task, row_order=order, where=where)
        assert calls == []
        models = [self._igd_model(database, task, row_order=order, where=where) for _ in range(2)]
        visited = first.metadata["gradient_steps"]
        assert calls == [visited]
        assert all(np.array_equal(first["w"], model["w"]) for model in models)
        # The selection vector (when filtered) and the order: one sighting
        # each, then found on every later pass.
        assert cache.derived_misses == 1 + filtered
        assert cache.derived_hits == 2 * (1 + filtered)

    def test_a_gathered_copy_lives_exactly_as_long_as_its_order(self, gathers):
        calls, copies = gathers
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        cache = database.executor.example_cache
        order = np.random.default_rng(3).permutation(len(data.examples))
        for _ in range(2):
            self._igd_model(database, task, row_order=order)
        assert calls == [len(order)] and all(ref() is not None for ref in copies)
        del order  # nothing else holds it: its copy and its cache entry go now
        assert all(ref() is None for ref in copies) and not cache._orders
        # Fresh per-pass orders (shuffle-always) are walked and never kept.
        rng = np.random.default_rng(4)
        for _ in range(3):
            self._igd_model(database, task, row_order=rng.permutation(len(data.examples)))
        assert calls == [len(data.examples)] and not cache._orders

    def test_the_order_finalizer_keeps_no_database_alive(self):
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        order = np.random.default_rng(5).permutation(len(data.examples))
        for _ in range(2):
            self._igd_model(database, task, row_order=order)
        cache = weakref.ref(database.executor.example_cache)
        engine = weakref.ref(database)
        del database
        gc.collect()
        assert engine() is None and cache() is None
        del order  # the finalizer runs against a dead cache: a no-op

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "where"])
    @pytest.mark.parametrize("per_tuple", [True, False], ids=["per_tuple", "chunked"])
    def test_out_of_range_ordinals_raise_on_both_planes(self, per_tuple, filtered):
        """``-(n+1)`` is normalised once, like ``Table.row_at``: still out of range."""
        database, data = self._serial_db()
        task = LogisticRegressionTask(data.dimension)
        where = _label_predicate() if filtered else None
        n = len(data.examples)
        for order in ([-(n + 1)], [0, n]):
            with pytest.raises(IndexError):
                self._igd_model(database, task, row_order=order, where=where,
                                per_tuple=per_tuple)
        last = self._igd_model(database, task, row_order=[-1], where=where, per_tuple=per_tuple)
        assert np.array_equal(
            last["w"], self._igd_model(database, task, row_order=[n - 1], where=where)["w"]
        )


@pytest.mark.backends
class TestOrderedScanAccounting:
    """Satellite regression: ordered passes must be visible in scan stats."""

    def _setup(self):
        data = make_dense_classification(30, 4, seed=22)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        return database, table, LogisticRegressionTask(data.dimension)

    @pytest.mark.parametrize(
        "per_tuple, rows", [(True, False), (False, False), (False, True)],
        ids=["per_tuple", "chunked", "rows_twin"],
    )
    def test_row_order_pass_counts_one_scan(self, per_tuple, rows):
        database, table, task = self._setup()
        if rows:  # the rule folds a task that cannot batch per tuple
            task = PerTupleOnlyTask(task.dimension)
        order = list(range(len(table)))[::-1]
        before = table.scan_count
        database.run_aggregate(
            "points", IGDAggregate(task, 0.05), row_order=order, per_tuple=per_tuple
        )
        assert table.scan_count == before + 1

    def test_no_merge_fallback_refuses_multi_segment_orders(self):
        """A non-merge aggregate cannot replay per-segment orders serially;
        raising beats silently training in stored heap order."""
        from repro.db.aggregates import FunctionalAggregate

        data = make_dense_classification(24, 4, seed=26)
        database = SegmentedDatabase(3, "dbms_b", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        factory = lambda: FunctionalAggregate(  # noqa: E731 - no merge support
            initialize=lambda: 0, transition=lambda state, row: state + 1, wants_row=True
        )
        orders = [list(range(length)) for length in _segment_lengths(24, 3)]
        with pytest.raises(ExecutionError):
            database.run_parallel_aggregate("points", factory, segment_row_orders=orders)

    def test_segmented_ordered_pass_counts_one_scan(self):
        """The segments together read each master row once: one logical scan."""
        data = make_dense_classification(30, 4, seed=23)
        database = SegmentedDatabase(3, "dbms_b", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        table = database.table("points")
        orders = [list(range(length))[::-1] for length in _segment_lengths(30, 3)]
        before = table.scan_count
        task = PerTupleOnlyTask(data.dimension)
        factory = lambda: IGDAggregate(task, 0.05)  # noqa: E731
        database.run_parallel_aggregate("points", factory, segment_row_orders=orders)
        assert table.scan_count == before + 1


@pytest.mark.backends
class TestLogicalOrderingCachePlane:
    """Logical shuffles keep the example cache alive: zero re-decodes."""

    def _train_logical(self, ordering, *, rows=False, epochs=4, parallelism=None,
                       segmented=False):
        data = make_dense_classification(120, 6, seed=24)
        if segmented:
            database = SegmentedDatabase(4, "dbms_b", seed=0)
        else:
            database = Database("postgres", seed=0)
        load_classification_table(database, "points", data.examples, sparse=False)
        task_cls = PerTupleOnlyTask if rows else LogisticRegressionTask
        result = train(
            task_cls(data.dimension), database, "points",
            config=IGDConfig(step_size=STEP, max_epochs=epochs, ordering=ordering,
                             seed=25, parallelism=parallelism),
        )
        return database, result

    def test_shuffle_always_chunked_never_redecodes(self):
        """The acceptance criterion: after the first epoch, shuffle_always
        hits the cached batches every epoch — one decode for the whole run."""
        database, result = self._train_logical("shuffle_always", epochs=4)
        cache = database.executor.example_cache
        assert result.epochs_run == 4
        assert cache.misses == 1  # one decode, shared by IGD and loss passes
        assert cache.hits == 2 * 4 - 1  # training + loss per epoch, rest hits
        # Per-epoch orders are walked, never gathered: the cache holds the
        # base batches entry alone, and nothing for the run's dead orders.
        assert len(cache) == 1 and not cache._orders

    def test_physical_shuffle_always_redecodes_each_epoch(self):
        """The contrast case: physical rewrites bump the version every epoch."""
        from repro.core.ordering import ShuffleAlways

        database, result = self._train_logical(ShuffleAlways(mode="physical"), epochs=3)
        cache = database.executor.example_cache
        assert cache.misses == 3  # one fresh decode per physical shuffle

    def test_logical_equals_physical_shuffle_once(self):
        """Same rng, same permutation: serving the shuffle as a row order is
        bit-for-bit the physically shuffled run."""
        from repro.core.ordering import ShuffleOnce

        _, logical = self._train_logical(ShuffleOnce(mode="logical"), epochs=3)
        _, physical = self._train_logical(ShuffleOnce(mode="physical"), epochs=3)
        assert_same_run(logical, physical, "w")

    @pytest.mark.parametrize("ordering", ["shuffle_once", "shuffle_always"])
    def test_logical_shuffle_parity_serial(self, ordering):
        _, per_tuple = self._train_logical(ordering, rows=True)
        _, chunked = self._train_logical(ordering)
        assert_same_run(per_tuple, chunked, "w")

    def test_logical_shuffle_always_shared_memory_parity_and_cache(self):
        spec = SharedMemoryParallelism(scheme="nolock", workers=4)
        results = []
        for rows in (True, False):
            database, result = self._train_logical(
                "shuffle_always", rows=rows, epochs=3, parallelism=spec
            )
            results.append(result)
        assert np.array_equal(results[0].model["w"], results[1].model["w"])
        # cached run: one batch decode, shared by the gradient and loss passes
        assert database.executor.example_cache.misses == 1

    def test_logical_shuffle_always_segmented_parity_and_cache(self):
        results = []
        for rows in (True, False):
            database, result = self._train_logical(
                "shuffle_always", rows=rows, epochs=3,
                parallelism=PureUDAParallelism(), segmented=True,
            )
            results.append(result)
        assert np.array_equal(results[0].model["w"], results[1].model["w"])
        cache = database.master.executor.example_cache
        # one decode, shared by every segment's gradient pass and the loss
        # pass — never repeated, because logical shuffles leave the heap alone
        assert cache.misses == 1


@pytest.mark.backends
class TestGatherKernels:
    """Unit coverage of the batch take/concat kernels and gather_batches."""

    def test_sparse_take_preserves_rows(self):
        from repro.db import ColumnType, Schema, Table

        schema = Schema.of(("vec", ColumnType.SPARSE_VECTOR), ("label", ColumnType.FLOAT))
        table = Table("s", schema)
        table.insert_many(
            [
                ({0: 1.0, 2: 2.0}, 1.0),
                ({}, -1.0),
                ({1: 3.0}, 1.0),
                ({0: 4.0, 1: 5.0, 2: 6.0}, -1.0),
            ]
        )
        task = LogisticRegressionTask(3)
        batch = task.batch_from_chunk(next(table.iter_chunks(16)))
        taken = batch.take(np.array([3, 1, 0]))
        w = np.array([1.0, 10.0, 100.0])
        assert taken.decision_values(w).tolist() == [654.0, 0.0, 201.0]
        assert taken.y.tolist() == [-1.0, -1.0, 1.0]

    def test_dense_concat_then_take_roundtrip(self):
        from repro.tasks.base import ExampleBatch

        a = ExampleBatch("dense", X=np.arange(6.0).reshape(3, 2), y=np.array([1.0, -1.0, 1.0]), dimension=2)
        b = ExampleBatch("dense", X=10 + np.arange(4.0).reshape(2, 2), y=np.array([-1.0, 1.0]), dimension=2)
        fused = ExampleBatch.concat([a, b])
        assert len(fused) == 5
        taken = fused.take(np.array([4, 0]))
        assert taken.X.tolist() == [[12.0, 13.0], [0.0, 1.0]]

    def test_gather_batches_interleaves_across_chunks(self):
        from repro.db.chunk_plan import gather_batches
        from repro.tasks.base import ExampleBatch

        batches = [
            ExampleBatch(
                "dense",
                X=np.arange(start, start + 4, dtype=np.float64).reshape(2, 2),
                y=np.array([float(start), float(start + 1)]),
                dimension=2,
            )
            for start in (0, 10, 20)
        ]
        # chunk_size 2, 6 examples total; an order hopping between chunks
        out = gather_batches(batches, np.array([5, 0, 2, 1, 4, 3]), 2)
        assert [len(block) for block in out] == [2, 2, 2]
        assert np.concatenate([block.y for block in out]).tolist() == [
            21.0, 0.0, 10.0, 1.0, 20.0, 11.0
        ]

    def test_gather_batches_rejects_out_of_range(self):
        from repro.db.chunk_plan import gather_batches
        from repro.tasks.base import ExampleBatch

        batch = ExampleBatch("dense", X=np.zeros((2, 1)), y=np.zeros(2), dimension=1)
        with pytest.raises(IndexError):
            gather_batches([batch], np.array([2]), 4)

    def test_gather_batches_without_kernels_returns_none(self):
        from repro.db.chunk_plan import gather_batches

        class Opaque:
            def __len__(self):
                return 2

        assert gather_batches([Opaque()], np.array([0]), 4) is None

    def test_decoded_example_batch_take_and_concat(self):
        from repro.tasks.base import DecodedExampleBatch

        a = DecodedExampleBatch(["a", "b"])
        b = DecodedExampleBatch(["c"])
        fused = DecodedExampleBatch.concat([a, b])
        assert fused.take([2, 0]).examples == ["c", "a"]


@pytest.mark.backends
class TestExampleCacheDecodedExamples:
    def test_examples_for_cached_and_invalidated(self):
        data = make_dense_classification(40, 4, seed=10)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        task = LogisticRegressionTask(data.dimension)
        cache = database.executor.example_cache
        first = cache.examples_for(table, task)
        assert len(first) == 40
        assert cache.examples_for(table, task) is first
        assert cache.hits == 1 and cache.misses == 1
        table.shuffle(seed=1)
        fresh = cache.examples_for(table, task)
        assert fresh is not first

    def test_examples_for_works_for_any_task(self):
        corpus = make_sequences(6, num_labels=3, seed=1)
        database = Database("postgres", seed=0)
        table = load_sequences_table(database, "seqs", corpus.examples)
        task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
        examples = database.executor.example_cache.examples_for(table, task)
        assert [len(e) for e in examples] == [len(e) for e in corpus.examples]


@pytest.mark.backends
class TestChunkPlanLayer:
    def test_resolve(self):
        from repro.db.chunk_plan import ChunkPlan

        data = make_dense_classification(50, 4, seed=16)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        task = LogisticRegressionTask(data.dimension)
        plan = ChunkPlan.resolve(table, task, database.executor.example_cache, 16)
        assert plan is not None
        assert [len(batch) for batch in plan] == [16, 16, 16, 2]

    def test_resolve_refuses_unbatchable(self):
        from repro.db.chunk_plan import ChunkPlan

        data = make_dense_classification(10, 4, seed=17)
        database = Database("postgres", seed=0)
        table = load_classification_table(database, "points", data.examples, sparse=False)
        cache = database.executor.example_cache
        assert ChunkPlan.resolve(table, None, cache, 16) is None
        assert ChunkPlan.resolve(table, PerTupleOnlyTask(4), cache, 16) is None
