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

import itertools
import os
import shutil
import weakref

import numpy as np
import pytest

from repro.core.driver import BismarckRunner, IGDConfig, train
from repro.core.ordering import (
    MultiplexedReservoir,
    ShuffleAlways,
    Subsample,
    make_ordering,
)
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.stepsize import make_schedule
from repro.core.uda import AccuracyAggregate, IGDAggregate, LossAggregate
from repro.data import (
    load_classification_table,
    load_ratings_table,
    load_sequences_table,
    make_dense_classification,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from repro.data.sequences import encode_sequence_for_storage
from repro.db import (
    ColumnType,
    Database,
    ExecutionError,
    FaultPlan,
    ProcessBackend,
    ProcessWorkerPool,
    Schema,
    SegmentedBackend,
    SegmentedDatabase,
    SerialBackend,
    Table,
    TrainEpochContext,
    compile_pass,
)
from repro.db import chunk_plan, process_backend
from repro.db.aggregates import SumAggregate, merge_partial_states
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.process_backend import (
    _apply_extend,
    _gather_slot,
    _run_uda_state,
    _worker_main,
    batches_payload_key,
)
from repro.db.supervisor import RecoveryPolicy
from repro.tasks.base import SupervisedExample
from repro.tasks.crf import ConditionalRandomFieldTask
from repro.tasks.logistic_regression import LogisticRegressionTask
from repro.tasks.matrix_factorization import LowRankMatrixFactorizationTask
from repro.tasks.svm import SVMTask

pytestmark = pytest.mark.backends


@pytest.fixture(scope="module")
def lr_workload():
    dataset = make_sparse_classification(90, 50, nonzeros_per_example=5, seed=11)
    return dataset, LogisticRegressionTask(dataset.dimension)


@pytest.fixture(scope="module")
def crf_workload():
    corpus = make_sequences(12, num_labels=3, seed=5)
    return corpus, lambda: ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)


@pytest.fixture(scope="module")
def one_matrix_examples():
    """Dense examples whose features are the rows of one matrix."""
    dataset = make_dense_classification(120, 6, seed=13)
    X = np.stack([example.features for example in dataset.examples])
    return [SupervisedExample(x, example.label) for x, example in zip(X, dataset.examples)]


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

    @pytest.mark.parametrize("source", ["one_matrix", "reopened"])
    def test_view_batches_cross_the_pool_bit_for_bit(self, one_matrix_examples, source, tmp_path):
        """Rows of one buffer decode to a view of it, and the pool's pages of
        that view train the in-process model: rows of one matrix, and a
        durable table's record block after reopen."""
        if source == "reopened":
            with SegmentedDatabase.open(tmp_path / "written", 2, seed=0) as database:
                load_classification_table(database, "pts", one_matrix_examples)
        runs = {}
        for backend in ("in_process", "process"):
            if source == "reopened":
                shutil.copytree(tmp_path / "written", tmp_path / backend)
                database = SegmentedDatabase.open(tmp_path / backend, 2, seed=0)
            else:
                database = SegmentedDatabase(2, "dbms_b", seed=0)
                load_classification_table(database, "pts", one_matrix_examples)
            with database:
                task = LogisticRegressionTask(6)
                runs[backend] = train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=3, ordering="clustered", seed=0,
                        parallelism=PureUDAParallelism(backend=backend),
                    ),
                )
                master = database.master
                (batch,) = master.executor.example_cache.batches_for(
                    master.table("pts"), task, master.executor.chunk_size
                )
                assert not batch.X.flags.owndata
                if backend == "process":
                    assert master.process_pool(2).transport_stats["page_payloads"] >= 1
        a, b = runs["in_process"], runs["process"]
        assert b.parallelism_name == "pure_uda+process" and not b.degraded
        assert np.array_equal(a.model.as_flat_vector(), b.model.as_flat_vector())
        assert a.objective_trace() == b.objective_trace()

    @pytest.mark.parametrize("backend", ["in_process", "process"])
    def test_merge_count_is_segments_minus_one(self, lr_workload, backend):
        """Both backends merge through merge_partial_states: n - 1 merges."""
        dataset, task = lr_workload
        # Fault-free: the direct call sits below SegmentedBackend's retry and fallback.
        with SegmentedDatabase(3, "dbms_b", seed=0, faults=()) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            outcome = database.run_parallel_aggregate(
                "pts", lambda: IGDAggregate(task, 0.1), backend=backend
            )
        assert outcome.num_segments == 3
        assert outcome.merges == 2
        assert outcome.total_tuples == len(dataset.examples)

    def test_process_backend_refuses_per_tuple(self, lr_workload):
        """Workers fold chunks only: a task that cannot batch is refused by
        name, where the in-process segments fold it per tuple."""
        dataset, task = lr_workload
        rows_task = _rows_twin(task)
        with SegmentedDatabase(2, "dbms_b", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            with pytest.raises(ExecutionError, match=r"cannot run chunked over table 'pts'"):
                database.run_parallel_aggregate(
                    "pts", lambda: IGDAggregate(rows_task, 0.1), backend="process"
                )
            outcome = database.run_parallel_aggregate(
                "pts", lambda: IGDAggregate(rows_task, 0.1)
            )
        assert outcome.total_tuples == len(dataset.examples)


def _rows_twin(task):
    """``task`` as a non-batching twin: the chunk-or-rows rule folds it per tuple."""
    twin = type(f"{type(task).__name__}Rows", (type(task),), {"supports_batches": False})
    return twin(task.dimension)


class TestProcessBackendPlans:
    def test_loss_aggregate_matches_serial(self, lr_workload):
        dataset, task = lr_workload
        model = task.initial_model()
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            serial = database.run_aggregate("pts", LossAggregate(task, model))
            plan = compile_pass(
                "loss", database.table("pts"), lambda: LossAggregate(task, model), workers=3
            )
            parallel = ProcessBackend(database).run(plan)
        assert parallel == pytest.approx(serial, rel=1e-12)

    def test_igd_matches_segmented_bit_for_bit(self, lr_workload):
        """Process partitions == a segmented run with equal segments."""
        dataset, task = lr_workload
        aggregate = lambda: IGDAggregate(task, 0.1)  # noqa: E731
        with SegmentedDatabase(4, "dbms_b", seed=0) as segmented:
            load_classification_table(segmented, "pts", dataset.examples, sparse=True)
            reference = segmented.run_parallel_aggregate("pts", aggregate).value
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            plan = compile_pass("generic", database.table("pts"), aggregate, workers=4)
            model = ProcessBackend(database).run(plan)
        assert np.array_equal(
            model.as_flat_vector(), reference.as_flat_vector()
        )

    def test_row_order_and_where_compose(self, lr_workload):
        dataset, task = lr_workload
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            table = database.table("pts")
            predicate = BinaryOp("<", ColumnRef("id"), Literal(60))
            order = np.random.default_rng(3).permutation(len(table))
            model_serial = database.run_aggregate(
                "pts", IGDAggregate(task, 0.1), where=predicate, row_order=order
            )
            # One worker: the process partition is the full serial visit order,
            # so the filtered + permuted pass must be bit-for-bit the serial one.
            plan = compile_pass(
                "generic", table, lambda: IGDAggregate(task, 0.1),
                where=predicate, row_order=order, workers=1,
            )
            model_process = ProcessBackend(database).run(plan)
        assert np.array_equal(
            model_serial.as_flat_vector(), model_process.as_flat_vector()
        )

    def test_per_tuple_execution_refused(self, lr_workload):
        """Pool workers fold chunks only: the per-tuple protocol is refused by name."""
        dataset, task = lr_workload
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=True)
        model = task.initial_model()
        with database:
            with pytest.raises(ExecutionError, match="per-tuple"):
                database.run_aggregate(
                    "pts", LossAggregate(task, model),
                    per_tuple=True, backend="process", process_workers=2,
                )

    def test_non_mergeable_aggregate_raises(self, lr_workload):
        from repro.db import FunctionalAggregate

        dataset, task = lr_workload
        counter = FunctionalAggregate(initialize=int, transition=lambda s, v: s + 1)
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            plan = compile_pass("generic", database.table("pts"), lambda: counter, workers=2)
            with pytest.raises(ExecutionError, match="does not support merge"):
                ProcessBackend(database).run(plan)


class TestSharedMemoryProcessSchemes:
    @pytest.mark.parametrize("workers", [1, 2, 4])  # 4: more workers than CI cores
    @pytest.mark.parametrize("scheme", ["nolock", "aig", "lock"])
    def test_scheme_converges_within_band(self, scheme, workers, lr_workload):
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
                parallelism=SharedMemoryParallelism(
                    scheme=scheme, workers=workers, backend="process"
                ),
                seed=0,
            ),
        )
        database.close_process_pools()
        assert run.parallelism_name == f"shared_memory[{scheme}x{workers}]+process"
        # The run must genuinely train (objective drops) and land in a band
        # around the serial optimum despite the racy update schedule.
        assert run.objective_trace()[-1] < run.objective_trace()[0]
        assert run.final_objective < serial.objective_trace()[0]
        assert run.final_objective <= serial.final_objective * 1.5
        # Epoch step accounting: steps returned == rows visited, every epoch.
        assert [record.gradient_steps for record in run.history] == [
            (epoch + 1) * len(dataset.examples) for epoch in range(4)
        ]
        if workers == 1:
            # One worker on the live pages is the serial kernel, step for step.
            assert np.array_equal(
                run.model.as_flat_vector(), serial.model.as_flat_vector()
            )

    def test_retried_nolock_epoch_starts_from_the_epoch_start_model(self, lr_workload):
        """``REPRO_FAULT=kill:worker=1:epoch=0`` on live pages: worker 0 has
        already stepped the shared model when the epoch aborts; the retry must
        not train on top of that."""
        dataset, task = lr_workload
        before = _shm_entries()

        def one_epoch(faults=()):
            database = Database(
                "postgres", seed=0, faults=faults,
                recovery=RecoveryPolicy(timeout=30.0, max_respawns=3, backoff=0.0),
            )
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            with database:
                return train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=1, ordering="shuffle_once", seed=0,
                        parallelism=SharedMemoryParallelism(
                            scheme="nolock", workers=2, backend="process"
                        ),
                    ),
                )

        clean = one_epoch()
        retried = one_epoch(faults=(FaultPlan("kill", worker=1, epoch=0),))
        assert [event.kind for event in retried.recovery_events] == ["death"]
        assert retried.history[0].gradient_steps == len(dataset.examples)
        # One epoch from the epoch-start model, not one and a half: the same
        # objective band as the undisturbed epoch.
        assert retried.final_objective == pytest.approx(clean.final_objective, rel=0.1)
        assert _shm_entries() <= before

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
        # one payload per worker: the columnar chunk list, which the gradient
        # epochs gather from and the pool-backed loss passes scan — published
        # once per (table, version), never re-shipped.
        assert {key[0] for (_worker, key) in pool._loaded} == {"batches"}
        assert len({key for (_worker, key) in pool._loaded}) == 1
        assert len(pool._loaded) == 2
        assert pool.transport_stats["page_payloads"] == 1
        database.close_process_pools()
        assert run.epochs_run == 3

    def test_per_tuple_execution_rejected(self, lr_workload):
        """The worker processes fold chunks only: a task that cannot batch is
        refused by name, not replayed per tuple."""
        dataset, task = lr_workload
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            with pytest.raises(ExecutionError, match=r"cannot run chunked over table 'pts'"):
                train(
                    _rows_twin(task), database, "pts",
                    config=IGDConfig(
                        max_epochs=1,
                        parallelism=SharedMemoryParallelism(
                            scheme="nolock", workers=2, backend="process"
                        ),
                        seed=0,
                    ),
                )


# ---------------------------------------------------------------------------
# Worker gather cache: correct under load / extend / drop
# ---------------------------------------------------------------------------
class TestWorkerGatherCache:
    """The kept ``(ordinals, gathered)`` pair, driven without a pool."""

    @staticmethod
    def _resident(dataset, rows):
        """(database, task, key, payloads) with ``rows`` examples resident."""
        database = Database("postgres", seed=0)
        database.executor.chunk_size = 16
        load_classification_table(database, "pts", dataset.examples[:rows], sparse=True)
        task = LogisticRegressionTask(dataset.dimension)
        table = database.table("pts")
        batches = database.executor.example_cache.batches_for(table, task, 16)
        key = batches_payload_key(table, task, 16)
        return database, task, key, {key: list(batches)}

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []

        def counting(batches, ordinals, chunk_size):
            calls.append(len(ordinals))
            return real(batches, ordinals, chunk_size)

        real = process_backend.gather_batches
        monkeypatch.setattr(process_backend, "gather_batches", counting)
        return calls

    def test_a_new_order_walks_an_equal_repeat_gathers_once(self, lr_workload, gathers):
        dataset, _ = lr_workload
        database, task, key, payloads = self._resident(dataset, 90)
        order = np.random.default_rng(1).permutation(90)
        run = lambda ordinals: _run_uda_state(  # noqa: E731
            payloads, ("uda_state", key, IGDAggregate(task, 0.1), ordinals)
        ).model.as_flat_vector()
        first = run(order)
        assert gathers == []  # first sight: walked over the resident chunks
        # Equal, not identical: what the pipe delivers.  The repeat gathers
        # once and keeps the copy; the next repeat reads it.
        second, third = run(order.copy()), run(order.copy())
        assert gathers == [90]
        assert np.array_equal(first, second) and np.array_equal(first, third)
        serial = database.run_aggregate(
            "pts", IGDAggregate(task, 0.1), row_order=order
        )
        assert np.array_equal(first, serial.as_flat_vector())
        run(np.random.default_rng(2).permutation(90))
        assert gathers == [90]  # a different order is walked, and replaces the copy
        assert payloads[_gather_slot(key)][1] is None

    def test_identity_range_is_the_resident_list(self, lr_workload, gathers):
        dataset, _ = lr_workload
        database, task, key, payloads = self._resident(dataset, 90)
        state = _run_uda_state(
            payloads, ("uda_state", key, IGDAggregate(task, 0.1), range(90))
        )
        assert gathers == [] and _gather_slot(key) not in payloads
        serial = database.run_aggregate("pts", IGDAggregate(task, 0.1))
        assert np.array_equal(state.model.as_flat_vector(), serial.as_flat_vector())

    def test_batches_tail_extend_discards_the_kept_gather(self, lr_workload, gathers):
        dataset, _ = lr_workload
        database, task, key, payloads = self._resident(dataset, 70)
        order = np.random.default_rng(3).permutation(70)
        for _ in range(2):  # walked, then gathered and kept
            _run_uda_state(payloads, ("uda_state", key, IGDAggregate(task, 0.1), order))
        assert payloads[_gather_slot(key)][1] is not None
        # Append 20 rows; ship them the way _ship_batches does.
        database.insert(
            "pts", [(70 + i, ex.features, ex.label) for i, ex in enumerate(dataset.examples[70:])]
        )
        table = database.table("pts")
        extended = database.executor.example_cache.batches_for(table, task, 16)
        appended = process_backend.gather_batches(extended, np.arange(70, 90), 16)
        gathers.clear()
        _apply_extend(payloads, key, "batches_tail", (70, appended))
        assert _gather_slot(key) not in payloads
        assert [len(b) for b in payloads[key]] == [len(b) for b in extended]
        # Replaying the same delta (a retried shipment) is idempotent.
        _apply_extend(payloads, key, "batches_tail", (70, appended))
        assert [len(b) for b in payloads[key]] == [len(b) for b in extended]
        wider = np.random.default_rng(4).permutation(90)
        serial = database.run_aggregate(
            "pts", IGDAggregate(task, 0.1), row_order=wider
        ).as_flat_vector()
        for gathered in ([], [90]):  # walked, then gathered: the new rows, not stale ones
            state = _run_uda_state(payloads, ("uda_state", key, IGDAggregate(task, 0.1), wider))
            assert gathers == gathered
            assert np.array_equal(state.model.as_flat_vector(), serial)

    def test_load_and_drop_leave_no_gathered_copy_reachable(self, lr_workload, monkeypatch):
        """Drive the real worker loop over a scripted pipe, in this process."""
        dataset, _ = lr_workload
        _, task, key, payloads = self._resident(dataset, 90)
        import pickle

        gathered_refs = []
        real = process_backend.gather_batches

        def tracking(batches, ordinals, chunk_size):
            result = real(batches, ordinals, chunk_size)
            gathered_refs.extend(weakref.ref(batch.y) for batch in result)
            return result

        monkeypatch.setattr(process_backend, "gather_batches", tracking)
        payload = pickle.dumps(payloads[key])
        order = np.random.default_rng(5).permutation(90)
        compute = ("uda_state", key, IGDAggregate(task, 0.1), order)

        class Pipe:
            def __init__(self, script):
                self.script, self.replies, self.alive_at = list(script), [], []

            def poll(self, _timeout):
                return True

            def recv(self):
                return self.script.pop(0)

            def send(self, reply):
                self.replies.append(reply[0])
                self.alive_at.append(sum(ref() is not None for ref in gathered_refs))

        pipe = Pipe([
            ("load", key, payload), compute, compute, ("load", key, payload),
            compute, compute, ("drop", key), ("stop",),
        ])
        _worker_main(pipe, lock=None)
        assert pipe.replies == ["ok"] * 8
        (after_first_load, after_walk, after_gather, after_reload,
         after_rewalk, after_regather, after_drop, _) = pipe.alive_at
        assert after_first_load == 0 and after_walk == 0 and after_gather > 0
        assert after_reload == 0  # a re-load discards the kept gather
        assert after_rewalk == 0 and after_regather > 0 and after_drop == 0

    def test_partial_fit_over_a_real_pool_matches_in_process(self, lr_workload):
        """insert + partial_fit: process pure-UDA == in-process; nolock in band."""
        dataset, _ = lr_workload
        task = LogisticRegressionTask(dataset.dimension)
        base, extra = dataset.examples[:70], dataset.examples[70:]
        extra_rows = [(70 + i, ex.features, ex.label) for i, ex in enumerate(extra)]

        def refreshed(make_db, spec):
            database = make_db()
            load_classification_table(database, "pts", base, sparse=True)
            runner = BismarckRunner(
                database, task,
                IGDConfig(max_epochs=3, ordering="shuffle_once", seed=0, parallelism=spec),
            )
            with database:
                trained = runner.train("pts")
                database.insert("pts", extra_rows)
                return runner.partial_fit(
                    "pts", initial_model=trained.model,
                    since_version=trained.table_version, full_pass_every=2,
                )

        segmented = lambda: SegmentedDatabase(2, "dbms_b", seed=0)  # noqa: E731
        in_process = refreshed(segmented, PureUDAParallelism())
        process = refreshed(segmented, PureUDAParallelism(backend="process"))
        assert np.array_equal(
            in_process.model.as_flat_vector(), process.model.as_flat_vector()
        )
        plain = lambda: Database("postgres", seed=0)  # noqa: E731
        simulated = refreshed(plain, SharedMemoryParallelism(scheme="nolock", workers=2))
        racy = refreshed(
            plain, SharedMemoryParallelism(scheme="nolock", workers=2, backend="process")
        )
        assert racy.final_objective == pytest.approx(simulated.final_objective, rel=0.25)
        assert racy.history[-1].gradient_steps == simulated.history[-1].gradient_steps


# ---------------------------------------------------------------------------
# Generated parity matrix: the worker chunk path vs its in-process references
# ---------------------------------------------------------------------------
def _classification(dataset, sparse, make_task):
    return {
        "examples": dataset.examples,
        "load": lambda db, examples: load_classification_table(db, "t", examples, sparse=sparse),
        "rows": lambda start, examples: [
            (start + i, ex.features, ex.label) for i, ex in enumerate(examples)
        ],
        "task": lambda: make_task(dataset.dimension),
        "column": "id",
    }


def _matrix_workloads():
    ratings = make_ratings(12, 10, 72, rank=3, seed=3)
    corpus = make_sequences(36, num_labels=3, seed=5)
    return {
        "dense_lr": _classification(
            make_dense_classification(72, 6, seed=1), False, LogisticRegressionTask
        ),
        "sparse_lr": _classification(
            make_sparse_classification(72, 40, nonzeros_per_example=5, seed=2),
            True, LogisticRegressionTask,
        ),
        "svm": _classification(make_dense_classification(72, 6, seed=4), False, SVMTask),
        "lmf": {
            "examples": ratings.examples,
            "load": lambda db, examples: load_ratings_table(db, "t", examples),
            "rows": lambda start, examples: [(ex.row, ex.col, ex.value) for ex in examples],
            "task": lambda: LowRankMatrixFactorizationTask(12, 10, rank=3),
            "column": "row_id",
        },
        "crf": {  # DecodedExampleBatch / SequenceBatch chunks
            "examples": corpus.examples,
            "load": lambda db, examples: load_sequences_table(db, "t", examples),
            "rows": lambda start, examples: [
                (start + i, *encode_sequence_for_storage(ex)) for i, ex in enumerate(examples)
            ],
            "task": lambda: ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
            "column": "id",
        },
    }


MATRIX_WORKLOADS = _matrix_workloads()
MATRIX = list(itertools.product(sorted(MATRIX_WORKLOADS), ("fresh", "appended")))
ORDERS = ("heap", "where", "shuffled", "where+shuffled")
DISPATCH = ("in_process", "process")


def _engine(database):
    return database.master if isinstance(database, SegmentedDatabase) else database


def _populate(database, workload, history, warm):
    """Load the table fresh, or as 2/3 of it + a warm pass + two appends."""
    examples = workload["examples"]
    _engine(database).executor.chunk_size = 8
    if history == "fresh":
        workload["load"](database, examples)
        return
    cut, step = len(examples) * 2 // 3, len(examples) // 6
    workload["load"](database, examples[:cut])
    warm()  # payloads resident before the appends: the deltas must ship
    for start in (cut, cut + step):
        stop = len(examples) if start == cut + step else start + step
        database.insert("t", workload["rows"](start, examples[start:stop]))


def _predicate(workload, order):
    if not order.startswith("where"):
        return None
    column = workload["column"]
    bound = 6 if column == "row_id" else len(workload["examples"]) * 3 // 4
    return BinaryOp("<", ColumnRef(column), Literal(bound))


class TestWorkerChunkPathParityMatrix:
    """{task} x {order} x {append history} x {dispatch}, bit-for-bit."""

    @pytest.mark.parametrize("name,history", MATRIX)
    def test_process_pure_uda_equals_in_process_segmented(self, name, history):
        workload = MATRIX_WORKLOADS[name]
        task = workload["task"]()
        factory = lambda: IGDAggregate(task, 0.05)  # noqa: E731
        models = {}
        for backend in DISPATCH:
            with SegmentedDatabase(3, "dbms_b", seed=0) as database:
                plan = lambda **kw: compile_pass(  # noqa: E731
                    "train", database.table("t"), factory, where=kw.get("where"),
                    train=TrainEpochContext(
                        task=task, model=None, schedule=None, proximal=None,
                        segment_row_orders=kw.get("segment_row_orders"),
                    ),
                )
                run = lambda **kw: SegmentedBackend(  # noqa: E731
                    database, process=backend == "process"
                ).run(plan(**kw))[0].as_flat_vector()
                _populate(database, workload, history, warm=run)
                rng = np.random.default_rng(9)
                rows = len(database.table("t"))
                shuffles = [rng.permutation(len(range(i, rows, 3))) for i in range(3)]
                for order in ORDERS:
                    pass_ = dict(
                        where=_predicate(workload, order),
                        segment_row_orders=shuffles if order.endswith("shuffled") else None,
                    )
                    models[backend, order] = run(**pass_)
                    # shuffle_once: the same order again is served from the
                    # kept gather and must not change the model.
                    assert np.array_equal(models[backend, order], run(**pass_))
        for order in ORDERS:
            assert np.array_equal(models["in_process", order], models["process", order]), order

    @pytest.mark.parametrize("name,history", MATRIX)
    def test_process_ordinal_plans_equal_the_serial_backend(self, name, history):
        workload = MATRIX_WORKLOADS[name]
        task = workload["task"]()
        with Database("postgres", seed=0) as database:

            def plans(order):
                table = database.table("t")
                shuffle = (
                    np.random.default_rng(7).permutation(len(table))
                    if order.endswith("shuffled") else None
                )
                common = dict(where=_predicate(workload, order), row_order=shuffle, workers=3)
                model = task.initial_model()
                return (
                    compile_pass("generic", table, lambda: IGDAggregate(task, 0.05), **common),
                    compile_pass("loss", table, lambda: LossAggregate(task, model), **common),
                )

            _populate(
                database, workload, history,
                warm=lambda: [ProcessBackend(database).run(plan) for plan in plans("shuffled")],
            )
            for order in ORDERS:
                gradient, loss = plans(order)
                serial = SerialBackend(database).run(gradient)
                process = ProcessBackend(database).run(gradient)
                assert np.array_equal(serial.as_flat_vector(), process.as_flat_vector()), order
                assert ProcessBackend(database).run(loss) == SerialBackend(database).run(loss)


# ---------------------------------------------------------------------------
# Physical-reference differential matrix: a segment is a slice of ordinals
# ---------------------------------------------------------------------------
def _physical_segments(master, count):
    """Rows ``i::count`` loaded as ``count`` tables of their own — the second
    copy ``SegmentedDatabase`` used to keep, rebuilt here as a test reference."""
    rows = list(master.scan_values())
    segments = [Table(f"{master.name}__seg{i}", master.schema) for i in range(count)]
    for index, segment in enumerate(segments):
        segment.insert_many(rows[index::count])
    return segments


STEP, EPOCHS, SEED = 0.05, 2, 3
PHYSICAL_DATA = {
    "dense": _classification(
        make_dense_classification(45, 5, seed=6), False, LogisticRegressionTask
    ),
    "sparse": _classification(
        make_sparse_classification(45, 30, nonzeros_per_example=4, seed=7),
        True, LogisticRegressionTask,
    ),
}
#: (segments, rows used): the last entry has more segments than rows.
PHYSICAL_WIDTHS = {"S1": (1, 45), "S2": (2, 45), "S3": (3, 45), "S>rows": (5, 4)}
PHYSICAL_ORDERINGS = {
    "clustered": lambda: "clustered",
    "shuffle_once": lambda: "shuffle_once",
    "shuffle_always": lambda: "shuffle_always",
    "physical": lambda: ShuffleAlways(mode="physical"),
    # Per-segment reservoirs: a subset, and a sequence with repeats.
    "subsample": lambda: Subsample(12),
    "mrs": lambda: MultiplexedReservoir(12),
}


def _physical_reference(workload, examples, appended, segments, ordering):
    """train() [+ insert + partial_fit()] over physical slices: every epoch
    folds ``run_state`` over each segment table with its segment-local order
    and merges — the semantics the ordinal partition must reproduce."""
    task = workload["task"]()
    schedule = make_schedule(STEP)
    with Database("postgres", seed=0) as reference:
        reference.executor.chunk_size = 8
        workload["load"](reference, examples)
        master = reference.table("t")

        def epoch_pass(epoch, model, offset, orders_of):
            slices = _physical_segments(master, segments)
            instance = IGDAggregate(
                task, schedule, initial_model=model, epoch=epoch, step_offset=offset
            )
            states = [
                reference.executor.run_state(
                    segment, instance, row_order=order
                )
                for segment, order in zip(slices, orders_of(slices))
            ]
            merged = merge_partial_states(instance, states)
            return merged, merged.metadata["gradient_steps"]

        rng = np.random.default_rng(SEED)
        policy = make_ordering(ordering)
        policy.prepare(master, rng)
        model, offset = task.initial_model(rng), 0
        for epoch in range(EPOCHS):
            policy.before_epoch(master, epoch, rng)
            model, offset = epoch_pass(epoch, model, offset, lambda slices: [
                policy.epoch_row_order(len(segment), epoch, rng, partition=index)
                for index, segment in enumerate(slices)
            ])
        if appended:
            base = len(master)
            master.insert_many(workload["rows"](base, appended))
            rng, offset = np.random.default_rng(SEED), 0
            for epoch in range(EPOCHS):
                start = 0 if epoch == EPOCHS - 1 else base  # the last pass is full
                model, offset = epoch_pass(epoch, model, offset, lambda slices: [
                    old + rng.permutation(len(segment) - old)
                    for index, segment in enumerate(slices)
                    for old in [len(range(index, start, segments))]
                ])
        return model.as_flat_vector()


class TestPhysicalReferenceMatrix:
    """{dense, sparse} x S x ordering x {in-process, pool} x append history."""

    @pytest.mark.parametrize("history", ["fresh", "appended"])
    @pytest.mark.parametrize("ordering", sorted(PHYSICAL_ORDERINGS))
    @pytest.mark.parametrize("width", sorted(PHYSICAL_WIDTHS))
    @pytest.mark.parametrize("data", sorted(PHYSICAL_DATA))
    def test_training_equals_the_physical_slices(self, data, width, ordering, history):
        workload = PHYSICAL_DATA[data]
        segments, rows = PHYSICAL_WIDTHS[width]
        examples = workload["examples"][:rows]
        appended = workload["examples"][rows:rows + max(1, rows // 4)] if history == "appended" else []
        expected = _physical_reference(
            workload, examples, appended, segments, PHYSICAL_ORDERINGS[ordering]()
        )
        for dispatch in DISPATCH:
            # Fault-free: this matrix pins partition arithmetic, not recovery.
            with SegmentedDatabase(segments, "dbms_b", seed=0, faults=()) as database:
                database.master.executor.chunk_size = 8
                workload["load"](database, examples)
                runner = BismarckRunner(
                    database, workload["task"](),
                    IGDConfig(
                        step_size=STEP, max_epochs=EPOCHS, seed=SEED,
                        ordering=PHYSICAL_ORDERINGS[ordering](),
                        parallelism=PureUDAParallelism(backend=dispatch),
                    ),
                )
                result = runner.train("t")
                if appended:
                    database.insert("t", workload["rows"](rows, appended))
                    result = runner.partial_fit(
                        "t", initial_model=result.model,
                        since_version=result.table_version, full_pass_every=EPOCHS,
                    )
                assert not result.degraded
                assert np.array_equal(result.model.as_flat_vector(), expected), dispatch

    @pytest.mark.parametrize("history", ["fresh", "appended"])
    @pytest.mark.parametrize("width", sorted(PHYSICAL_WIDTHS))
    @pytest.mark.parametrize("data", sorted(PHYSICAL_DATA))
    def test_evaluation_passes_equal_the_serial_backend(self, data, width, history):
        """Loss / accuracy / generic SUM, with and without WHERE, at equal width."""
        workload = PHYSICAL_DATA[data]
        segments, rows = PHYSICAL_WIDTHS[width]
        task = workload["task"]()
        model = task.initial_model(np.random.default_rng(1))
        passes = {
            "loss": (lambda: LossAggregate(task, model), None),
            "accuracy": (lambda: AccuracyAggregate(task, model), None),
            "generic": (SumAggregate, "label"),
        }
        workload = dict(workload, examples=workload["examples"][:rows])
        with SegmentedDatabase(segments, "dbms_b", seed=0) as database:
            table_of = lambda: database.table("t")  # noqa: E731
            compiled = lambda kind, where: compile_pass(  # noqa: E731
                kind, table_of(), passes[kind][0], argument=passes[kind][1],
                where=where, workers=segments,
            )
            _populate(
                database, workload, history,
                warm=lambda: [
                    SegmentedBackend(database, process=True).run(compiled(kind, None))
                    for kind in passes
                ],
            )
            for kind, order in itertools.product(passes, ("heap", "where")):
                where = _predicate(workload, order)
                expected = SerialBackend(database.master).run(compiled(kind, where))
                for process in (False, True):
                    value = SegmentedBackend(database, process=process).run(compiled(kind, where))
                    assert value == expected, (kind, order, process)
                if segments > 1:
                    assert ProcessBackend(database.master).run(compiled(kind, where)) == expected


class TestPartitionedPassCounts:
    """What a partitioned pass costs, pinned by count rather than by time."""

    @pytest.fixture
    def segmented(self, lr_workload):
        dataset, task = lr_workload
        # Fault-free: a retried pass would be counted twice.
        with SegmentedDatabase(3, "dbms_b", seed=0, faults=()) as database:
            database.master.executor.chunk_size = 8
            load_classification_table(database, "pts", dataset.examples[:70], sparse=True)
            yield database, task, dataset

    @pytest.mark.parametrize("backend", DISPATCH)
    def test_one_scan_per_pass(self, segmented, backend):
        database, task, _ = segmented
        table = database.table("pts")
        model = task.initial_model()
        for factory in (lambda: LossAggregate(task, model), lambda: IGDAggregate(task, 0.1)):
            before = table.scan_count
            outcome = database.run_parallel_aggregate("pts", factory, backend=backend)
            assert outcome.num_segments == 3 and outcome.total_tuples == len(table)
            assert table.scan_count == before + 1

    def test_only_a_pure_uda_epoch_ships_the_model(self, segmented):
        """``op_bytes_shipped`` over the same rows at two model widths: every
        pure-UDA part's message holds the state, a ``nolock`` worker's holds
        nothing that grows with the model (it lives in the shared pages)."""
        database, _, dataset = segmented
        pool = database.master.process_pool(3)

        def epoch_bytes(target, parallelism, dimension):
            config = IGDConfig(
                max_epochs=1, seed=0, compute_objective=False, parallelism=parallelism
            )
            before = pool.transport_stats["op_bytes_shipped"]
            train(LogisticRegressionTask(dimension), target, "pts", config=config)
            return pool.transport_stats["op_bytes_shipped"] - before

        narrow, wide = dataset.dimension, dataset.dimension + 5000
        schemes = {
            "pure_uda": (database, PureUDAParallelism(backend="process")),
            "nolock": (
                database.master,
                SharedMemoryParallelism(scheme="nolock", workers=3, backend="process"),
            ),
        }
        growth = {
            name: epoch_bytes(*scheme, wide) - epoch_bytes(*scheme, narrow)
            for name, scheme in schemes.items()
        }
        assert growth["pure_uda"] >= 3 * 8 * (wide - narrow)
        assert 0 <= growth["nolock"] < 3 * 64

    def test_segmented_insert_decodes_each_row_once_and_ships_one_extend(self, segmented):
        database, task, dataset = segmented
        cache = database.master.executor.example_cache
        config = IGDConfig(
            max_epochs=2, seed=0, ordering="shuffle_once",
            parallelism=PureUDAParallelism(backend="process"),
        )
        runner = BismarckRunner(database, task, config)
        trained = runner.train("pts")
        assert cache.decoded_rows == 70 and cache.misses == 1
        pool = database.master.process_pool(3)
        assert pool.transport_stats["page_payloads"] == 1  # gradient + loss share it
        assert len({key for (_worker, key) in pool._loaded}) == 1
        database.insert(
            "pts", [(70 + i, ex.features, ex.label) for i, ex in enumerate(dataset.examples[70:])]
        )
        result = runner.partial_fit(
            "pts", initial_model=trained.model, since_version=trained.table_version
        )
        assert not trained.degraded and not result.degraded
        assert cache.decoded_rows == len(dataset.examples) and cache.misses == 1
        (record,) = pool._payload_bytes.values()
        assert len(record.deltas) == 1  # the appended rows, shipped once
        assert pool.transport_stats["page_payloads"] == 2

    def test_in_process_parts_walk_then_gather_once_and_free_with_the_order(
        self, segmented, monkeypatch
    ):
        database, task, dataset = segmented
        gathers, copies = [], []
        real = chunk_plan.gather_batches

        def recording(batches, ordinals, size):
            gathers.append(len(ordinals))
            gathered = real(batches, ordinals, size)
            copies.extend(weakref.ref(batch.y) for batch in gathered)
            return gathered

        monkeypatch.setattr(chunk_plan, "gather_batches", recording)
        config = lambda ordering: IGDConfig(  # noqa: E731
            max_epochs=3, seed=0, ordering=ordering, parallelism=PureUDAParallelism()
        )
        train(task, database, "pts", config=config("shuffle_once"))
        # Epoch 0 walks every part; epoch 1 asks for the same parts again
        # and gathers each once; epoch 2 reads the kept copies.
        assert sorted(gathers) == [23, 23, 24]
        # The run's ordering policy died with train(), and the copies with it.
        assert copies and all(ref() is None for ref in copies)
        gathers.clear()
        database.insert("pts", [(70, dataset.examples[70].features, dataset.examples[70].label)])
        train(task, database, "pts", config=config("shuffle_once"))
        assert sorted(gathers) == [23, 24, 24]  # a new version walks, then gathers once
        gathers.clear()
        train(task, database, "pts", config=config("shuffle_always"))
        assert gathers == []  # fresh per-epoch orders are only ever walked


class TestUnbatchablePairs:
    def test_process_backends_fail_by_name_in_process_trains_per_tuple(self):
        """Dense arrays mixed with sparse mappings: ``make_example_batch``
        rejects the column, the per-tuple kernels take every row."""
        dataset = make_dense_classification(40, 5, seed=8)
        schema = Schema.of(
            ("id", ColumnType.INTEGER), ("vec", ColumnType.ANY), ("label", ColumnType.FLOAT)
        )
        rows = [
            (i, ex.features if i % 2 else dict(enumerate(ex.features.tolist())), ex.label)
            for i, ex in enumerate(dataset.examples)
        ]
        task = LogisticRegressionTask(5)

        def run(make_db, spec):
            table = Table("mixed", schema)
            table.insert_many(rows)
            with make_db() as database:
                if isinstance(database, SegmentedDatabase):
                    database.load_table(table)
                else:
                    database.register_table(table)
                return train(
                    task, database, "mixed",
                    config=IGDConfig(max_epochs=2, seed=0, parallelism=spec),
                )

        plain = lambda: Database("postgres", seed=0)  # noqa: E731
        segmented = lambda: SegmentedDatabase(2, "dbms_b", seed=0)  # noqa: E731
        for make_db, spec in (
            (plain, SharedMemoryParallelism(scheme="nolock", workers=2, backend="process")),
            (segmented, PureUDAParallelism(backend="process")),
        ):
            with pytest.raises(
                ExecutionError, match=r"cannot run chunked over table 'mixed.*logistic_regression"
            ):
                run(make_db, spec)
        serial = run(plain, None)
        simulated = run(plain, SharedMemoryParallelism(scheme="nolock", workers=2))
        in_process = run(segmented, PureUDAParallelism())
        for result in (serial, simulated, in_process):
            assert result.epochs_run == 2
            assert result.objective_trace()[-1] < result.objective_trace()[0]


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

    def test_op_bytes_count_run_messages_not_payload_shipments(self):
        import pickle

        with ProcessWorkerPool(2) as pool:
            pool.ensure_loaded(range(2), ("blob",), lambda: list(range(1000)))
            assert pool.transport_stats["pickle_bytes_shipped"] > 0
            assert pool.transport_stats["op_bytes_shipped"] == 0
            messages = {0: ("ping",), 1: ("ping",)}
            pool.run(messages)
            assert pool.transport_stats["op_bytes_shipped"] == sum(
                len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
                for message in messages.values()
            )

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
                executor=database.executor,
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
        assert result.cores >= 1
