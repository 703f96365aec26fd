"""Zero-copy shared-memory chunk pages.

The ISSUE-10 acceptance bars:

* **the wire form is invisible to the arithmetic** — every deterministic
  scheme (pure-UDA train, loss, accuracy, generic SQL aggregates,
  ``partial_fit`` extend chains including supervisor respawn replay)
  produces bit-for-bit identical results whether payloads ship as
  ``/dev/shm`` chunk pages or — publication failing — pickled;
* **pages actually page** — dense payloads publish into named pages and the
  pool's transport stats show the pipe carrying descriptors, not arrays;
* **no residue** — pages are unlinked by ``Database.close()`` and the atexit
  sweep; ``/dev/shm`` returns to baseline after every page-transport run;
* **fallback** — a failed publish (``/dev/shm`` exhaustion) degrades that
  payload to pickled bytes, counted, with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.driver import BismarckRunner, IGDConfig, train
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.uda import AccuracyAggregate, LossAggregate
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import Database, FaultPlan, SegmentedDatabase
from repro.db.shared_memory import (
    ChunkPageSet,
    attach_chunk_pages,
)
from repro.db.supervisor import RecoveryPolicy
from repro.tasks.logistic_regression import LogisticRegressionTask

pytestmark = pytest.mark.backends

FAST = RecoveryPolicy(timeout=30.0, max_respawns=3, backoff=0.0)
DIMENSION = 8


@pytest.fixture(scope="module")
def dense_workload():
    dataset = make_dense_classification(96, DIMENSION, seed=9)
    return dataset, LogisticRegressionTask(DIMENSION, mu=0.01)


@pytest.fixture(scope="module")
def sparse_workload():
    dataset = make_sparse_classification(90, 40, nonzeros_per_example=5, seed=13)
    return dataset, LogisticRegressionTask(dataset.dimension)


def _shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@contextmanager
def _wire(form: str):
    """``"pages"`` is the engine as shipped; ``"fallback"`` makes every page
    publication fail like an exhausted ``/dev/shm``, forcing pickled bytes."""
    if form == "pages":
        yield
        return

    def refuse(cls, arrays):
        raise OSError(28, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChunkPageSet, "publish", classmethod(refuse))
        yield


def _assert_fell_back(stats) -> None:
    assert stats["page_fallbacks"] > 0
    assert stats["page_payloads"] == 0
    assert stats["pickle_payloads"] >= 1


# ---------------------------------------------------------------------------
# ChunkPageSet publish/attach round trip
# ---------------------------------------------------------------------------
class TestChunkPageSet:
    def test_round_trip_mixed_dtypes(self):
        arrays = [
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.arange(7, dtype=np.intp),
            np.array([], dtype=np.float32),
            np.arange(5, dtype=np.int32),
        ]
        pages = ChunkPageSet.publish(arrays)
        try:
            assert pages.nbytes == pages.descriptor.total_bytes
            shm, views = attach_chunk_pages(pages.descriptor)
            try:
                assert len(views) == len(arrays)
                for original, view in zip(arrays, views):
                    assert view.dtype == original.dtype
                    assert view.shape == original.shape
                    np.testing.assert_array_equal(view, original)
                    assert not view.flags.writeable
            finally:
                del views
                shm.close()
        finally:
            pages.free()

    def test_free_is_idempotent_and_unlinks(self):
        pages = ChunkPageSet.publish([np.ones(16)])
        name = pages.descriptor.segment
        assert name in os.listdir("/dev/shm")
        pages.free()
        assert name not in os.listdir("/dev/shm")
        pages.free()  # second free is a no-op

    def test_worker_views_survive_parent_unlink(self):
        """Unlink-first semantics: attached mappings outlive the name."""
        pages = ChunkPageSet.publish([np.arange(10, dtype=np.float64)])
        shm, views = attach_chunk_pages(pages.descriptor)
        try:
            pages.free()  # name gone, mapping still valid
            np.testing.assert_array_equal(views[0], np.arange(10, dtype=np.float64))
        finally:
            del views
            shm.close()


# ---------------------------------------------------------------------------
# Bit-for-bit parity: pages vs the forced pickle fallback, every
# deterministic scheme
# ---------------------------------------------------------------------------
class TestFallbackParity:
    def _train(self, dataset, task, form, *, sparse):
        with _wire(form), SegmentedDatabase(3, "dbms_b", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples, sparse=sparse)
            run = train(
                task,
                database,
                "pts",
                config=IGDConfig(
                    max_epochs=2,
                    ordering="shuffle_once",
                    parallelism=PureUDAParallelism(backend="process"),
                    seed=0,
                ),
            )
            stats = dict(database.master.process_pool(3).transport_stats)
        return run, stats

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_pure_uda_train_bit_for_bit(self, dense_workload, sparse_workload, sparse):
        dataset, task = sparse_workload if sparse else dense_workload
        paged, stats = self._train(dataset, task, "pages", sparse=sparse)
        pickled, fallback_stats = self._train(dataset, task, "fallback", sparse=sparse)
        assert np.array_equal(
            pickled.model.as_flat_vector(), paged.model.as_flat_vector()
        )
        assert pickled.objective_trace() == paged.objective_trace()
        assert stats["page_payloads"] >= 1 and stats["page_fallbacks"] == 0
        _assert_fell_back(fallback_stats)
        if not sparse:
            # Dense payloads page wholesale; sparse dict-feature examples
            # have no arrays to lift and legitimately stay pickled.
            assert stats["pickle_payloads"] == 0
            # The pipe carried descriptors + skeletons, not the arrays.
            assert stats["pages_bytes_shipped"] < stats["page_bytes"]

    def test_pages_are_cheap_on_the_pipe(self):
        """At a realistic width the pipe carries an order of magnitude fewer
        bytes than the pages hold (the point of paging)."""
        dataset = make_dense_classification(2000, 54, seed=3)
        _, stats = self._train(
            dataset, LogisticRegressionTask(dataset.dimension), "pages", sparse=False
        )
        assert stats["pages_bytes_shipped"] * 10 <= stats["page_bytes"]

    @pytest.mark.parametrize("kind", ["loss", "accuracy"])
    def test_scalar_aggregates_bit_for_bit(self, dense_workload, kind):
        dataset, task = dense_workload
        model = task.initial_model()
        make = LossAggregate if kind == "loss" else AccuracyAggregate
        values, stats = {}, {}
        for form in ("pages", "fallback"):
            with _wire(form), Database("postgres", seed=0) as database:
                load_classification_table(database, "pts", dataset.examples)
                database.executor.chunk_size = 16
                serial = database.run_aggregate("pts", make(task, model))
                values[form] = database.run_aggregate(
                    "pts", make(task, model), backend="process",
                    process_workers=2,
                )
                stats[form] = dict(database.process_pool(2).transport_stats)
        assert values["fallback"] == values["pages"] == serial  # exact, not approx
        assert stats["pages"]["page_payloads"] >= 1
        _assert_fell_back(stats["fallback"])

    def test_generic_sql_aggregate_matches(self, dense_workload):
        dataset, _ = dense_workload
        values = {}
        for form in ("pages", "fallback"):
            with _wire(form), Database("postgres", seed=0) as database:
                load_classification_table(database, "pts", dataset.examples)
                values[form] = database.run_aggregate(
                    "pts", "sum", "id", backend="process",
                    process_workers=2,
                )
        assert values["fallback"] == values["pages"]

    def test_process_shmem_single_worker_bit_for_bit(self, dense_workload):
        """workers=1 shmem epochs are deterministic: wire forms must agree."""
        dataset, task = dense_workload
        vectors = {}
        for form in ("pages", "fallback"):
            with _wire(form), Database("postgres", seed=0) as database:
                load_classification_table(database, "pts", dataset.examples)
                run = train(
                    task,
                    database,
                    "pts",
                    config=IGDConfig(
                        max_epochs=2,
                        ordering="shuffle_once",
                        seed=0,
                        parallelism=SharedMemoryParallelism(
                            workers=1, scheme="nolock", backend="process"
                        ),
                    ),
                )
                vectors[form] = run.model.as_flat_vector()
        assert np.array_equal(vectors["fallback"], vectors["pages"])


# ---------------------------------------------------------------------------
# Extend chains: append deltas publish pages; respawn replays them
# ---------------------------------------------------------------------------
class TestExtendChainParity:
    def _partial_fit(self, base, stream, task, form, *, faults=()):
        with _wire(form):
            database = SegmentedDatabase(
                2, "dbms_b", seed=0, recovery=FAST, faults=faults
            )
            load_classification_table(database, "pts", base.examples)
            config = IGDConfig(
                max_epochs=2, ordering="shuffle_once", seed=0,
                parallelism=PureUDAParallelism(backend="process"),
            )
            runner = BismarckRunner(database, task, config)
            try:
                trained = runner.train("pts")
                start = len(base.examples)
                half = len(stream.examples) // 2
                for lo, hi in ((0, half), (half, len(stream.examples))):
                    database.insert(
                        "pts",
                        [
                            (start + i, ex.features, ex.label)
                            for i, ex in enumerate(stream.examples[lo:hi], start=lo)
                        ],
                    )
                refreshed = runner.partial_fit(
                    "pts",
                    initial_model=trained.model,
                    since_version=trained.table_version,
                    full_pass_every=2,
                )
                events = database.master.recovery_events()
                stats = dict(database.master.process_pool(2).transport_stats)
            finally:
                database.close()
        assert multiprocessing.active_children() == []
        return refreshed.model.as_flat_vector(), events, stats

    def test_extend_chain_bit_for_bit(self, dense_workload):
        dataset, task = dense_workload
        stream = make_dense_classification(32, DIMENSION, seed=10)
        paged, _, _ = self._partial_fit(dataset, stream, task, "pages")
        pickled, _, stats = self._partial_fit(dataset, stream, task, "fallback")
        assert np.array_equal(pickled, paged)
        _assert_fell_back(stats)

    @pytest.mark.parametrize("form", ["pages", "fallback"])
    def test_respawn_replays_chain_bit_for_bit(self, dense_workload, form):
        """A worker killed mid-chain is replayed base + deltas as shipped."""
        dataset, task = dense_workload
        stream = make_dense_classification(32, DIMENSION, seed=10)
        clean, _, _ = self._partial_fit(dataset, stream, task, "pages")
        faulted, events, _ = self._partial_fit(
            dataset, stream, task, form,
            faults=(FaultPlan("kill", worker=1, epoch=3),),
        )
        assert np.array_equal(clean, faulted)
        replayed = [e for e in events if getattr(e, "payloads_replayed", 0)]
        assert replayed, "the kill never triggered a payload replay"


# ---------------------------------------------------------------------------
# Residue: pages are freed by close() and leave /dev/shm clean
# ---------------------------------------------------------------------------
class TestZeroResidue:
    def test_close_frees_pages(self, dense_workload):
        dataset, task = dense_workload
        baseline = _shm_entries()
        database = SegmentedDatabase(2, "dbms_b", seed=0)
        load_classification_table(database, "pts", dataset.examples)
        train(
            task,
            database,
            "pts",
            config=IGDConfig(
                max_epochs=2, ordering="shuffle_once", seed=0,
                parallelism=PureUDAParallelism(backend="process"),
            ),
        )
        stats = database.master.process_pool(2).transport_stats
        assert stats["page_payloads"] >= 1
        database.close()
        assert _shm_entries() - baseline == set()
        assert multiprocessing.active_children() == []

    def test_payload_replacement_frees_old_pages(self, dense_workload):
        """A rebuilt payload (version bump) must not leak its old pages."""
        dataset, task = dense_workload
        model = task.initial_model()
        baseline = _shm_entries()
        with Database("postgres", seed=0) as database:
            load_classification_table(database, "pts", dataset.examples)
            database.run_aggregate(
                "pts", LossAggregate(task, model), backend="process", process_workers=2,
            )
            during = _shm_entries() - baseline
            # Non-append mutation: bumps the version, forcing a rebuild.
            database.table("pts").cluster_by("id")
            database.run_aggregate(
                "pts", LossAggregate(task, model), backend="process", process_workers=2,
            )
            after_rebuild = _shm_entries() - baseline
            # Old pages were unlinked when the record was replaced, so the
            # live page population does not grow run-over-run.
            assert len(after_rebuild) <= len(during)
        assert _shm_entries() - baseline == set()
