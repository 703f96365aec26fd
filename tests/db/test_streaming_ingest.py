"""Incremental chunk plane end-to-end: ingest, delta decode, continuation.

The ISSUE-7 acceptance bars:

* **bit-for-bit parity** — an incrementally-extended example cache produces
  models identical to a cold decode at the same final version, on every
  backend whose execution is deterministic (serial, simulated shared
  memory, segmented in-process, segmented process, single-worker process
  shared memory);
* **delta-only decode** — the decode-row counter charges appends for the
  appended rows only, across K batches and N single-row point inserts;
* **chaos during delta shipping** — a worker killed mid-``extend`` respawns,
  replays base + delta chain, and the retried pass still matches the clean
  run exactly, with zero leaked ``/dev/shm`` segments.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.driver import BismarckRunner, IGDConfig
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.model import Model
from repro.core.uda import IGDAggregate, LossAggregate
from repro.data import load_classification_table, make_dense_classification
from repro.db import Database, FaultPlan, SegmentedDatabase
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.supervisor import RecoveryPolicy
from repro.frontend import install_frontend
from repro.frontend.models import load_model, trained_source
from repro.tasks.logistic_regression import LogisticRegressionTask

DIMENSION = 6


@pytest.fixture(scope="module")
def corpus():
    base = make_dense_classification(96, DIMENSION, seed=5)
    stream = make_dense_classification(36, DIMENSION, seed=6)
    return base, stream


def _rows(start, examples):
    return [(start + i, ex.features, ex.label) for i, ex in enumerate(examples)]


def _delta_batches(stream, start=96, batches=2):
    per = len(stream.examples) // batches
    return [
        _rows(start + i * per, stream.examples[i * per:(i + 1) * per])
        for i in range(batches)
    ]


def _engine(db):
    return db.master if isinstance(db, SegmentedDatabase) else db


def _shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


# ---------------------------------------------------------------------------
# Bit-for-bit parity: extended cache vs cold decode, every deterministic path
# ---------------------------------------------------------------------------
BACKENDS = {
    "serial": (lambda: Database("postgres", seed=0), None),
    "shared_memory": (
        lambda: Database("postgres", seed=0),
        SharedMemoryParallelism(workers=2, scheme="nolock"),
    ),
    "segmented": (
        lambda: SegmentedDatabase(3, "dbms_b", seed=0),
        PureUDAParallelism(),
    ),
    "segmented_process": (
        lambda: SegmentedDatabase(3, "dbms_b", seed=0),
        PureUDAParallelism(backend="process"),
    ),
    "process_shmem": (
        lambda: Database("postgres", seed=0),
        SharedMemoryParallelism(workers=1, scheme="nolock", backend="process"),
    ),
}


class TestExtendedCacheParity:
    @pytest.mark.backends
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_extension_bit_for_bit_with_cold_decode(self, backend, corpus):
        """Warm (train → K appends → partial_fit over extended cache) equals
        cold (same final table, empty cache) on every deterministic backend."""
        base, stream = corpus
        db_factory, spec = BACKENDS[backend]
        config = IGDConfig(max_epochs=2, ordering="shuffle_once", seed=0, parallelism=spec)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)

        def build():
            db = db_factory()
            load_classification_table(db, "pts", base.examples)
            return db, BismarckRunner(db, task, config)

        warm_db, warm_runner = build()
        try:
            trained = warm_runner.train("pts")
            cache = _engine(warm_db).executor.example_cache
            extensions_before = cache.extensions
            for batch in _delta_batches(stream):
                warm_db.insert("pts", batch)
            warm = warm_runner.partial_fit(
                "pts",
                initial_model=trained.model,
                since_version=trained.table_version,
                full_pass_every=2,
            )
            assert cache.extensions > extensions_before  # extension really ran
            assert warm.ordering_name == f"delta[{len(stream.examples)}]"
        finally:
            _engine(warm_db).close()

        cold_db, cold_runner = build()
        try:
            for batch in _delta_batches(stream):
                cold_db.insert("pts", batch)
            cold = cold_runner.partial_fit(
                "pts",
                initial_model=trained.model,
                since_version=trained.table_version,
                full_pass_every=2,
            )
        finally:
            _engine(cold_db).close()

        assert np.array_equal(
            warm.model.as_flat_vector(), cold.model.as_flat_vector()
        )
        assert warm.table_version == cold.table_version
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Delta decode accounting
# ---------------------------------------------------------------------------
class TestDeltaDecode:
    @pytest.mark.parametrize(
        "config, full_pass_every",
        [
            (IGDConfig(max_epochs=2, seed=0), 0),
            # A shuffled refresh whose last epoch is a full pass over the
            # extended cache still decodes only the appended rows.
            (IGDConfig(max_epochs=3, ordering="shuffle_once", seed=0), 3),
        ],
        ids=["delta_epochs", "shuffled_with_full_pass"],
    )
    def test_k_append_batches_decode_only_the_delta(self, corpus, config, full_pass_every):
        base, stream = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "pts", base.examples)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)
        runner = BismarckRunner(db, task, config)
        cache = db.executor.example_cache

        trained = runner.train("pts")
        assert cache.decoded_rows == len(base.examples)
        model, version = trained.model, trained.table_version
        batches = _delta_batches(stream, batches=3)
        for batch in batches:
            db.insert("pts", batch)
            refreshed = runner.partial_fit(
                "pts", initial_model=model, since_version=version,
                full_pass_every=full_pass_every,
            )
            model, version = refreshed.model, refreshed.table_version
        # Every row decoded exactly once, appends charged delta-only.
        assert cache.decoded_rows == len(base.examples) + len(stream.examples)
        assert cache.extensions >= len(batches)

    def test_point_inserts_cost_one_row_each_not_a_rescan(self, corpus):
        """Satellite micro-bench: N single-row inserts decode N rows, not
        N full re-decodes of the table."""
        base, _ = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "pts", base.examples)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)
        table = db.table("pts")
        cache = db.executor.example_cache
        chunk_size = db.executor.chunk_size

        assert cache.batches_for(table, task, chunk_size) is not None
        baseline = cache.decoded_rows
        inserts = 12
        for i in range(inserts):
            table.insert((1000 + i, [float(i)] * DIMENSION, 1.0))
            entry = table.ledger_entries()[-1]
            assert entry.kind == "append" and entry.op == "insert"
            assert cache.batches_for(table, task, chunk_size) is not None
        decoded = cache.decoded_rows - baseline
        assert decoded == inserts  # one row per point insert...
        # ...whereas full invalidation would have re-read the table each time.
        assert decoded < inserts * len(table)
        assert sum(len(b) for b in cache.batches_for(table, task, chunk_size)) == len(table)

    def test_selection_vectors_extend_across_appends(self, corpus):
        base, stream = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "pts", base.examples)
        db.execute("SELECT COUNT(*) FROM pts WHERE label > 0")
        table = db.table("pts")
        positive_before = db.execute(
            "SELECT COUNT(*) FROM pts WHERE label > 0"
        ).scalar()
        batch = _rows(len(table), stream.examples[:10])
        db.insert("pts", batch)
        positive_after = db.execute(
            "SELECT COUNT(*) FROM pts WHERE label > 0"
        ).scalar()
        added_positive = sum(1 for ex in stream.examples[:10] if ex.label > 0)
        assert positive_after == positive_before + added_positive

    def test_where_pass_after_an_append_sees_the_new_rows(self, corpus):
        """A selection vector is cached per table version: after an append the
        chunk plane evaluates the predicate again, so a WHERE pass folds the
        same rows as the per-tuple protocol."""
        base, stream = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "pts", base.examples)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)
        model = Model({"w": np.random.default_rng(0).normal(size=DIMENSION)})
        positive = BinaryOp(">", ColumnRef("label"), Literal(0.0))
        db.run_aggregate("pts", LossAggregate(task, model), where=positive)
        db.insert("pts", _rows(len(base.examples), stream.examples))
        chunked = db.run_aggregate("pts", LossAggregate(task, model), where=positive)
        per_tuple = db.run_aggregate(
            "pts", LossAggregate(task, model), where=positive, per_tuple=True
        )
        assert chunked == pytest.approx(per_tuple, abs=1e-9)


# ---------------------------------------------------------------------------
# Cache eviction guard (Database(cache_entries=...))
# ---------------------------------------------------------------------------
class TestCacheEvictionGuard:
    def test_cache_entries_knob_reaches_the_example_cache(self, corpus):
        base, _ = corpus
        db = Database("postgres", seed=0, cache_entries=2)
        assert db.executor.example_cache.max_entries == 2
        default_db = Database("postgres", seed=0)
        assert default_db.executor.example_cache.max_entries == 32

    def test_lru_prefers_evicting_stale_tasks_over_recent_ones(self, corpus):
        base, _ = corpus
        db = Database("postgres", seed=0, cache_entries=2)
        load_classification_table(db, "pts", base.examples)
        table = db.table("pts")
        cache = db.executor.example_cache
        chunk = db.executor.chunk_size
        tasks = [LogisticRegressionTask(DIMENSION, mu=0.01) for _ in range(3)]
        cache.batches_for(table, tasks[0], chunk)
        cache.batches_for(table, tasks[1], chunk)
        # Touch task 0 so task 1 is the least-recently-used entry.
        cache.batches_for(table, tasks[0], chunk)
        cache.batches_for(table, tasks[2], chunk)  # evicts task 1
        decoded = cache.decoded_rows
        cache.batches_for(table, tasks[0], chunk)  # still resident: no decode
        assert cache.decoded_rows == decoded
        cache.batches_for(table, tasks[1], chunk)  # evicted: decodes again
        assert cache.decoded_rows == decoded + len(table)


# ---------------------------------------------------------------------------
# Segmented ingest: an insert touches the master only
# ---------------------------------------------------------------------------
class TestSegmentedIngest:
    def test_append_reaches_its_home_segments_with_one_delta_decode(self, corpus):
        base, stream = corpus
        db = SegmentedDatabase(3, "dbms_b", seed=0)
        load_classification_table(db, "pts", base.examples)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)
        factory = lambda: IGDAggregate(task, 0.05)  # noqa: E731
        cache = db.master.executor.example_cache
        db.run_parallel_aggregate("pts", factory)
        decoded = cache.decoded_rows
        db.insert("pts", _rows(len(base.examples), stream.examples))
        outcome = db.run_parallel_aggregate("pts", factory)
        # Row g belongs to segment g % 3 with no copy to extend or rebuild.
        total = len(base.examples) + len(stream.examples)
        assert outcome.per_segment_tuples == [len(range(i, total, 3)) for i in range(3)]
        assert cache.decoded_rows - decoded == len(stream.examples)
        assert cache.extensions == 1 and cache.misses == 1


# ---------------------------------------------------------------------------
# Frontend continuation
# ---------------------------------------------------------------------------
class TestFrontendContinuation:
    def test_retrain_under_inserts_is_incremental_by_default(self, corpus):
        base, stream = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "labeledpapers", base.examples)
        install_frontend(db)

        first = db.execute(
            "SELECT LRTrain('m', 'labeledpapers', 'vec', 'label')"
        ).scalar()
        assert "trained" in first
        assert trained_source(db, "m") == ("labeledpapers", db.table("labeledpapers").version)

        db.insert("labeledpapers", _rows(len(base.examples), stream.examples))
        decoded_mark = db.executor.example_cache.decoded_rows
        second = db.execute(
            "SELECT LRTrain('m', 'labeledpapers', 'vec', 'label')"
        ).scalar()
        assert "continued" in second
        # Delta-only decode: the retrain charged just the appended rows.
        assert (
            db.executor.example_cache.decoded_rows - decoded_mark
            == len(stream.examples)
        )
        assert trained_source(db, "m") == ("labeledpapers", db.table("labeledpapers").version)
        model = load_model(db, "m")
        assert model["w"].shape == (DIMENSION,)
        assert "__source__" not in model.component_names()

    def test_rewrite_between_trainings_falls_back_to_full_retrain(self, corpus):
        base, _ = corpus
        db = Database("postgres", seed=0)
        load_classification_table(db, "labeledpapers", base.examples)
        install_frontend(db)
        db.execute("SELECT LRTrain('m', 'labeledpapers', 'vec', 'label')")
        db.table("labeledpapers").shuffle(np.random.default_rng(3))
        message = db.execute(
            "SELECT LRTrain('m', 'labeledpapers', 'vec', 'label')"
        ).scalar()
        # partial_fit classifies the delta as a rewrite and retrains fully.
        assert "retrained" in message


# ---------------------------------------------------------------------------
# Chaos: kill a worker in the middle of delta payload shipping
# ---------------------------------------------------------------------------
@pytest.mark.backends
class TestDeltaShippingChaos:
    def _continue_after_insert(self, corpus, faults=()):
        base, stream = corpus
        database = SegmentedDatabase(
            3,
            "dbms_b",
            seed=0,
            faults=faults,
            recovery=RecoveryPolicy(timeout=30.0, max_respawns=3, backoff=0.0),
        )
        load_classification_table(database, "pts", base.examples)
        task = LogisticRegressionTask(DIMENSION, mu=0.01)
        runner = BismarckRunner(
            database,
            task,
            IGDConfig(
                max_epochs=2,
                ordering="shuffle_once",
                seed=0,
                parallelism=PureUDAParallelism(backend="process"),
            ),
        )
        try:
            trained = runner.train("pts")
            database.insert("pts", _rows(len(base.examples), stream.examples))
            refreshed = runner.partial_fit(
                "pts",
                initial_model=trained.model,
                since_version=trained.table_version,
                full_pass_every=2,
            )
            return trained, refreshed
        finally:
            database.close()

    def test_kill_during_extend_replays_base_plus_delta_bit_for_bit(self, corpus):
        before = _shm_entries()
        _, clean = self._continue_after_insert(corpus)
        _, faulted = self._continue_after_insert(
            corpus, faults=(FaultPlan("kill", worker=1, epoch=0, op="extend"),)
        )
        assert np.array_equal(
            clean.model.as_flat_vector(), faulted.model.as_flat_vector()
        )
        assert faulted.respawn_count >= 1
        (event,) = [e for e in faulted.recovery_events if getattr(e, "respawned", False)]
        assert "extend" in event.ops
        # The respawned worker re-received its base payloads and delta chain.
        assert event.payloads_replayed >= 1
        assert clean.recovery_events == []
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= before

    def test_kill_during_base_load_recovers_too(self, corpus):
        """A kill during initial payload shipping is absorbed by train(),
        and the subsequent partial_fit still matches the clean run."""
        before = _shm_entries()
        _, clean = self._continue_after_insert(corpus)
        trained, faulted = self._continue_after_insert(
            corpus, faults=(FaultPlan("kill", worker=2, epoch=0, op="load"),)
        )
        assert np.array_equal(
            clean.model.as_flat_vector(), faulted.model.as_flat_vector()
        )
        assert trained.respawn_count >= 1
        (event,) = [e for e in trained.recovery_events if getattr(e, "respawned", False)]
        assert "load" in event.ops
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= before

