"""Tests for the engine label, the segmented database and shared memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import (
    Database,
    ExecutionError,
    FunctionalAggregate,
    NullAggregate,
    SegmentedDatabase,
    SharedMemoryArena,
    SharedMemoryError,
    UnknownTableError,
    connect,
)
from repro.db.shared_memory import SharedMemoryParallelism
from repro.tasks.logistic_regression import LogisticRegressionTask


class TestEngineLabel:
    """The constructor string is a display label: it selects nothing."""

    @pytest.mark.parametrize("label", ["postgres", "dbms_a", "dbms_b", "anything at all"])
    def test_any_label_builds_the_one_engine(self, label):
        database = connect(label, seed=0)
        assert database.label == label and repr(label) in repr(database)
        database.create_table("numbers", [("id", "int"), ("value", "float")])
        database.insert("numbers", [(i, float(i)) for i in range(10)])
        assert database.execute("SELECT sum(value) FROM numbers").scalar() == 45.0

    def test_label_does_not_change_a_trained_model(self):
        dataset = make_dense_classification(60, 5, seed=0)
        weights = []
        for label in ("postgres", "dbms_a"):
            database = Database(label, seed=0)
            load_classification_table(database, "points", dataset.examples, sparse=False)
            result = train(
                LogisticRegressionTask(5), database, "points",
                config=IGDConfig(max_epochs=2, seed=0),
            )
            weights.append(result.model.as_flat_vector())
        assert np.array_equal(*weights)

    def test_segment_count_is_required(self, tmp_path):
        with pytest.raises(TypeError):
            SegmentedDatabase()
        with pytest.raises(TypeError):
            SegmentedDatabase.open(tmp_path / "db")
        assert SegmentedDatabase(3).num_segments == 3


@pytest.mark.backends
class TestSegmentedDatabase:
    @pytest.fixture
    def seg_db(self):
        database = SegmentedDatabase(4, "dbms_b", seed=0)
        database.create_table("numbers", [("id", "int"), ("value", "float")])
        database.insert("numbers", [(i, float(i)) for i in range(40)])
        return database

    def test_segments_cover_all_rows(self, seg_db):
        outcome = seg_db.run_parallel_aggregate("numbers", NullAggregate)
        assert outcome.per_segment_tuples == [10, 10, 10, 10]
        # A segment is a slice of the master's ordinals, not a table of its own.
        assert seg_db.segments_of("numbers") == []

    def test_parallel_aggregate_matches_serial(self, seg_db):
        outcome = seg_db.run_parallel_aggregate("numbers", lambda: seg_db.master.aggregates.create("sum"), "value")
        assert outcome.value == pytest.approx(sum(range(40)))
        assert outcome.num_segments == 4
        assert outcome.merges == 3

    def test_parallel_aggregate_without_merge_falls_back(self, seg_db):
        factory = lambda: FunctionalAggregate(initialize=int, transition=lambda s, v: s + 1)
        outcome = seg_db.run_parallel_aggregate("numbers", factory, "value")
        assert outcome.num_segments == 1
        assert outcome.value == 40

    def test_null_aggregate_parallel(self, seg_db):
        outcome = seg_db.run_parallel_aggregate("numbers", NullAggregate)
        assert outcome.value == 40

    def test_shuffle_moves_rows_between_segments(self, seg_db):
        first = lambda: FunctionalAggregate(  # noqa: E731 - ids seen by segment 0 only
            initialize=list, transition=lambda seen, value: seen + [value],
            merge=lambda seen, _other: seen,
        )
        before = seg_db.run_parallel_aggregate("numbers", first, "id").value
        assert before == list(range(0, 40, 4))
        seg_db.shuffle_table("numbers", seed=5)
        after = seg_db.run_parallel_aggregate("numbers", first, "id")
        assert after.value != before and after.total_tuples == 40

    def test_unknown_table_raises(self, seg_db):
        with pytest.raises(UnknownTableError):
            seg_db.segments_of("missing")

    def test_invalid_segment_count(self):
        with pytest.raises(ExecutionError):
            SegmentedDatabase(0, "dbms_b")

    def test_sql_passthrough(self, seg_db):
        assert seg_db.execute("SELECT count(*) FROM numbers").scalar() == 40


def os_backed(segment) -> bool:
    """Whether a segment still holds a live OS shared-memory block."""
    return segment.os_name is not None


@pytest.mark.backends
class TestSharedMemory:
    def test_allocate_and_attach(self):
        arena = SharedMemoryArena()
        segment = arena.allocate("model", 10, fill=1.0)
        np.testing.assert_allclose(segment.array, np.ones(10))
        assert arena.attach("model") is segment
        assert arena.names() == ["model"]
        assert arena.total_bytes() == 80

    def test_allocate_from_copies(self):
        arena = SharedMemoryArena()
        source = np.arange(5, dtype=np.float64)
        segment = arena.allocate_from("w", source)
        source[0] = 99.0
        assert segment.array[0] == 0.0

    def test_duplicate_allocation_raises(self):
        arena = SharedMemoryArena()
        arena.allocate("x", 3)
        with pytest.raises(SharedMemoryError):
            arena.allocate("x", 3)

    def test_attach_missing_raises(self):
        with pytest.raises(SharedMemoryError):
            SharedMemoryArena().attach("nope")

    def test_free_is_idempotent(self):
        arena = SharedMemoryArena()
        arena.allocate("x", 3)
        arena.free("x")
        assert arena.names() == []
        # Double-free (and freeing a never-allocated name) must be a no-op:
        # cleanup handlers of interrupted runs may race to free segments.
        arena.free("x")
        arena.free("never_allocated")

    def test_context_manager_frees_segments(self):
        import os

        with SharedMemoryArena() as arena:
            segment = arena.allocate("ctx", 4, fill=2.0)
            os_name = segment.os_name
            assert os_name is not None
            assert os.path.exists(f"/dev/shm/{os_name}")
        assert arena.names() == []
        assert not os.path.exists(f"/dev/shm/{os_name}")

    def test_segment_release_idempotent(self):
        arena = SharedMemoryArena()
        segment = arena.allocate("rel", 2)
        segment.release()
        segment.release()
        assert not os_backed(segment)

    def test_segments_are_os_shared_memory(self):
        import os

        arena = SharedMemoryArena()
        segment = arena.allocate("osseg", 6, fill=3.0)
        assert os.path.exists(f"/dev/shm/{segment.os_name}")
        arena.free_all()

    @pytest.mark.parametrize("scheme", ["aig", "nolock"])
    def test_schemes_differ_only_in_their_window(self, scheme):
        """Simulated, every scheme is serial IGD over the same window
        interleave: at an equal window AIG and NoLock train Lock's model."""
        dataset = make_sparse_classification(60, 30, nonzeros_per_example=4, seed=5)
        task = LogisticRegressionTask(dataset.dimension)
        models = {}
        for name in ("lock", scheme):
            database = Database("postgres", seed=0)
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            models[name] = train(
                task, database, "pts",
                config=IGDConfig(
                    step_size=0.1, max_epochs=2, seed=0,
                    parallelism=SharedMemoryParallelism(scheme=name, workers=4, staleness=2),
                ),
            ).model
        assert np.array_equal(models["lock"]["w"], models[scheme]["w"])

    @pytest.mark.parametrize("scheme", ["lock", "aig", "nolock"])
    def test_simulated_run_allocates_no_shared_memory(self, scheme, monkeypatch):
        """The simulation never leaves this process, so it maps no pages."""
        import os

        def refuse(*_args, **_kwargs):
            raise AssertionError("a simulated epoch allocated an arena segment")

        monkeypatch.setattr(SharedMemoryArena, "_allocate_segment", refuse)
        before = set(os.listdir("/dev/shm"))
        dataset = make_dense_classification(50, 4, seed=1)
        database = Database("postgres", seed=0)
        load_classification_table(database, "points", dataset.examples, sparse=False)
        train(
            LogisticRegressionTask(4), database, "points",
            config=IGDConfig(
                max_epochs=2, seed=0,
                parallelism=SharedMemoryParallelism(scheme=scheme, workers=4),
            ),
        )
        assert database.shared_memory.names() == []
        assert set(os.listdir("/dev/shm")) == before

    def test_database_owns_arena(self):
        database = Database()
        database.shared_memory.allocate("model", 5)
        assert database.shared_memory.names() == ["model"]
