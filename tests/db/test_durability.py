"""Durable training plane: WAL framing, checkpoints, recovery, env specs.

Covers the in-process half of the durability story — torn-record repair,
checkpoint atomicity and generation fallback, ``Database.open`` recovery,
idempotent close, strict ``REPRO_*`` spec validation, and the interplay
with the fault/degradation machinery from earlier PRs.  Whole-process
SIGKILL scenarios live in :mod:`tests.db.test_crash_harness`.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.core.driver import BismarckRunner, IGDConfig
from repro.core.ordering import MultiplexedReservoir
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import (
    CheckpointManager,
    ColumnType,
    CrashPlan,
    Database,
    DurabilityPolicy,
    EnvSpecError,
    ExecutionError,
    FaultPlan,
    FunctionalAggregate,
    RecoveryPolicy,
    SegmentedDatabase,
    TrainingState,
    crashes_from_env,
    parse_crash_spec,
    parse_fault_spec,
)
from repro.db.wal import (
    RECORD_HEADER,
    SEGMENT_HEADER_SIZE,
    WriteAheadLog,
    prune_segments,
    read_wal,
    scan_segment,
    segment_files,
)
from repro.frontend import install_frontend
from repro.tasks.logistic_regression import LogisticRegressionTask


def _open(path, **kwargs) -> Database:
    return Database.open(path, **kwargs)


def _rows(db: Database, name: str) -> list[tuple]:
    return [row.values for row in db.table(name).scan()]


# --------------------------------------------------------------------- WAL


class TestWriteAheadLog:
    def test_append_and_iter_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        records = [{"type": "mutation", "n": i} for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        assert read_wal(tmp_path)[0] == records

    def test_position_tracks_segments_and_offsets(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        assert wal.position() == (0, SEGMENT_HEADER_SIZE)
        wal.append({"n": 0})
        boundary = wal.position()
        wal.append({"n": 1})
        wal.rotate()
        assert wal.position() == (1, SEGMENT_HEADER_SIZE)
        wal.append({"n": 2})
        wal.close()
        # Replay after the boundary skips record 0 but crosses the rotation.
        assert read_wal(tmp_path, after=boundary)[0] == [{"n": 1}, {"n": 2}]

    def test_torn_tail_is_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        wal.append({"n": 0})
        wal.append({"n": 1})
        wal.close()
        (_, path), = segment_files(tmp_path)
        # Simulate a torn write: half a record appended at the tail.
        payload = pickle.dumps({"n": 2})
        with open(path, "ab") as handle:
            handle.write(RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
            handle.write(payload[: len(payload) // 2])
        records, discarded = read_wal(tmp_path)
        assert discarded == RECORD_HEADER.size + len(payload) // 2
        assert records == [{"n": 0}, {"n": 1}]
        # Repair is idempotent and the log accepts appends afterwards.
        assert read_wal(tmp_path) == (records, 0)
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        wal.append({"n": 2})
        wal.close()
        assert read_wal(tmp_path)[0] == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_corrupt_checksum_stops_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        wal.append({"n": 0})
        position = wal.position()
        wal.append({"n": 1})
        wal.close()
        (_, path), = segment_files(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(position[1] + RECORD_HEADER.size)  # first payload byte
            byte = handle.read(1)
            handle.seek(position[1] + RECORD_HEADER.size)
            handle.write(bytes([byte[0] ^ 0xFF]))
        records, clean_length, torn = scan_segment(path)
        assert [payload for _, payload in records] == [{"n": 0}]
        assert clean_length == position[1]
        assert torn > 0

    def test_torn_segment_header_is_rewritten(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        wal.append({"n": 0})
        wal.rotate()
        wal.close()
        (_, _), (_, tail_path) = segment_files(tmp_path)
        with open(tail_path, "wb") as handle:
            handle.write(b"BW")  # crash mid-rotation: partial header
        assert read_wal(tmp_path)[0] == [{"n": 0}]
        assert read_wal(tmp_path) == ([{"n": 0}], 0)  # the torn header was rewritten
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        assert wal.position()[0] == 1
        wal.close()

    def test_prune_drops_older_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("buffered"))
        wal.append({"n": 0})
        wal.rotate()
        wal.append({"n": 1})
        wal.rotate()
        prune_segments(tmp_path, 1)
        wal.close()
        assert [index for index, _ in segment_files(tmp_path)] == [1, 2]
        assert read_wal(tmp_path)[0] == [{"n": 1}]

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityPolicy.resolve("fsync"))
        wal.append({"n": 0})
        wal.close()
        wal.close()
        assert wal.closed

    def test_durability_mode_validation(self):
        with pytest.raises(EnvSpecError, match="sometimes"):
            DurabilityPolicy.resolve("sometimes")
        assert not DurabilityPolicy.resolve("off").wal_enabled
        assert DurabilityPolicy.resolve("fsync").fsync
        assert not DurabilityPolicy.resolve(None).fsync


# -------------------------------------------------------------- checkpoints


class TestCheckpointManager:
    def test_generations_and_pruning(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for n in range(4):
            manager.write({"tables": {}, "training": {}, "wal_position": (0, n)})
        # Only the last KEEP_GENERATIONS snapshots survive.
        assert manager.generations() == [2, 3]
        payload, generation = manager.load_latest()
        assert generation == 3
        assert payload["wal_position"] == (0, 3)

    def test_corrupt_latest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write({"tables": {}, "training": {}, "wal_position": (0, 0)})
        manager.write({"tables": {}, "training": {}, "wal_position": (0, 1)})
        newest = tmp_path / "checkpoint-000001.ckpt"
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])  # torn snapshot
        payload, generation = manager.load_latest()
        assert generation == 0
        assert payload["wal_position"] == (0, 0)

    def test_bad_magic_is_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write({"tables": {}, "training": {}, "wal_position": None})
        path = tmp_path / "checkpoint-000000.ckpt"
        path.write_bytes(b"XXXXX" + path.read_bytes()[5:])
        assert manager.load(0) is None
        assert manager.load_latest() is None

    def test_stale_tmp_files_are_swept(self, tmp_path):
        (tmp_path / "checkpoint-000007.ckpt.tmp").write_bytes(b"half-written")
        CheckpointManager(tmp_path)
        assert not (tmp_path / "checkpoint-000007.ckpt.tmp").exists()

    def test_in_process_checkpoint_crash_leaves_previous_snapshot(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert((1,))
        db.checkpoint()
        table.insert((2,))
        # Arm a mid-checkpoint crash; in-process the injector raises SIGKILL,
        # so emulate the interruption at the same point: the tmp file exists
        # but os.replace never ran.
        manager = db.checkpoints

        class Boom(RuntimeError):
            pass

        class FiringInjector:
            armed = True

            def crash_point(self, op):
                if op == "checkpoint":
                    raise Boom

        original = manager._crash
        manager._crash = FiringInjector()
        with pytest.raises(Boom):
            db.checkpoint()
        manager._crash = original
        db.close()

        recovered = _open(tmp_path / "db")
        # Generation 0 plus the WAL delta reconstruct both rows.
        assert recovered.recovery_report.checkpoint_generation == 0
        assert sorted(_rows(recovered, "t")) == [(1,), (2,)]
        recovered.close()


# ----------------------------------------------------------------- recovery


def _state(name: str, *, next_epoch: int) -> TrainingState:
    return TrainingState(
        name=name, task="none", table_name="t", table_version=0,
        model=None, next_epoch=next_epoch, step_offset=0,
    )



class TestDatabaseRecovery:
    def test_open_without_prior_state_is_empty(self, tmp_path):
        db = _open(tmp_path / "db")
        assert db.durable
        assert not db.recovery_report.recovered_anything
        db.close()

    def test_wal_only_recovery(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER), ("y", ColumnType.TEXT)])
        table.insert((1, "a"))
        table.insert_many([(2, "b"), (3, "c")])
        version = table.version
        db.close()

        recovered = _open(tmp_path / "db")
        assert sorted(_rows(recovered, "t")) == [(1, "a"), (2, "b"), (3, "c")]
        assert recovered.table("t").version == version
        assert recovered.recovery_report.records_replayed == 3  # create + 2 muts
        recovered.close()

    def test_checkpoint_plus_delta_recovery(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert_many([(i,) for i in range(10)])
        db.checkpoint()
        table.insert_many([(i,) for i in range(10, 15)])
        version = table.version
        db.close()

        recovered = _open(tmp_path / "db")
        report = recovered.recovery_report
        assert report.checkpoint_generation == 0
        assert report.tables_restored == 1
        assert report.records_replayed == 1  # just the post-checkpoint insert
        assert sorted(_rows(recovered, "t")) == [(i,) for i in range(15)]
        assert recovered.table("t").version == version
        # The reconstructed ledger classifies the delta exactly.
        delta = recovered.table("t").classify_delta(version - 1)
        assert delta.kind == "append"
        recovered.close()

    def test_ledger_survives_recovery_for_partial_fit(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert_many([(i,) for i in range(8)])
        watermark = table.version
        table.insert_many([(i,) for i in range(8, 12)])
        db.close()

        recovered = _open(tmp_path / "db")
        delta = recovered.table("t").classify_delta(watermark)
        assert delta.kind == "append"
        assert delta.rows_added == 4
        recovered.close()

    def test_drop_table_is_replayed(self, tmp_path):
        db = _open(tmp_path / "db")
        db.create_table("keep", [("x", ColumnType.INTEGER)]).insert((1,))
        db.create_table("gone", [("x", ColumnType.INTEGER)]).insert((2,))
        db.drop_table("gone")
        db.close()

        recovered = _open(tmp_path / "db")
        assert recovered.has_table("keep")
        assert not recovered.has_table("gone")
        recovered.close()

    def test_rewrite_mutation_is_replayed(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert_many([(i,) for i in range(6)])
        db.checkpoint()
        table.shuffle(np.random.default_rng(3))
        shuffled = _rows(db, "t")
        db.close()

        recovered = _open(tmp_path / "db")
        assert _rows(recovered, "t") == shuffled
        assert recovered.table("t").classify_delta(0).kind == "rewrite"
        recovered.close()

    def test_corrupt_newest_generation_still_replays_to_the_present(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert_many([(i,) for i in range(5)])
        db.checkpoint()
        table.insert_many([(i,) for i in range(5, 10)])  # between the generations
        db.checkpoint()
        table.insert_many([(i,) for i in range(10, 15)])
        db.save_training_state(_state("run", next_epoch=7))
        assert db.checkpoints.generations() == [0, 1]
        db.close()
        newest = tmp_path / "db" / "checkpoint-000001.ckpt"
        newest.write_bytes(newest.read_bytes()[:-1])

        recovered = _open(tmp_path / "db")
        # Generation 0 is stale, but the log was kept from *its* position on.
        assert recovered.recovery_report.checkpoint_generation == 0
        assert sorted(_rows(recovered, "t")) == [(i,) for i in range(15)]
        assert recovered.training_state("run").next_epoch == 7
        recovered.close()

    def test_reopen_keeps_the_log_the_older_generation_needs(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        db.checkpoint()
        table.insert((1,))
        db.checkpoint()
        table.insert((2,))
        db.close()
        _open(tmp_path / "db").close()  # a clean reopen sweeps nothing it may need
        newest = tmp_path / "db" / "checkpoint-000001.ckpt"
        newest.write_bytes(b"rot" + newest.read_bytes()[3:])

        recovered = _open(tmp_path / "db")
        assert recovered.recovery_report.checkpoint_generation == 0
        assert sorted(_rows(recovered, "t")) == [(1,), (2,)]
        recovered.close()

    def test_open_sweeps_segments_no_generation_needs(self, tmp_path):
        db = _open(tmp_path / "db")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        for value in range(3):
            table.insert((value,))
            db.checkpoint()
        db.close()
        # As after a crash between a snapshot's rename and its prune.
        stale = tmp_path / "db" / "wal-000000.log"
        stale.write_bytes(b"left behind")

        recovered = _open(tmp_path / "db")
        assert not stale.exists()
        assert [index for index, _ in segment_files(tmp_path / "db")] == [2, 3]
        assert sorted(_rows(recovered, "t")) == [(0,), (1,), (2,)]
        recovered.close()

    def test_cleared_training_state_stays_cleared(self, tmp_path):
        db = _open(tmp_path / "db")
        db.save_training_state(_state("run", next_epoch=3))  # first save: snapshots
        db.clear_training_state("run")  # one tombstone record, no snapshot
        assert db.checkpoints.generations() == [0]
        db.close()

        recovered = _open(tmp_path / "db")
        assert recovered.training_state("run") is None
        assert recovered.recovery_report.training_states == ()
        recovered.close()

    def test_durability_off_skips_wal(self, tmp_path):
        db = _open(tmp_path / "db", durability="off")
        table = db.create_table("t", [("x", ColumnType.INTEGER)])
        table.insert((1,))
        db.checkpoint()
        table.insert((2,))  # never logged: lost without a checkpoint
        db.close()
        assert segment_files(tmp_path / "db") == []

        recovered = _open(tmp_path / "db", durability="off")
        assert sorted(_rows(recovered, "t")) == [(1,)]
        recovered.close()

    def test_durability_off_snapshots_every_saved_state(self, tmp_path):
        db = _open(tmp_path / "db", durability="off")
        db.create_table("t", [("x", ColumnType.INTEGER)]).insert((1,))
        db.save_training_state(_state("run", next_epoch=1))
        db.save_training_state(_state("run", next_epoch=2))
        assert db.checkpoints.generations() == [0, 1]
        db.close()

        recovered = _open(tmp_path / "db", durability="off")
        assert recovered.training_state("run").next_epoch == 2
        assert sorted(_rows(recovered, "t")) == [(1,)]
        recovered.close()

    def test_close_is_idempotent_and_flushes(self, tmp_path):
        db = _open(tmp_path / "db")
        db.create_table("t", [("x", ColumnType.INTEGER)]).insert((1,))
        db.close()
        db.close()  # double close is a no-op

        recovered = _open(tmp_path / "db")
        assert sorted(_rows(recovered, "t")) == [(1,)]
        recovered.close()
        recovered.close()  # close after a recovery open is equally idempotent


# ------------------------------------------------------------ training state


def _sparse_dataset():
    return make_sparse_classification(60, 12, nonzeros_per_example=4, seed=11)


def _train_config(**overrides) -> IGDConfig:
    defaults = dict(step_size=0.1, max_epochs=4, ordering="shuffle_once", seed=0)
    defaults.update(overrides)
    return IGDConfig(**defaults)


class TestTrainingStateCheckpoints:
    @pytest.mark.parametrize(
        "ordering", ["shuffle_once", MultiplexedReservoir(20)], ids=["shuffle_once", "mrs"]
    )
    def test_epoch_checkpoint_and_resume_matches_uninterrupted(self, tmp_path, ordering):
        """The drawn permutation — or MRS's memory buffer — rides in the
        saved policy, so the reopened run continues mid-stream."""
        dataset = _sparse_dataset()
        task = LogisticRegressionTask(dataset.dimension, mu=0.01)

        reference_db = Database("postgres", seed=0)
        load_classification_table(reference_db, "pts", dataset.examples, sparse=True)
        reference = BismarckRunner(
            reference_db, task, _train_config(ordering=ordering)
        ).train("pts")

        db = _open(tmp_path / "db")
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        runner = BismarckRunner(
            db, task, _train_config(ordering=ordering, checkpoint_every=1, max_epochs=2)
        )
        runner.train("pts")
        state = db.training_state("pts")
        assert state is not None and state.next_epoch == 2
        db.close()

        # Reopen as after a crash; the recovered state resumes epochs 2..3.
        recovered = _open(tmp_path / "db")
        state = recovered.training_state("pts")
        assert state is not None
        resumed = BismarckRunner(
            recovered, task, _train_config(ordering=ordering, checkpoint_every=1)
        ).train("pts", resume_from=state)
        np.testing.assert_array_equal(
            resumed.model.as_flat_vector(), reference.model.as_flat_vector()
        )
        assert resumed.objective_trace()[-1] == reference.objective_trace()[-1]
        recovered.close()

    def test_resume_after_convergence_runs_no_extra_epochs(self, tmp_path):
        dataset = _sparse_dataset()
        task = LogisticRegressionTask(dataset.dimension, mu=0.01)
        db = _open(tmp_path / "db")
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        config = _train_config(checkpoint_every=1, max_epochs=3)
        result = BismarckRunner(db, task, config).train("pts")
        state = db.training_state("pts")
        db.close()

        recovered = _open(tmp_path / "db")
        resumed = BismarckRunner(recovered, task, config).train(
            "pts", resume_from=recovered.training_state("pts")
        )
        assert resumed.epochs_run == result.epochs_run
        np.testing.assert_array_equal(
            resumed.model.as_flat_vector(), result.model.as_flat_vector()
        )
        recovered.close()

    def test_partial_fit_resume_delegates_to_train(self, tmp_path):
        dataset = _sparse_dataset()
        task = LogisticRegressionTask(dataset.dimension, mu=0.01)
        db = _open(tmp_path / "db")
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        config = _train_config(checkpoint_every=1, max_epochs=2)
        BismarckRunner(db, task, config).train("pts")
        state = db.training_state("pts")
        db.close()

        recovered = _open(tmp_path / "db")
        runner = BismarckRunner(recovered, task, _train_config(checkpoint_every=1))
        resumed = runner.partial_fit("pts", resume_from=recovered.training_state("pts"))
        reference_db = Database("postgres", seed=0)
        load_classification_table(reference_db, "pts", dataset.examples, sparse=True)
        reference = BismarckRunner(reference_db, task, _train_config()).train("pts")
        np.testing.assert_array_equal(
            resumed.model.as_flat_vector(), reference.model.as_flat_vector()
        )
        recovered.close()


# ------------------------------------------------------------ snapshot rule


def _record_sizes(db: Database) -> dict[str, list[int]]:
    """Wrap ``db.wal.append`` to collect each record's framed size by type."""
    sizes: dict[str, list[int]] = {}
    append = db.wal.append

    def counting(record):
        segment, offset = append(record)
        sizes.setdefault(record["type"], []).append(db.wal.position()[1] - offset)
        return segment, offset

    db.wal.append = counting
    return sizes


def _snapshot_sizes(db: Database) -> list[int]:
    """Wrap ``db.checkpoints.write`` to collect each snapshot's file size."""
    sizes: list[int] = []
    write = db.checkpoints.write

    def counting(payload):
        path = write(payload)
        sizes.append(path.stat().st_size)
        return path

    db.checkpoints.write = counting
    return sizes


class TestSnapshotRule:
    """An epoch's durable write is its training state; snapshots are compaction."""

    @pytest.mark.parametrize("rows", [150, 1500])
    def test_an_epoch_appends_one_small_record_and_no_snapshot(self, tmp_path, rows):
        dataset = make_dense_classification(rows, 54, seed=3)
        db = _open(tmp_path / "db", durability="fsync")
        load_classification_table(db, "pts", dataset.examples, sparse=False)
        sizes, snapshots = _record_sizes(db), _snapshot_sizes(db)
        config = _train_config(checkpoint_every=1, max_epochs=8, ordering="clustered")
        result = BismarckRunner(db, LogisticRegressionTask(54), config).train("pts")
        assert result.epochs_run == 8
        assert len(sizes["training"]) == 8 and set(sizes) == {"training"}
        # Only the first save of a fresh directory snapshots ...
        assert len(snapshots) == 1
        # ... and with no permutation to carry a record is O(model) bytes,
        # whatever the row count (d = 54: the model is 432 of them).
        assert max(sizes["training"]) < 4096
        db.close()

    def test_snapshots_follow_log_volume_not_epochs(self, tmp_path):
        dataset = _sparse_dataset()
        path = tmp_path / "db"
        db = _open(path)
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        sizes, snapshots = _record_sizes(db), _snapshot_sizes(db)
        save = db.save_training_state
        seen = 0

        def checked_save(state):
            nonlocal seen
            save(state)
            since = db.wal.bytes_since(db._snapshot_segment)
            assert since <= db._snapshot_bytes + sizes["training"][-1]
            if len(snapshots) > seen:
                seen = len(snapshots)
                oldest_retained = min(
                    db.checkpoints.load(generation)["wal_position"][0]
                    for generation in db.checkpoints.generations()
                )
                assert segment_files(path)[0][0] == oldest_retained
                assert len(db.checkpoints.generations()) <= 2

        db.save_training_state = checked_save
        epochs = 60
        config = _train_config(checkpoint_every=1, max_epochs=epochs, stopping=epochs)
        BismarckRunner(
            db, LogisticRegressionTask(dataset.dimension, mu=0.01), config
        ).train("pts")
        assert len(sizes["training"]) == epochs
        # The log outgrew the snapshot several times over, and each snapshot
        # after the first was paid for by at least its predecessor's bytes of log.
        assert 3 <= len(snapshots) <= 1 + sum(sizes["training"]) // min(snapshots)
        assert len(snapshots) < epochs // 2
        db.close()

        recovered = _open(path)
        assert recovered.training_state("pts").next_epoch == epochs
        recovered.close()


# ---------------------------------------------------------------- env specs


class TestEnvSpecValidation:
    def test_fault_spec_bad_field_named(self):
        with pytest.raises(ValueError, match="epoch"):
            parse_fault_spec("kill:epoch=three")
        with pytest.raises(ValueError, match="unknown key"):
            parse_fault_spec("kill:flavor=2")
        with pytest.raises(ValueError, match="worker"):
            parse_fault_spec("kill:epoch=1:worker=x")
        # EnvSpecError doubles as ExecutionError for backward compatibility.
        with pytest.raises(ExecutionError):
            parse_fault_spec("kill:epoch=nope")

    def test_crash_spec_grammar(self):
        assert parse_crash_spec("kill:epoch=3") == (CrashPlan(op="epoch", at=3),)
        assert parse_crash_spec("kill:op=checkpoint") == (CrashPlan(op="checkpoint", at=0),)
        assert parse_crash_spec("kill:op=wal_append:at=2") == (
            CrashPlan(op="wal_append", at=2),
        )
        assert parse_crash_spec("kill:epoch=1; kill:op=checkpoint") == (
            CrashPlan(op="epoch", at=1),
            CrashPlan(op="checkpoint", at=0),
        )

    def test_crash_spec_bad_field_named(self):
        with pytest.raises(EnvSpecError, match="op"):
            parse_crash_spec("kill:op=reboot")
        with pytest.raises(EnvSpecError, match="at"):
            parse_crash_spec("kill:op=epoch:at=x")
        with pytest.raises(EnvSpecError, match="epoch"):
            parse_crash_spec("kill:epoch=-1")
        with pytest.raises(EnvSpecError, match="kill"):
            parse_crash_spec("pause:epoch=1")

    def test_crashes_from_env(self):
        plans = crashes_from_env({"REPRO_CRASH": "kill:epoch=2"})
        assert plans == (CrashPlan(op="epoch", at=2),)
        assert crashes_from_env({}) == ()
        with pytest.raises(EnvSpecError, match="REPRO_CRASH"):
            crashes_from_env({"REPRO_CRASH": "kill:when=later"})

    def test_recovery_env_bad_field_named(self):
        with pytest.raises(EnvSpecError, match="REPRO_RECOVERY_TIMEOUT"):
            RecoveryPolicy.from_env({"REPRO_RECOVERY_TIMEOUT": "fast"})
        with pytest.raises(ValueError, match="REPRO_RECOVERY_MAX_RESPAWNS"):
            RecoveryPolicy.from_env({"REPRO_RECOVERY_MAX_RESPAWNS": "2.5"})
        with pytest.raises(EnvSpecError, match="REPRO_RECOVERY_BACKOFF"):
            RecoveryPolicy.from_env({"REPRO_RECOVERY_BACKOFF": "soon"})
        policy = RecoveryPolicy.from_env(
            {"REPRO_RECOVERY_TIMEOUT": "3", "REPRO_RECOVERY_BACKOFF": ""}
        )
        assert policy.timeout == 3.0

    def test_database_validates_env_eagerly(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "kill:epoch=bogus")
        with pytest.raises(EnvSpecError, match="epoch"):
            Database("postgres", seed=0)
        monkeypatch.delenv("REPRO_FAULT")
        monkeypatch.setenv("REPRO_CRASH", "explode")
        with pytest.raises(EnvSpecError, match="REPRO_CRASH"):
            Database("postgres", seed=0)
        monkeypatch.delenv("REPRO_CRASH")
        monkeypatch.setenv("REPRO_RECOVERY_TIMEOUT", "yesterday")
        with pytest.raises(EnvSpecError, match="REPRO_RECOVERY_TIMEOUT"):
            Database("postgres", seed=0)


# ------------------------------------------------- interplay with PR 6 / PR 7


@pytest.mark.backends
class TestDurabilityFaultInterplay:
    def test_extend_kill_during_checkpointing_epoch(self, tmp_path):
        """A PR-6 worker kill on ``extend`` recovers while epochs checkpoint."""
        from repro.core.parallel import PureUDAParallelism

        dataset = _sparse_dataset()
        task = LogisticRegressionTask(dataset.dimension, mu=0.01)
        db = SegmentedDatabase.open(
            tmp_path / "db",
            num_segments=2,
            seed=0,
            recovery=RecoveryPolicy(timeout=30.0, max_respawns=3, backoff=0.0),
            faults=[FaultPlan("kill", worker=0, epoch=0, op="extend")],
        )
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        config = _train_config(
            checkpoint_every=1,
            max_epochs=2,
            parallelism=PureUDAParallelism(backend="process"),
        )
        result = BismarckRunner(db, task, config).train("pts")
        watermark = result.table_version
        # Grow the table; the continuation's segment extension trips the
        # planted kill, the supervised pool recovers, and every delta epoch
        # still checkpoints into the live WAL/checkpoint plane.
        extra = make_sparse_classification(20, 12, nonzeros_per_example=4, seed=12)
        db.insert(
            "pts",
            [
                (60 + i, example.features, example.label)
                for i, example in enumerate(extra.examples)
            ],
        )
        runner = BismarckRunner(db, task, config)
        delta = runner.partial_fit(
            "pts", initial_model=result.model, since_version=watermark
        )
        assert delta.respawn_count >= 1
        assert db.training_state("pts") is not None
        master_rows = sorted(_rows(db.master, "pts"))
        db.close_process_pools()
        db.close()

        recovered = SegmentedDatabase.open(tmp_path / "db", num_segments=2)
        assert recovered.training_state("pts") is not None
        assert sorted(_rows(recovered.master, "pts")) == master_rows
        recovered.close()

    def test_degradation_fallback_with_live_wal(self, tmp_path):
        """A segmented pass falls back in process while a WAL is live."""
        from repro.core.parallel import PureUDAParallelism

        dataset = _sparse_dataset()
        task = LogisticRegressionTask(dataset.dimension, mu=0.01)
        db = SegmentedDatabase.open(
            tmp_path / "db",
            num_segments=2,
            seed=0,
            recovery=RecoveryPolicy(timeout=30.0, max_respawns=0, backoff=0.0),
            faults=[FaultPlan("kill", worker=0, epoch=0)],
        )
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        config = _train_config(
            checkpoint_every=1,
            max_epochs=2,
            parallelism=PureUDAParallelism(backend="process"),
        )
        result = BismarckRunner(db, task, config).train("pts")
        assert result.degraded
        master_rows = sorted(_rows(db.master, "pts"))
        db.close_process_pools()
        db.close()

        recovered = SegmentedDatabase.open(tmp_path / "db", num_segments=2)
        assert sorted(_rows(recovered.master, "pts")) == master_rows
        recovered.close()

    def test_segmented_recovery_folds_the_same_segments(self, tmp_path):
        """Segment placement is arithmetic over the recovered master heap."""
        first = lambda: FunctionalAggregate(  # noqa: E731 - what segment 0 saw
            initialize=list, transition=lambda seen, value: seen + [value],
            merge=lambda seen, _other: seen,
        )
        db = SegmentedDatabase.open(tmp_path / "db", num_segments=3)
        db.create_table("t", [("x", ColumnType.INTEGER)])
        db.insert("t", [(i,) for i in range(10)])
        original = db.run_parallel_aggregate("t", first, "x")
        assert original.value == [0, 3, 6, 9]
        db.close()

        recovered = SegmentedDatabase.open(tmp_path / "db", num_segments=3)
        outcome = recovered.run_parallel_aggregate("t", first, "x")
        assert outcome.value == original.value
        assert outcome.per_segment_tuples == original.per_segment_tuples == [4, 3, 3]
        recovered.close()


# ------------------------------------------------------------ SQL front end


class TestFrontendDurability:
    def test_resumed_sql_training_matches_uninterrupted(self, tmp_path):
        dataset = _sparse_dataset()
        # Uninterrupted reference.
        reference_db = Database("postgres", seed=0)
        load_classification_table(reference_db, "pts", dataset.examples, sparse=True)
        install_frontend(reference_db)
        reference_db.execute(
            "SELECT LRTrain('m', 'pts', 'vec', 'label', 0.1, 4)"
        )
        from repro.frontend.models import load_model

        reference = load_model(reference_db, "m")

        # Interrupted run: train half the epochs with per-epoch checkpoints,
        # leave the training state behind (as a crash would), reopen, and let
        # the SQL front end resume it.
        db = _open(tmp_path / "db")
        load_classification_table(db, "pts", dataset.examples, sparse=True)
        # Mirror the frontend's task construction exactly (same inferred
        # dimension) so the recovered TrainingState matches its task check.
        from repro.frontend.train import _infer_feature_dimension

        dimension = _infer_feature_dimension(db.table("pts"), "vec")
        task = LogisticRegressionTask(dimension, mu=0.0)
        BismarckRunner(
            db,
            task,
            _train_config(checkpoint_every=1, max_epochs=2, checkpoint_name="m"),
        ).train("pts")
        db.close()

        recovered = _open(tmp_path / "db")
        install_frontend(recovered)
        summary = recovered.execute(
            "SELECT LRTrain('m', 'pts', 'vec', 'label', 0.1, 4)"
        ).rows[0][0]
        assert "resumed" in summary
        resumed = load_model(recovered, "m")
        np.testing.assert_array_equal(
            resumed.as_flat_vector(), reference.as_flat_vector()
        )
        # The state is cleared once the model is durably persisted.
        assert recovered.training_state("m") is None
        recovered.close()
