"""Whole-process crash recovery: SIGKILL a training engine, reopen, resume.

Each test runs a real training process as a child with ``REPRO_CRASH`` set
(the kill switch never lives in this process's environment — a durable
``Database`` arms it at construction), asserts the child died by SIGKILL,
then reopens the database here and proves recovery: the resumed model is
bit-for-bit identical to an uninterrupted run, no worker processes are left
behind, and ``/dev/shm`` returns to its baseline.

The CI ``crash`` job re-enters this file through
:func:`test_ci_crash_matrix` with ``REPRO_CRASH_SPEC`` drawn from a kill
matrix (``kill:epoch=…`` / ``kill:op=checkpoint`` / ``kill:op=wal_append[:at=K]``);
a ``wal_append`` cell also kills two children that are loading rows whose
records are single large blocks: dense arrays, and sparse maps as CSR entries.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.driver import BismarckRunner, IGDConfig
from repro.core.parallel import PureUDAParallelism
from repro.data import load_classification_table, make_sparse_classification
from repro.db import CheckpointManager, Database, SegmentedDatabase, read_wal

SRC_ROOT = str(Path(repro.__file__).parents[1])

# The workload both halves of every test rebuild identically: the child to
# train it, the parent to compute the uninterrupted reference and to resume.
EXAMPLES, DIMENSION, NONZEROS, DATA_SEED = 60, 12, 4, 11
# Enough epochs for the log to outgrow the first snapshot well before the run
# ends (~6 training records here), so a second snapshot exists to be killed in.
MAX_EPOCHS, SEGMENTS = 12, 2


def _dataset():
    return make_sparse_classification(
        EXAMPLES, DIMENSION, nonzeros_per_example=NONZEROS, seed=DATA_SEED
    )


def _task(dataset):
    from repro.tasks.logistic_regression import LogisticRegressionTask

    return LogisticRegressionTask(dataset.dimension, mu=0.01)


def _config(scheme: str) -> IGDConfig:
    parallelism = (
        PureUDAParallelism(backend="process") if scheme == "process" else None
    )
    return IGDConfig(
        step_size=0.1,
        max_epochs=MAX_EPOCHS,
        ordering="shuffle_once",
        seed=0,
        checkpoint_every=1,
        parallelism=parallelism,
    )


TRAIN_CHILD = """
import sys
from pathlib import Path

from repro.core.driver import BismarckRunner, IGDConfig
from repro.core.parallel import PureUDAParallelism
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database, SegmentedDatabase
from repro.tasks.logistic_regression import LogisticRegressionTask

path, scheme = sys.argv[1], sys.argv[2]
dataset = make_sparse_classification({examples}, {dimension},
                                     nonzeros_per_example={nonzeros}, seed={data_seed})
task = LogisticRegressionTask(dataset.dimension, mu=0.01)
if scheme == "process":
    db = SegmentedDatabase.open(path, num_segments={segments}, seed=0)
    parallelism = PureUDAParallelism(backend="process")
    pool = db.master.process_pool({segments})
    print("WORKERS", *[proc.pid for proc in pool._procs], flush=True)
else:
    db = Database.open(path)
    parallelism = None
load_classification_table(db, "pts", dataset.examples, sparse=True)
config = IGDConfig(step_size=0.1, max_epochs={max_epochs}, ordering="shuffle_once",
                   seed=0, checkpoint_every=1, parallelism=parallelism)
result = BismarckRunner(db, task, config).train("pts")
print("COMPLETED", result.epochs_run, flush=True)
db.close()
"""


def _run_child(path, scheme: str, crash_spec: str | None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    env.pop("REPRO_CRASH", None)
    if crash_spec is not None:
        env["REPRO_CRASH"] = crash_spec
    code = TRAIN_CHILD.format(
        examples=EXAMPLES,
        dimension=DIMENSION,
        nonzeros=NONZEROS,
        data_seed=DATA_SEED,
        segments=SEGMENTS,
        max_epochs=MAX_EPOCHS,
    )
    return subprocess.run(
        [sys.executable, "-c", code, str(path), scheme],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _worker_pids(completed: subprocess.CompletedProcess) -> list[int]:
    for line in completed.stdout.splitlines():
        if line.startswith("WORKERS"):
            return [int(part) for part in line.split()[1:]]
    return []


def _assert_pids_gone(pids: list[int], timeout: float = 15.0) -> None:
    """Orphaned workers must self-exit once their command pipe closes."""
    deadline = time.monotonic() + timeout
    remaining = list(pids)
    while remaining and time.monotonic() < deadline:
        still_alive = []
        for pid in remaining:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            still_alive.append(pid)
        remaining = still_alive
        if remaining:
            time.sleep(0.2)
    assert not remaining, f"stray worker processes survived the crash: {remaining}"


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _assert_no_shm_leak(baseline: set, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        leaked = _shm_entries() - baseline
        if not leaked:
            return
        time.sleep(0.2)
    assert not (_shm_entries() - baseline), (
        f"shared-memory segments leaked: {_shm_entries() - baseline}"
    )


def _reference_model(scheme: str):
    dataset = _dataset()
    task = _task(dataset)
    if scheme == "process":
        db = SegmentedDatabase(SEGMENTS, "dbms_b", seed=0)
    else:
        db = Database("postgres", seed=0)
    load_classification_table(db, "pts", dataset.examples, sparse=True)
    try:
        result = BismarckRunner(db, task, _config(scheme)).train("pts")
    finally:
        if scheme == "process":
            db.close_process_pools()
    return result.model


def _reopen(path, scheme: str):
    if scheme == "process":
        return SegmentedDatabase.open(path, num_segments=SEGMENTS, seed=0)
    return Database.open(path)


def _resume_and_check(path, scheme: str, *, expect_state: bool = False) -> None:
    """Reopen a crashed database and drive training to the reference model.

    Whatever the crash destroyed, recovery must reach the same bits as an
    uninterrupted run: a surviving :class:`TrainingState` is resumed; a
    crash early enough to predate any checkpoint (or even the table's own
    WAL record) falls back to reloading and training from scratch — which
    is deterministic, so the equality still holds.
    """
    reference = _reference_model(scheme)
    db = _reopen(path, scheme)
    try:
        dataset = _dataset()
        runner = BismarckRunner(db, _task(dataset), _config(scheme))
        state = db.training_state("pts")
        if expect_state:
            assert state is not None, "no training state survived the crash"
        if state is not None:
            resumed = runner.train("pts", resume_from=state)
        else:
            catalog = db.master if scheme == "process" else db
            if not catalog.has_table("pts"):
                load_classification_table(db, "pts", dataset.examples, sparse=True)
            resumed = runner.train("pts")
        np.testing.assert_array_equal(
            resumed.model.as_flat_vector(), reference.as_flat_vector()
        )
    finally:
        if scheme == "process":
            db.close_process_pools()
        db.close()


@pytest.mark.parametrize("scheme", ["serial", "process"])
def test_sigkill_mid_epoch_resumes_bit_for_bit(tmp_path, scheme):
    if scheme == "process":
        pytest.importorskip("multiprocessing")
    baseline = _shm_entries()
    completed = _run_child(tmp_path / "db", scheme, "kill:epoch=2")
    assert completed.returncode == -9, completed.stderr
    assert "COMPLETED" not in completed.stdout
    _assert_pids_gone(_worker_pids(completed))
    _resume_and_check(tmp_path / "db", scheme, expect_state=True)
    _assert_no_shm_leak(baseline)


def test_sigkill_mid_checkpoint_falls_back_to_previous_snapshot(tmp_path):
    path = tmp_path / "db"
    completed = _run_child(path, "serial", "kill:op=checkpoint:at=1")
    assert completed.returncode == -9, completed.stderr
    # The second snapshot died as a temp file, before its atomic rename.
    assert sorted(entry.name for entry in path.glob("checkpoint-*")) == [
        "checkpoint-000000.ckpt", "checkpoint-000001.tmp"
    ]
    snapshot = CheckpointManager(path).load(0)
    logged = [
        record["state"].next_epoch
        for record in read_wal(path, after=snapshot["wal_position"])[0]
        if record["type"] == "training"
    ]
    assert snapshot["training"]["pts"].next_epoch == 1 and logged

    db = Database.open(path)
    # A kill mid-snapshot costs nothing: generation 0 plus the log reach the
    # last epoch that logged its state, not the epoch generation 0 was taken.
    assert db.recovery_report.checkpoint_generation == 0
    assert db.training_state("pts").next_epoch == logged[-1] > 1
    db.close()
    _resume_and_check(path, "serial", expect_state=True)


def test_sigkill_mid_training_record_resumes_from_previous_epoch(tmp_path):
    # Append 0 is the table's CREATE record and append 1 + e the training
    # state of epoch e, so at=3 dies halfway through epoch 2's record.
    completed = _run_child(tmp_path / "db", "serial", "kill:op=wal_append:at=3")
    assert completed.returncode == -9, completed.stderr
    db = Database.open(tmp_path / "db")
    assert db.recovery_report.torn_bytes_discarded > 0
    assert db.training_state("pts").next_epoch == 2
    db.close()
    _resume_and_check(tmp_path / "db", "serial", expect_state=True)


def test_uninterrupted_child_completes(tmp_path):
    """Sanity for the harness itself: no crash spec, the child finishes."""
    completed = _run_child(tmp_path / "db", "serial", None)
    assert completed.returncode == 0, completed.stderr
    assert f"COMPLETED {MAX_EPOCHS}" in completed.stdout
    db = Database.open(tmp_path / "db")
    # A completed run leaves its final training state checkpointed too;
    # resuming it is a no-op thanks to the convergence guard.
    assert db.has_table("pts")
    db.close()


WAL_APPEND_CHILD = """
import sys
from repro.db import ColumnType, Database

db = Database.open(sys.argv[1])
table = db.create_table("t", [("x", ColumnType.INTEGER)])
for i in range(10):
    table.insert((i,))
print("SURVIVED", flush=True)
"""


def test_sigkill_mid_wal_append_discards_torn_record(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC_ROOT, "REPRO_CRASH": "kill:op=wal_append:at=5"}
    completed = subprocess.run(
        [sys.executable, "-c", WAL_APPEND_CHILD, str(tmp_path / "db")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == -9, completed.stderr
    assert "SURVIVED" not in completed.stdout

    db = Database.open(tmp_path / "db")
    report = db.recovery_report
    # Append 0 is the CREATE record; appends 1..4 are the first four inserts;
    # append 5 dies half-written and must be discarded, not replayed.
    assert report.torn_bytes_discarded > 0
    assert sorted(row["x"] for row in db.table("t").scan()) == [0, 1, 2, 3]
    # The repaired log accepts new appends and survives another cycle.
    db.table("t").insert((99,))
    db.close()
    reopened = Database.open(tmp_path / "db")
    assert sorted(row["x"] for row in reopened.table("t").scan()) == [0, 1, 2, 3, 99]
    assert reopened.recovery_report.torn_bytes_discarded == 0
    reopened.close()


ARRAY_APPEND_CHILD = """
import sys
import numpy as np
from repro.db import Database

kind = sys.argv[2]
db = Database.open(sys.argv[1])
table = db.create_table(
    "pts", [("id", "int"), ("vec", "float[]" if kind == "array" else "sparse"), ("label", "float")]
)
print("ACKED 0", flush=True)
for batch in range({batches}):
    table.insert_many(
        (ordinal, {value}, 1.0)
        for ordinal in range(batch * {batch_rows}, (batch + 1) * {batch_rows})
    )
    print("ACKED", len(table), flush=True)
print("SURVIVED", flush=True)
"""
ARRAY_BATCHES, ARRAY_BATCH_ROWS, ARRAY_DIMENSION = 4, 500, 54
#: Row ``ordinal``'s ``vec`` as source, evaluated by the child and by the checks: a
#: 54-wide array, or 54 non-zeros of a 70 000-wide space (an int32-keyed CSR entry).
ROW_VALUE = {
    "array": f"np.full({ARRAY_DIMENSION}, ordinal / {ARRAY_BATCH_ROWS})",
    "sparse": f"{{(1_297 * ordinal + k) % 70_000: ordinal / {ARRAY_BATCH_ROWS} + k"
              f" for k in range({ARRAY_DIMENSION})}}",
}


def _row_value(kind: str, ordinal: int):
    return eval(ROW_VALUE[kind], {"np": np, "ordinal": ordinal})


def _kill_array_append_child(path, crash_spec: str, kind: str = "array") -> int:
    """SIGKILL a child mid-``wal_append`` while it loads ``kind`` rows (dense
    arrays or sparse maps); check the reopen and return the number of rows
    that survived.

    Append 0 is the CREATE record and append ``1 + b`` the block record of
    batch ``b`` (one ~216 KB buffer, or one ~324 KB CSR entry), so
    the spec's ``at`` picks which record is left half-written.  Whatever it
    tears, the tail is discarded and the reopened table is exactly the prefix
    the child acknowledged.
    """
    env = {**os.environ, "PYTHONPATH": SRC_ROOT, "REPRO_CRASH": crash_spec}
    code = ARRAY_APPEND_CHILD.format(
        batches=ARRAY_BATCHES, batch_rows=ARRAY_BATCH_ROWS, value=ROW_VALUE[kind]
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, str(path), kind],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == -9, completed.stderr
    assert "SURVIVED" not in completed.stdout
    acked = [int(line.split()[1]) for line in completed.stdout.splitlines()
             if line.startswith("ACKED")]

    db = Database.open(path)
    assert db.recovery_report.torn_bytes_discarded > 0
    if not acked:  # the CREATE record itself was the torn one
        assert not db.has_table("pts")
        db.close()
        return 0
    rows = [row.values for row in db.table("pts").scan()]
    assert [values[0] for values in rows] == list(range(acked[-1]))
    for ordinal, (_, vec, label) in enumerate(rows):
        expected = _row_value(kind, ordinal)
        assert label == 1.0
        if kind == "array":
            assert vec.shape == (ARRAY_DIMENSION,) and np.array_equal(vec, expected)
        else:
            assert vec == expected and list(vec) == list(expected)
    # The repaired log accepts another block record and survives another cycle.
    db.table("pts").insert_many([(-1, _row_value(kind, 0), 0.0)] * 3)
    db.close()
    reopened = Database.open(path)
    assert len(reopened.table("pts")) == acked[-1] + 3
    assert reopened.recovery_report.torn_bytes_discarded == 0
    reopened.close()
    return acked[-1]


def test_sigkill_mid_block_record_keeps_the_acked_prefix(tmp_path):
    # at=2: batch 0 is acknowledged, batch 1's block record is torn.
    survived = _kill_array_append_child(tmp_path / "db", "kill:op=wal_append:at=2")
    assert survived == ARRAY_BATCH_ROWS


def test_sigkill_mid_csr_record_keeps_the_acked_prefix(tmp_path):
    # The sparse twin: batch 1's CSR entry is the torn record.
    survived = _kill_array_append_child(tmp_path / "db", "kill:op=wal_append:at=2", "sparse")
    assert survived == ARRAY_BATCH_ROWS


def test_ci_crash_matrix(tmp_path):
    """CI entry point: one kill scenario per ``REPRO_CRASH_SPEC`` matrix cell.

    The spec is deliberately NOT named ``REPRO_CRASH``: a durable Database
    arms ``REPRO_CRASH`` at construction, so exporting it to the whole pytest
    process would SIGKILL the test runner itself.  The job exports
    ``REPRO_CRASH_SPEC`` and this test forwards it to the child only.
    """
    spec = os.environ.get("REPRO_CRASH_SPEC")
    if not spec:
        pytest.skip("REPRO_CRASH_SPEC not set (CI crash-matrix only)")
    baseline = _shm_entries()
    completed = _run_child(tmp_path / "db", "process", spec)
    assert completed.returncode == -9, completed.stderr
    _assert_pids_gone(_worker_pids(completed))
    _resume_and_check(tmp_path / "db", "process")
    _assert_no_shm_leak(baseline)
    if "op=wal_append" in spec:
        # The same torn write under the other kinds of record: array blocks
        # and sparse CSR entries.
        _kill_array_append_child(tmp_path / "arrays", spec)
        _kill_array_append_child(tmp_path / "sparse", spec, "sparse")
