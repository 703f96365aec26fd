"""Whole-process crash recovery: kill a durable training engine, resume it.

The durability plane (:mod:`repro.db.wal`, :mod:`repro.db.checkpoint`) turns
engine death from run-fatal into a reopenable database; this experiment
measures the price and proves the contract.  It trains a durable serial run
as a child process SIGKILLed mid-epoch by the crash-injection harness
(``REPRO_CRASH``), then reopens the database here, times the recovery pass
(snapshot restore + WAL replay + torn-tail repair), resumes from the
recovered :class:`~repro.db.checkpoint.TrainingState`, and checks the
resumed model is bit-for-bit an uninterrupted run's.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.driver import BismarckRunner, IGDConfig
from ..data import load_classification_table, make_sparse_classification
from ..db import Database
from ..tasks.logistic_regression import LogisticRegressionTask
from .harness import ExperimentScale, resolve_scale
from .reporting import render_table

#: The child re-creates the exact same durable workload, logs its training
#: state every epoch, and is SIGKILLed by its own crash injector.
_CHILD_SOURCE = """
import sys
from repro.core.driver import BismarckRunner, IGDConfig
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database
from repro.tasks.logistic_regression import LogisticRegressionTask

path = sys.argv[1]
examples, dimension, nonzeros = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
epochs, seed = int(sys.argv[5]), int(sys.argv[6])
dataset = make_sparse_classification(examples, dimension,
                                     nonzeros_per_example=nonzeros, seed=11)
task = LogisticRegressionTask(dataset.dimension)
db = Database.open(path)
load_classification_table(db, "pts", dataset.examples, sparse=True)
config = IGDConfig(step_size=0.1, max_epochs=epochs, ordering="shuffle_once",
                   seed=seed, checkpoint_every=1)
BismarckRunner(db, task, config).train("pts")
db.close()
"""


@dataclass
class CrashRecoveryResult:
    """One SIGKILLed training run and its recovery, vs the clean run."""

    epochs: int
    crash_epoch: int
    examples: int
    #: Wall-clock of ``Database.open`` on the crashed directory — torn-tail
    #: repair + newest-valid-checkpoint restore + WAL delta replay.
    recovery_seconds: float = 0.0
    clean_train_seconds: float = 0.0
    resumed_train_seconds: float = 0.0
    checkpoint_generation: int = -1
    wal_records_replayed: int = 0
    torn_bytes_discarded: int = 0
    resumed_from_epoch: int = 0
    #: The acceptance bar: the resumed run's final model must be bit-for-bit
    #: the uninterrupted run's (deterministic serial IGD).
    bit_for_bit: bool = False
    event_kinds: list = field(default_factory=list)

    def render(self) -> str:
        rows = [
            ("uninterrupted", f"{self.epochs} epochs", f"{self.clean_train_seconds:.3f}s", "-"),
            (
                "SIGKILL + recover",
                f"{self.resumed_from_epoch}..{self.epochs - 1} resumed",
                f"{self.resumed_train_seconds:.3f}s",
                f"open {self.recovery_seconds:.4f}s (ckpt gen {self.checkpoint_generation}, "
                f"{self.wal_records_replayed} WAL record(s), "
                f"{self.torn_bytes_discarded}B torn)",
            ),
        ]
        return render_table(
            ["Run", "Epochs", "Train", "Recovery"],
            rows,
            title=(
                f"Crash recovery (serial, SIGKILL after epoch {self.crash_epoch}, "
                f"{self.examples} examples; bit-for-bit: {self.bit_for_bit})"
            ),
        )

    def bench_payload(self) -> dict:
        return {
            "epochs": self.epochs,
            "crash_epoch": self.crash_epoch,
            "examples": self.examples,
            "recovery_seconds": round(self.recovery_seconds, 4),
            "clean_train_seconds": round(self.clean_train_seconds, 4),
            "resumed_train_seconds": round(self.resumed_train_seconds, 4),
            "checkpoint_generation": self.checkpoint_generation,
            "wal_records_replayed": self.wal_records_replayed,
            "torn_bytes_discarded": self.torn_bytes_discarded,
            "resumed_from_epoch": self.resumed_from_epoch,
            "bit_for_bit": self.bit_for_bit,
        }


def run_crash_recovery_experiment(
    scale: ExperimentScale | str | None = None,
    *,
    epochs: int = 6,
    crash_epoch: int = 2,
    seed: int = 0,
) -> CrashRecoveryResult:
    """SIGKILL a durable training run mid-epoch, reopen, resume, compare.

    The child process dies at the ``epoch`` crash point *before* that
    epoch's training state is logged, so recovery restores the previous
    epoch's and the resume re-runs ``crash_epoch .. epochs-1``.
    """
    scale = resolve_scale(scale)
    examples = min(scale.sparse_examples, 400)
    dimension, nonzeros = scale.sparse_dimension, scale.sparse_nonzeros
    dataset = make_sparse_classification(
        examples, dimension, nonzeros_per_example=nonzeros, seed=11
    )
    task = LogisticRegressionTask(dataset.dimension)
    config = IGDConfig(
        step_size=0.1, max_epochs=epochs, ordering="shuffle_once",
        seed=seed, checkpoint_every=1,
    )
    result = CrashRecoveryResult(epochs=epochs, crash_epoch=crash_epoch, examples=examples)

    # Uninterrupted reference (in-memory: same bits, no disk noise).
    clean_db = Database("postgres", seed=seed)
    load_classification_table(clean_db, "pts", dataset.examples, sparse=True)
    start = time.perf_counter()
    clean = BismarckRunner(clean_db, task, config).train("pts")
    result.clean_train_seconds = time.perf_counter() - start

    workdir = tempfile.mkdtemp(prefix="repro-crash-")
    try:
        path = os.path.join(workdir, "db")
        src_root = str(Path(__file__).parents[2])
        pythonpath = src_root
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        env = {
            **os.environ,
            "PYTHONPATH": pythonpath,
            "REPRO_CRASH": f"kill:epoch={crash_epoch}",
        }
        completed = subprocess.run(
            [
                sys.executable, "-c", _CHILD_SOURCE, path,
                str(examples), str(dimension), str(nonzeros), str(epochs), str(seed),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if completed.returncode != -9:
            raise RuntimeError(
                f"crash child was expected to die by SIGKILL, got "
                f"{completed.returncode}: {completed.stderr[-500:]}"
            )
        result.event_kinds.append("sigkill")

        start = time.perf_counter()
        recovered = Database.open(path)
        result.recovery_seconds = time.perf_counter() - start
        report = recovered.recovery_report
        result.checkpoint_generation = report.checkpoint_generation
        result.wal_records_replayed = report.records_replayed
        result.torn_bytes_discarded = report.torn_bytes_discarded
        state = recovered.training_state("pts")
        if state is None:
            raise RuntimeError("no training state survived the crash")
        result.resumed_from_epoch = state.next_epoch
        result.event_kinds.append("resumed")

        start = time.perf_counter()
        resumed = BismarckRunner(recovered, task, config).train("pts", resume_from=state)
        result.resumed_train_seconds = time.perf_counter() - start
        recovered.close()

        result.bit_for_bit = bool(
            np.array_equal(
                resumed.model.as_flat_vector(), clean.model.as_flat_vector()
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result
