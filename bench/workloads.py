"""The six workloads: what each one is, why it exists, and how it drives the engine.

Every workload walks the same phases on its own engine configuration, so the
twelve end-to-end metrics mean the same thing on all six and only the layer
mix differs:

``setup``    fresh engine -> table loaded -> one cold call returned
``train``    warm ``train()`` / ``SELECT LRTrain`` calls to the target objective
``recover``  reopen copies of a durable directory holding the workload's rows
``refresh``  append a batch, then refresh the model over the delta

The load is a closed loop with one client in this one process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.convergence import ObjectiveThreshold
from repro.core.driver import BismarckRunner, IGDConfig
from repro.core.parallel import PureUDAParallelism
from repro.db.engine import Database
from repro.db.fault import CrashPlan
from repro.db.parallel import SegmentedDatabase
from repro.db.shared_memory import SharedMemoryParallelism
from repro.db.table import Table
from repro.db.types import ColumnType, Schema
from repro.frontend import install_frontend, load_model
from repro.tasks.logistic_regression import LogisticRegressionTask

import reference
from host import process_cpu_seconds

TABLE = "pts"

#: Step-size schedule shared by the dense training workloads.
DENSE_STEP = {"kind": "epoch_decay", "alpha0": 0.01, "decay": 0.3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "plain" Database, "segmented" SegmentedDatabase(2), "sql" Database +
    #: install_frontend, "durable" Database.open(dir, durability="fsync").
    engine: str
    parallelism: str | None  # None | "uda2" | "shmem2"
    rows: int
    dimension: int
    sparse: bool
    ordering: str
    step_size: dict | float
    max_epochs: int
    #: target objective = f_opt * (1 + rho); calibration table in README.md.
    rho: float
    #: Looser target for ``--scale tiny``, where an epoch has 30x fewer steps.
    rho_tiny: float
    calls: int           # timed warm train calls per run_seconds of budget
    rounds: int          # append + refresh rounds
    batch: int           # rows per append batch
    copies: int          # timed reopen()s of the durable directory
    deterministic: bool = True
    generator: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="dense_serial",
            why="kernel and objective pass do nearly all the work; the single-worker baseline "
                "the two parallel workloads are read against",
            engine="plain", parallelism=None, rows=30_000, dimension=54, sparse=False,
            ordering="shuffle_once", step_size=DENSE_STEP, max_epochs=12,
            rho=0.0014, rho_tiny=0.05, calls=14, rounds=16, batch=500, copies=11,
            generator={"separation": 0.5, "noise": 2.0},
        ),
        Workload(
            name="dense_uda2",
            why="same rows and target on 2 shared-nothing process workers: what differs from "
                "dense_serial is spawn, publish, dispatch, merge and the pooled loss pass",
            engine="segmented", parallelism="uda2", rows=30_000, dimension=54, sparse=False,
            ordering="shuffle_once", step_size=DENSE_STEP, max_epochs=12,
            rho=0.0027, rho_tiny=0.05, calls=6, rounds=16, batch=500, copies=9,
            generator={"separation": 0.5, "noise": 2.0},
        ),
        Workload(
            name="dense_shmem2",
            why="same pool used the other way: shared model pages, racy nolock adds and the "
                "per-example worker loop, so a pool change that helps one path at the "
                "other's cost shows",
            engine="plain", parallelism="shmem2", rows=30_000, dimension=54, sparse=False,
            ordering="shuffle_once", step_size=DENSE_STEP, max_epochs=12,
            rho=0.0014, rho_tiny=0.05, calls=5, rounds=10, batch=500, copies=9,
            deterministic=False, generator={"separation": 0.5, "noise": 2.0},
        ),
        Workload(
            name="sparse_reshuffle",
            why="CSR kernels plus a fresh permutation and gather_batches every epoch: the "
                "ordering and chunk-plan layers that dense_serial's one cached gather "
                "barely touches",
            engine="plain", parallelism=None, rows=20_000, dimension=2_000, sparse=True,
            ordering="shuffle_always", step_size={"kind": "epoch_decay", "alpha0": 0.1, "decay": 0.5},
            max_epochs=10, rho=0.029, rho_tiny=0.5, calls=12, rounds=16, batch=200, copies=11,
            generator={"nnz": 25, "flip": 0.1},
        ),
        Workload(
            name="stream_sql",
            why="writes beside reads through SQL: appends hit the ledger, cache extension, "
                "partial_fit and save_model paths while the kernels do little",
            engine="sql", parallelism=None, rows=15_000, dimension=54, sparse=False,
            ordering="shuffle_once", step_size=0.002, max_epochs=5,
            rho=0.02, rho_tiny=3.0, calls=8, rounds=40, batch=500, copies=11,
            generator={"separation": 1.5, "noise": 1.0},
        ),
        Workload(
            name="durable_resume",
            why="fsync durability with a checkpoint every epoch, then SIGKILL, recovery and "
                "resume: WAL, checkpoint and recovery do most of the work here and none "
                "anywhere else",
            engine="durable", parallelism=None, rows=30_000, dimension=54, sparse=False,
            ordering="shuffle_once", step_size=DENSE_STEP, max_epochs=12,
            rho=0.0014, rho_tiny=0.05, calls=4, rounds=10, batch=500, copies=11,
            generator={"separation": 0.5, "noise": 2.0},
        ),
    ]
}

#: A library refresh is one epoch over the appended rows, then one over the
#: whole table so old rows keep their say (the SQL frontend does the same with
#: its own cadence).  The full pass also makes a refresh long enough to time:
#: delta-only refreshes took 9 ms and their quartiles moved 20 % run to run.
REFRESH_EPOCHS = 2

#: The ``run_seconds`` the per-workload call counts above are sized for.
RUN_SECONDS = 10
SCALES = ("full", "tiny")
#: ``--scale tiny`` divides rows (and a sparse workload's dimension) by this.
TINY_DIVISOR = 30


@dataclass(frozen=True)
class Sizes:
    rows: int
    dimension: int
    calls: int
    rounds: int
    batch: int
    copies: int
    setups: int
    rho: float


def sizes_for(spec: Workload, scale: str, seconds: int, trace: bool) -> Sizes:
    """Fixed operation counts for one run: both sides of a comparison do the same work."""
    if scale == "tiny":
        # A sparse problem keeps its rows-per-feature ratio, or it turns separable.
        return Sizes(
            rows=max(spec.rows // TINY_DIVISOR, 400),
            dimension=spec.dimension // TINY_DIVISOR if spec.sparse else spec.dimension,
            calls=3, rounds=4, batch=max(spec.batch // 10, 20), copies=2, setups=1,
            rho=spec.rho_tiny,
        )
    share = seconds / RUN_SECONDS
    calls = max(3, round(spec.calls * share))
    rounds = max(4, round(spec.rounds * share))
    if trace:
        # The traced run times every call twice (recording on / off) and so
        # halves the other phases to stay inside the same budget.
        return Sizes(spec.rows, spec.dimension, max(4, calls // 2), max(4, rounds // 2),
                     spec.batch, 3, 1, spec.rho)
    return Sizes(spec.rows, spec.dimension, calls, rounds, spec.batch, spec.copies, 3, spec.rho)


def generate(spec: Workload, total_rows: int, dimension: int, seed: int) -> reference.Dataset:
    make = reference.make_sparse if spec.sparse else reference.make_dense
    return make(total_rows, dimension, seed, **spec.generator)


# ---------------------------------------------------------------- op ledger
class Ledger:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, bool] = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A named end-of-run check; counts as one operation."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.op(bool(ok), f"check {name} failed{': ' + detail if detail else ''}")


@dataclass
class Outcome:
    """What one training or refresh call returned, in engine-neutral terms."""

    seconds: float
    cpu_seconds: float
    epochs: int
    objective: float
    weights: np.ndarray
    events: int
    mode: str = ""


# ------------------------------------------------------------------ session
def new_table(spec: Workload, rows: list[tuple]) -> Table:
    """The LabeledPapers layout: ``(id, vec, label)``."""
    feature_type = ColumnType.SPARSE_VECTOR if spec.sparse else ColumnType.FLOAT_ARRAY
    schema = Schema.of(
        ("id", ColumnType.INTEGER), ("vec", feature_type), ("label", ColumnType.FLOAT)
    )
    table = Table(TABLE, schema)
    table.insert_many(rows)
    return table


class Session:
    """One engine under test, loaded with the workload's table."""

    def __init__(self, spec: Workload, db, target: float, *, dimension: int | None = None,
                 in_process: bool = False):
        self.spec = spec
        self.db = db
        self.catalog = db.master if isinstance(db, SegmentedDatabase) else db
        self.sql_calls = 0
        self.model = None
        self.version = None
        if spec.engine == "sql":
            install_frontend(db)
            return
        parallelism = None
        if spec.parallelism == "uda2":
            parallelism = PureUDAParallelism(
                segments=2, backend="in_process" if in_process else "process"
            )
        elif spec.parallelism == "shmem2":
            parallelism = SharedMemoryParallelism(scheme="nolock", workers=2, backend="process")
        # One task object for the engine's lifetime: the example cache and
        # the worker payloads are keyed on its identity.
        self.task = LogisticRegressionTask(dimension or spec.dimension)
        common = dict(
            step_size=dict(spec.step_size), ordering=spec.ordering, seed=1,
            parallelism=parallelism, checkpoint_every=1 if spec.engine == "durable" else 0,
        )
        self.cold_runner = BismarckRunner(db, self.task, IGDConfig(max_epochs=1, **common))
        self.train_runner = BismarckRunner(
            db, self.task,
            IGDConfig(max_epochs=spec.max_epochs, stopping=ObjectiveThreshold(target), **common),
        )
        self.refresh_runner = BismarckRunner(
            db, self.task, IGDConfig(max_epochs=REFRESH_EPOCHS, **common)
        )

    @classmethod
    def open(cls, spec: Workload, rows: list[tuple], target: float,
             directory: Path | None = None, *, dimension: int | None = None, crashes=None,
             in_process: bool = False) -> "Session":
        """A fresh engine of the workload's kind with ``rows`` loaded."""
        table = new_table(spec, rows)
        if spec.engine == "segmented":
            db = SegmentedDatabase(2, seed=0)
            db.load_table(table)
        else:
            if spec.engine == "durable":
                db = Database.open(directory, durability="fsync", seed=0, crashes=crashes)
            else:
                db = Database("postgres", seed=0)
            db.register_table(table)
        return cls(spec, db, target, dimension=dimension, in_process=in_process)

    # ------------------------------------------------------------- calls
    def cold_call(self) -> None:
        """The first call on a fresh engine: decode, pool fork, page publish."""
        if self.spec.engine == "sql":
            self._lrtrain("m")
        else:
            self._remember(self.cold_runner.train(TABLE))

    def train_call(self) -> Outcome:
        cpu = process_cpu_seconds()
        start = time.perf_counter()
        if self.spec.engine == "sql":
            self.sql_calls += 1
            outcome = self._lrtrain(f"m{self.sql_calls}")
        else:
            outcome = self._outcome(self.train_runner.train(TABLE))
        outcome.seconds = time.perf_counter() - start
        outcome.cpu_seconds = process_cpu_seconds() - cpu
        return outcome

    def insert(self, rows: list[tuple]) -> float:
        start = time.perf_counter()
        self.db.insert(TABLE, rows)
        return time.perf_counter() - start

    def refresh(self) -> Outcome:
        """Bring the model up to date with the rows appended since it was trained."""
        start = time.perf_counter()
        if self.spec.engine == "sql":
            outcome = self._lrtrain("m")
        else:
            result = self.refresh_runner.partial_fit(
                TABLE, initial_model=self.model, since_version=self.version,
                full_pass_every=REFRESH_EPOCHS,
            )
            self._remember(result)
            outcome = self._outcome(result)
            outcome.mode = "continued" if result.ordering_name.startswith("delta") else "retrained"
        outcome.seconds = time.perf_counter() - start
        return outcome

    def accuracy(self) -> float:
        return float(self.db.execute(
            f"SELECT ClassifyAccuracy('m', '{TABLE}', 'vec', 'label')"
        ).scalar())

    def _remember(self, result) -> None:
        self.model = result.model
        self.version = result.table_version

    def _outcome(self, result) -> Outcome:
        return Outcome(
            seconds=0.0, cpu_seconds=0.0, epochs=result.epochs_run,
            objective=result.final_objective, weights=result.model["w"].copy(),
            events=len(result.recovery_events),
        )

    def _lrtrain(self, model_name: str) -> Outcome:
        marker = len(self.db.recovery_log)
        summary = self.db.execute(
            f"SELECT LRTrain('{model_name}', '{TABLE}', 'vec', 'label', "
            f"{self.spec.step_size}, {self.spec.max_epochs})"
        ).scalar()
        match = re.search(r"' (\w+) with .*epochs=(\d+), objective=([-+.\w]+)", summary)
        return Outcome(
            seconds=0.0, cpu_seconds=0.0, epochs=int(match.group(2)),
            objective=float(match.group(3)),
            weights=load_model(self.db, model_name)["w"].copy(),
            events=len(self.db.recovery_log) - marker, mode=match.group(1),
        )

    # ---------------------------------------------------------- teardown
    def counters(self) -> dict:
        """Counts the engine already keeps, read once before the engine closes."""
        cache = self.catalog.executor.example_cache
        tables = list(self.catalog.tables.values())
        if self.spec.engine == "segmented":
            tables += self.db.segments_of(TABLE)
        transport = {"page_bytes": 0, "bytes_shipped": 0, "page_fallbacks": 0}
        for pool in self.catalog._process_pools.values():
            stats = pool.transport_stats
            transport["page_bytes"] += stats["page_bytes"]
            transport["bytes_shipped"] += stats["pages_bytes_shipped"] + stats["pickle_bytes_shipped"]
            transport["page_fallbacks"] += stats["page_fallbacks"]
        log = self.catalog.recovery_log
        return {
            "cache.hits": cache.hits, "cache.misses": cache.misses,
            "cache.extensions": cache.extensions, "cache.decoded_rows": cache.decoded_rows,
            "table.scans": sum(table.scan_count for table in tables),
            "pool.page_bytes": transport["page_bytes"],
            "pool.bytes_shipped": transport["bytes_shipped"],
            "pool.page_fallbacks": transport["page_fallbacks"],
            "pool.recovery_events": sum(1 for e in log if not hasattr(e, "to_backend")),
            "pool.degradations": sum(1 for e in log if hasattr(e, "to_backend")),
        }

    def close(self) -> None:
        self.db.close()


# ------------------------------------------------- durability without trust
class FsyncJournal:
    """Records ``(inode, size)`` at every ``os.fsync`` of the crash child.

    SIGKILL leaves the operating system's cache intact, so a reopen after it
    would read bytes that were never flushed.  The child journals what it
    actually fsynced; before recovery the parent cuts every file back to its
    last fsynced length and removes files that were never fsynced at all.
    """

    def __init__(self, path: Path):
        self.path = path

    def install(self) -> None:
        real_fsync = os.fsync
        handle = open(self.path, "a")

        def journaled_fsync(fd):
            real_fsync(fd)
            status = os.fstat(fd)
            handle.write(json.dumps([status.st_ino, status.st_size]) + "\n")
            handle.flush()

        os.fsync = journaled_fsync

    def discard_unflushed(self, directory: Path) -> dict:
        """Cut ``directory`` back to what was fsynced; returns what that removed."""
        flushed: dict[int, int] = {}
        for line in self.path.read_text().splitlines():
            inode, size = json.loads(line)
            flushed[inode] = size
        report = {"truncated_bytes": 0, "removed_files": 0}
        for entry in directory.iterdir():
            status = entry.stat()
            if status.st_ino not in flushed:
                entry.unlink()
                report["removed_files"] += 1
            elif status.st_size > flushed[status.st_ino]:
                report["truncated_bytes"] += status.st_size - flushed[status.st_ino]
                os.truncate(entry, flushed[status.st_ino])
        return report


def _crash_child(spec: Workload, rows: list[tuple], split: int, target: float, crash_epoch: int,
                 directory: Path, journal: Path, acks: Path) -> None:
    """Load through the WAL, acknowledge, train with a checkpoint every epoch, die mid-run."""
    FsyncJournal(journal).install()
    session = Session.open(spec, rows[:split], target, directory,
                           crashes=(CrashPlan("epoch", at=crash_epoch),))
    with open(acks, "a") as handle:
        handle.write(f"{split}\n")
        handle.flush()
        session.insert(rows[split:])
        handle.write(f"{len(rows)}\n")
        handle.flush()
    session.train_runner.train(TABLE)
    os._exit(3)  # not reached: the crash plan SIGKILLs this process mid-run


def crash_and_discard(spec: Workload, rows: list[tuple], target: float, crash_epoch: int,
                      work: Path, recorder, ledger: Ledger) -> tuple[Path, int, dict]:
    """Run the crash child; returns its directory with unflushed bytes cut away,
    the number of rows it acknowledged, and what the cut removed.

    The child is SIGKILLed after the gradient pass of the 0-based epoch
    ``crash_epoch``, before that epoch's objective and checkpoint, so recovery
    has to fall back to the checkpoint of the epoch before.
    """
    directory = work / "crashed"
    journal, acks = work / "fsync-journal.jsonl", work / "acked-rows.txt"
    context = multiprocessing.get_context("fork")

    def target_fn():
        if recorder is not None:
            recorder.mute_in_child()
        _crash_child(spec, rows, len(rows) - len(rows) // 10, target, crash_epoch,
                     directory, journal, acks)

    child = context.Process(target=target_fn)
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
    ledger.op(child.exitcode == -signal.SIGKILL,
              f"crash child exited with {child.exitcode}, expected SIGKILL")
    discarded = FsyncJournal(journal).discard_unflushed(directory)
    return directory, int(acks.read_text().split()[-1]), discarded


def persist_copy(spec: Workload, rows: list[tuple], split: int, work: Path) -> Path:
    """What making this workload durable would leave on disk: its rows through an fsync WAL."""
    directory = work / "persisted"
    with Database.open(directory, durability="fsync") as db:
        db.register_table(new_table(spec, rows[:split]))
        db.insert(TABLE, rows[split:])
    return directory


def directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.iterdir() if entry.is_file())


def timed_reopen(directory: Path, scratch: Path):
    """Copy ``directory``, time ``Database.open`` on the copy; returns ``(seconds, db)``."""
    if scratch.exists():
        shutil.rmtree(scratch)
    shutil.copytree(directory, scratch)
    start = time.perf_counter()
    db = Database.open(scratch, durability="fsync", seed=0)
    return time.perf_counter() - start, db
