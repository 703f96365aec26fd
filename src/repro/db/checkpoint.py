"""Atomic snapshots of the catalog, and crash recovery.

A snapshot is one self-contained image of a database: every catalog table
(rows — array and sparse columns as one block each, see
:func:`~repro.db.table.encode_rows` — schema, version counter **and version
ledger**, so ``partial_fit`` watermarks keep classifying correctly across a
crash), the engine's saved
:class:`TrainingState` objects, and the WAL position it covers through.  It
compacts the log; it is not what makes an epoch durable — a saved
``TrainingState`` is a WAL record, and ``Database.save_training_state``
holds the rule for when a snapshot follows one.

Atomicity is rename-based: the snapshot is fully written and fsync'd to a
``*.tmp`` file, then ``os.replace``'d into its generation-numbered final
name.  A crash before the rename leaves only a stale temp file (ignored and
swept on the next open); a crash after it leaves a complete new generation.
There is no state in which a half-written snapshot can be mistaken for a
whole one — the payload is CRC-framed, and recovery scans generations newest
to oldest, falling back past any snapshot that does not validate.  The log
an older generation needs is pruned only once that generation is retired.

Recovery (:func:`recover_database`, run by ``Database.open``):

1. load the newest *valid* snapshot; restore tables and training states;
2. sweep the WAL segments no retained generation needs (a crash between a
   snapshot's rename and its prune leaves them behind);
3. read the log from the snapshot's ``(segment, offset)`` on in one pass
   (:func:`~repro.db.wal.read_wal`) and replay it — table mutations re-apply
   with their original :class:`~repro.db.table.LedgerEntry` (exact version
   numbers, ledger reconstructed, no re-logging; a record whose row counts
   contradict its entry raises ``ExecutionError``), DDL records re-create/drop
   tables, ``training`` records save or clear a :class:`TrainingState`;
4. the engine then reopens the WAL for append and re-attaches its mutation
   observers.

A resumed deterministic training run continues from the restored
:class:`TrainingState` — model, epoch counter, step offset, history, the
``numpy`` RNG *and the ordering policy's drawn permutations* — and must
match the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import mmap
import os
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .table import Table, decode_rows
from .wal import RECORD_HEADER, numbered_files, prune_segments, read_wal

#: Checkpoint file framing: magic + format version, then ``<II`` (length,
#: CRC-32) and the pickled payload.
CHECKPOINT_MAGIC = b"BCKP1"
CHECKPOINT_FORMAT = 1


@dataclass
class TrainingState:
    """Everything a ``BismarckRunner`` needs to continue a run bit-for-bit.

    Captured at epoch granularity (end of epoch ``next_epoch - 1``): the
    model, the convergence history, the RNG mid-stream, and a deep copy of
    the ordering policy — shuffle policies draw permutations lazily and cache
    them, so the *policy object* (not just its name) is part of the resumable
    state.  ``table_version`` is the frontend's ``table@version`` watermark:
    after recovery, ``partial_fit`` continues over exactly the rows the WAL
    replayed past it.
    """

    name: str
    task: str
    table_name: str
    table_version: int
    model: Any
    next_epoch: int
    step_offset: int
    history: list = field(default_factory=list)
    rng: Any = None
    ordering: Any = None


class CheckpointManager:
    """Generation-numbered atomic snapshots in a database directory."""

    KEEP_GENERATIONS = 2

    def __init__(self, directory: Path, *, crash: "object | None" = None):
        self.directory = Path(directory)
        self._crash = crash
        # Stale temp files are crashes' litter; they are never loadable state.
        for leftover in self.directory.glob("checkpoint-*.tmp"):
            leftover.unlink(missing_ok=True)

    def _path(self, generation: int) -> Path:
        return self.directory / f"checkpoint-{generation:06d}.ckpt"

    def generations(self) -> list[int]:
        return [number for number, _ in numbered_files(self.directory, "checkpoint-*.ckpt")]

    def write(self, payload: dict) -> Path:
        """Atomically persist one snapshot; returns the final path."""
        existing = self.generations()
        generation = existing[-1] + 1 if existing else 0
        payload = {**payload, "format": CHECKPOINT_FORMAT, "generation": generation}
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blob = CHECKPOINT_MAGIC + RECORD_HEADER.pack(len(data), zlib.crc32(data)) + data
        final = self._path(generation)
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        if self._crash is not None:
            # The mid-checkpoint hazard point: the snapshot exists only as a
            # temp file.  Dying here must cost nothing but the temp file.
            self._crash.crash_point("checkpoint")
        os.replace(tmp, final)
        self._fsync_directory()
        for old in existing[: max(0, len(existing) - (self.KEEP_GENERATIONS - 1))]:
            self._path(old).unlink(missing_ok=True)
        return final

    def load(self, generation: int) -> "dict | None":
        """One generation's payload, or None when missing/corrupt."""
        path = self._path(generation)
        prefix = len(CHECKPOINT_MAGIC)
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        # Mapped, not read, like a WAL segment (``scan_segment``): the payload
        # is table-sized, and a heap copy beside the decoded tables made each
        # reopen's cost depend on what the process had allocated before.
        with handle:
            if os.fstat(handle.fileno()).st_size < prefix + RECORD_HEADER.size:
                return None
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as blob:
                if blob[:prefix] != CHECKPOINT_MAGIC:
                    return None
                length, checksum = RECORD_HEADER.unpack_from(blob, prefix)
                with memoryview(blob)[prefix + RECORD_HEADER.size:] as data:
                    if len(data) != length or zlib.crc32(data) != checksum:
                        return None
                    return pickle.loads(data)

    def load_latest(self) -> "tuple[dict, int] | None":
        """Newest checkpoint that validates, scanning newest → oldest."""
        for generation in reversed(self.generations()):
            payload = self.load(generation)
            if payload is not None:
                return payload, generation
        return None

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@dataclass
class RecoveryReport:
    """What one ``Database.open`` recovery pass did."""

    checkpoint_generation: "int | None" = None
    tables_restored: int = 0
    records_replayed: int = 0
    torn_bytes_discarded: int = 0
    training_states: tuple = ()

    @property
    def recovered_anything(self) -> bool:
        return self.checkpoint_generation is not None or self.records_replayed > 0


def recover_database(database, directory: Path) -> RecoveryReport:
    """Restore ``database``'s catalog and training states from disk.

    Called by the engine before the WAL is reopened for append and before
    mutation observers are attached, so nothing replayed here is re-logged.
    """
    directory = Path(directory)
    report = RecoveryReport()
    states = database._training_states

    loaded = database.checkpoints.load_latest()
    position = None
    if loaded is not None:
        payload, generation = loaded
        report.checkpoint_generation = generation
        for key, image in payload.get("tables", {}).items():
            database.tables[key] = Table.from_image(image)
            report.tables_restored += 1
        states.update(payload.get("training", {}))
        position = payload.get("wal_position")
        if position is None:
            # Snapshot-only durability (mode "off"): the snapshot is the
            # whole truth; any WAL files predate it or belong to another mode.
            report.training_states = tuple(sorted(states))
            return report
        database._snapshot_segment = position[0]
        database._snapshot_bytes = database.checkpoints._path(generation).stat().st_size
        # Should this generation rot, the one before it is the fallback: the
        # log is kept from *its* position, which this snapshot recorded.
        prune_segments(directory, payload.get("wal_keep_from", position[0]))

    records, report.torn_bytes_discarded = read_wal(directory, after=position)
    for record in records:
        kind = record.get("type")
        if kind == "create":
            table = Table.from_image(record["image"])
            database.tables[table.name.lower()] = table
            report.tables_restored += 1
        elif kind == "drop":
            database.tables.pop(record["name"], None)
        elif kind == "mutation":
            table = database.tables.get(record["table"])
            if table is not None:
                table.apply_logged_mutation(
                    record["entry"], decode_rows(table.schema, record),
                    record.get("clustered_on"),
                )
        elif kind == "training":
            if record["state"] is None:
                states.pop(record["name"], None)
            else:
                states[record["name"]] = record["state"]
        report.records_replayed += 1
    report.training_states = tuple(sorted(states))
    return report
