"""Per-database write-ahead log with torn-write-safe framing.

Every durable change an engine makes is one record here: each
ledger-classified table mutation (``insert``, ``insert_many``, rewrites such
as ``shuffle``/``cluster_by``/``truncate``), DDL (table create/drop) and each
saved or cleared :class:`~repro.db.checkpoint.TrainingState`.  A record is
appended *after* the change is applied in memory and *before* control returns
to the caller, so a process that dies at any instant can be reopened and
replayed to the exact boundary it last completed.

Wherever a record carries table rows (``mutation`` records and the image in a
``create``) they are in :func:`~repro.db.table.encode_rows` form: a ``rows``
list of tuples and, when a ``FLOAT_ARRAY`` column is uniform within the
record, ``blocks`` holding that column as one stacked ``(n, d)`` float64
array — one buffer to frame and checksum instead of one pickled ndarray per
row.  Ragged or NULL-bearing array columns, sparse maps, scalars and text
stay inline (for sparse maps and scalars a columnar form measured slower or
larger than pickle's own), a record with no block has no ``blocks`` key, and
so logs written before blocks existed replay through the same decoder.  This
module neither knows nor cares: it frames whatever payload it is given.

Physical layout — the database directory holds numbered **segments**::

    wal-000000.log          9-byte header, then records
    wal-000001.log          the active segment (highest index)

A snapshot starts by **rotating** the log to a fresh segment and records that
segment's start as its ``(segment, offset)`` position: it covers whole
segments only, and recovery opens nothing older.  Once the snapshot is in
place, segments older than the *oldest retained* generation's position are
pruned, so falling back past a corrupt newest generation still finds the log
it needs.  A process that dies anywhere in that sequence leaves the previous
generation plus every segment from its position on: still the whole truth.

Record framing is torn-write-safe: a fixed ``<II`` header (payload length,
CRC-32 of the payload) precedes each pickled payload.  A crash mid-append
leaves a tail whose length or checksum cannot validate; :func:`scan_segment`
stops at the first such record and reports the number of clean bytes, and
:func:`read_wal` — recovery's single pass, which decodes each record once —
truncates the torn tail before the log is reopened for append.  Only the
*last* segment can ever be torn — earlier segments were rotated away whole.

Fsync policy is per-database (``Database(durability=...)``):

* ``"off"`` — no WAL at all; durability is snapshot-granular.
* ``"buffered"`` (default) — every append is flushed to the OS page cache
  (``file.flush()``), so the record survives the *process* dying (SIGKILL,
  the crash-injection harness) but not the machine.
* ``"fsync"`` — every append is also ``os.fsync``'d: machine-crash durable,
  one disk round-trip per record.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import EnvSpecError, ExecutionError

#: Record framing: payload length + CRC-32 of the payload.
RECORD_HEADER = struct.Struct("<II")

#: Segment file header: magic + format version + segment index.
SEGMENT_MAGIC = b"BWAL1"
SEGMENT_HEADER = struct.Struct("<I")
SEGMENT_HEADER_SIZE = len(SEGMENT_MAGIC) + SEGMENT_HEADER.size

DURABILITY_MODES = ("off", "buffered", "fsync")


@dataclass(frozen=True)
class DurabilityPolicy:
    """How hard the engine tries to keep mutations after a crash."""

    mode: str = "buffered"

    def __post_init__(self) -> None:
        if self.mode not in DURABILITY_MODES:
            raise EnvSpecError(
                f"unknown durability mode {self.mode!r}; expected one of {DURABILITY_MODES}"
            )

    @property
    def wal_enabled(self) -> bool:
        return self.mode != "off"

    @property
    def fsync(self) -> bool:
        return self.mode == "fsync"

    @classmethod
    def resolve(cls, value: "DurabilityPolicy | str | None") -> "DurabilityPolicy":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(mode=str(value).lower())


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"wal-{index:06d}.log"


def numbered_files(directory: Path, pattern: str) -> list[tuple[int, Path]]:
    """``(number, path)`` of the files matching ``<kind>-<number>.<ext>``, ordered."""
    found = []
    for path in directory.glob(pattern):
        try:
            found.append((int(path.stem.split("-", 1)[1]), path))
        except (IndexError, ValueError):
            continue
    return sorted(found)


def segment_files(directory: Path) -> list[tuple[int, Path]]:
    """``(index, path)`` of every WAL segment in the directory, ordered."""
    return numbered_files(directory, "wal-*.log")


def prune_segments(directory: Path, keep_from: int) -> None:
    """Delete the segments with index < ``keep_from``."""
    for index, path in segment_files(directory):
        if index < keep_from:
            path.unlink(missing_ok=True)


def scan_segment(
    path: Path, start: int = SEGMENT_HEADER_SIZE
) -> tuple[list[tuple[int, Any]], int, int]:
    """Validate one segment; returns ``(records, clean_length, torn_bytes)``.

    ``records`` is ``[(offset, payload), ...]`` for every record from byte
    ``start`` on whose frame validates, in order.  ``clean_length`` is the
    byte length of the valid prefix (header + whole records); everything past
    it — a short header, a short payload, or a CRC mismatch — is torn tail,
    reported as ``torn_bytes``.  A segment whose file header is itself
    unreadable is treated as entirely torn (``clean_length`` 0).
    """
    size = path.stat().st_size
    if size < SEGMENT_HEADER_SIZE:
        return [], 0, size
    records: list[tuple[int, Any]] = []
    # Mapped, not read: a record can be most of a table, and a second
    # table-sized heap buffer beside the decoded one is what tips the
    # allocator into returning and re-faulting both on every reopen.
    with open(path, "rb") as handle, mmap.mmap(
        handle.fileno(), 0, access=mmap.ACCESS_READ
    ) as data:
        if data[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            return [], 0, size
        offset = start
        while offset + RECORD_HEADER.size <= size:
            length, checksum = RECORD_HEADER.unpack_from(data, offset)
            end = offset + RECORD_HEADER.size + length
            if end > size:
                break
            with memoryview(data)[offset + RECORD_HEADER.size:end] as payload:
                if zlib.crc32(payload) != checksum:
                    break
                records.append((offset, pickle.loads(payload)))
            offset = end
    return records, offset, size - offset


def read_wal(
    directory: Path, after: "tuple[int, int] | None" = None
) -> tuple[list[Any], int]:
    """Recovery's one pass over the log: ``(payloads, torn_bytes)``.

    ``after`` is the ``(segment, offset)`` a snapshot recorded: records from
    that offset on, plus every later segment in full, are decoded once and
    returned in log order; older segments are not opened.  ``None`` reads the
    whole log.  The torn tail of the last segment — a crash can only tear the
    one being appended to — is truncated and its length returned.
    """
    start_segment, start_offset = after if after is not None else (-1, 0)
    segments = [found for found in segment_files(directory) if found[0] >= start_segment]
    payloads: list[Any] = []
    torn = 0
    for index, path in segments:
        records, clean_length, torn_here = scan_segment(
            path, start_offset if index == start_segment else SEGMENT_HEADER_SIZE
        )
        payloads.extend(payload for _, payload in records)
        if torn_here and index == segments[-1][0]:
            torn = torn_here
            with open(path, "r+b") as handle:
                handle.truncate(clean_length)
                if clean_length == 0:
                    # Even the segment header was torn (crash mid-rotate):
                    # rewrite it so the segment is a valid empty log again.
                    handle.write(SEGMENT_MAGIC + SEGMENT_HEADER.pack(index))
                    handle.flush()
                    os.fsync(handle.fileno())
    return payloads, torn


class WriteAheadLog:
    """Append handle on a database directory's WAL.

    Opens (creating if needed) the highest-numbered segment for append; the
    caller must have repaired torn tails first (the engine's recovery path
    does).  ``append`` is atomic at record granularity with respect to
    recovery: a record either replays whole or is discarded as torn tail.
    """

    def __init__(
        self,
        directory: Path,
        policy: DurabilityPolicy | None = None,
        *,
        crash: "object | None" = None,
    ):
        self.directory = Path(directory)
        self.policy = policy or DurabilityPolicy()
        self._crash = crash
        self._file = None
        self.closed = False
        segments = segment_files(self.directory)
        if segments:
            self._segment = segments[-1][0]
            self._file = open(segments[-1][1], "ab")
            self._offset = self._file.tell()
        else:
            self._segment = 0
            self._start_segment(0)

    def _start_segment(self, index: int) -> None:
        self._segment = index
        self._file = open(_segment_path(self.directory, index), "ab")
        self._file.write(SEGMENT_MAGIC + SEGMENT_HEADER.pack(index))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._offset = SEGMENT_HEADER_SIZE

    def position(self) -> tuple[int, int]:
        """Current end of log as ``(segment, offset)`` — the replay boundary
        a snapshot taken *now* should record."""
        return (self._segment, self._offset)

    def bytes_since(self, segment: int) -> int:
        """Bytes a reopen replays from a snapshot positioned at ``segment``'s start."""
        found = segment_files(self.directory)
        return sum(path.stat().st_size for index, path in found if index >= segment)

    def append(self, record: Any) -> tuple[int, int]:
        """Frame, write and flush one record; returns its ``(segment, offset)``."""
        if self.closed:
            raise ExecutionError("write-ahead log is closed")
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        header = RECORD_HEADER.pack(len(payload), zlib.crc32(payload))
        if self._crash is not None and self._crash.should_fire("wal_append"):
            # A real torn write: half the frame reaches the OS, then the
            # process dies.  Recovery must discard exactly this tail.
            self._file.write(header + payload[: len(payload) // 2 + 1])
            self._file.flush()
            os.fsync(self._file.fileno())
            self._crash.fire()
        position = (self._segment, self._offset)
        self._file.write(header)
        self._file.write(payload)
        self._file.flush()
        if self.policy.fsync:
            os.fsync(self._file.fileno())
        self._offset += RECORD_HEADER.size + len(payload)
        return position

    def rotate(self) -> int:
        """Switch appends to a fresh segment (the first step of a snapshot)."""
        if self.closed:
            raise ExecutionError("write-ahead log is closed")
        self._file.flush()
        self._file.close()
        self._start_segment(self._segment + 1)
        return self._segment

    def flush(self) -> None:
        if not self.closed:
            self._file.flush()
            if self.policy.fsync:
                os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and close the active segment.  Idempotent."""
        if self.closed:
            return
        self.flush()
        self._file.close()
        self.closed = True
