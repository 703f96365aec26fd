"""Shared memory for UDAs: the ``/dev/shm`` arena, chunk pages and the spec.

Section 3.3 of the paper relies on the fact that all three RDBMSes expose a
way for user code to allocate and manage shared memory, so the model being
learned can live outside the per-aggregate state and be updated concurrently
by several workers.  This module holds the memory side of that:

* a named arena of **real** shared-memory numpy arrays
  (:class:`SharedMemoryArena`) — every segment is backed by a
  ``multiprocessing.shared_memory`` (``/dev/shm`` mmap) block, so worker
  *processes* attach to the same physical pages the parent allocated;
* one-shot published payload pages (:class:`ChunkPageSet`), the process
  pool's zero-copy transport; and
* the :class:`SharedMemoryParallelism` spec.

The spec runs two ways.  ``backend="process"`` races real OS workers on an
arena segment (:mod:`repro.db.process_backend`; ``nolock`` is an
unsynchronised read-modify-write of the mmap'd pages, Hogwild! as Niu et
al. describe it).  The default ``"simulated"`` backend never leaves this
process and needs no shared memory: workers taking turns that each step a
private copy over one window and publish it before the next reads make
serial IGD over the round-robin window interleave
(:func:`~repro.db.chunk_plan.interleave_round_robin`), which is what
:class:`~repro.db.pass_plan.SharedMemoryBackend` runs.

Lifecycle: interrupted runs must not leak ``/dev/shm`` blocks, so the arena
is a context manager, every arena registers itself for a process-exit sweep
(``atexit``), and :meth:`SharedMemoryArena.free` /
:meth:`SharedSegment.release` are idempotent.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory as _mp_shared_memory
from typing import Any, Sequence

import numpy as np

from .errors import SharedMemoryError

#: Fork context (lazy): the process pool forks its workers, which inherit its
#: publication lock.  Resolved on first use so merely importing this module
#: works on platforms without fork (the process backend itself requires it,
#: serial use doesn't).
_MP_CONTEXT = None


def fork_context():
    """The multiprocessing fork context (default context where fork is absent)."""
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        try:
            _MP_CONTEXT = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            _MP_CONTEXT = get_context()
    return _MP_CONTEXT

#: SharedMemory handles whose ``close()`` was deferred because a live numpy
#: view still exported the buffer when the segment was freed.  Holding them
#: here keeps their ``__del__`` from re-raising at garbage-collection time;
#: the OS reclaims the pages when the process exits (the name is already
#: unlinked, so nothing leaks in ``/dev/shm``).
_DEFERRED_CLOSE: list = []


def attach_shared_array(
    os_name: str, shape: int | tuple[int, ...], dtype: Any = np.float64
) -> "tuple[_mp_shared_memory.SharedMemory, np.ndarray]":
    """Attach to an existing OS shared-memory block as a numpy array.

    This is the worker-process entry point: the parent ships the segment's
    :attr:`SharedSegment.os_name`, shape and dtype (float64 by default — the
    model plane is always float64), the worker maps the same pages.
    Workers are *forked*, so they share the parent's resource-tracker process
    and attaching re-registers an already-tracked name (a set-level no-op);
    ownership — unlinking — stays with the allocating arena.  Callers must
    drop every numpy view before ``shm.close()``.
    """
    shm = _mp_shared_memory.SharedMemory(name=os_name)
    return shm, np.ndarray(shape, dtype=dtype, buffer=shm.buf)


# ---------------------------------------------------------------------------
# Chunk pages: one-shot published payload arrays (the page transport)
# ---------------------------------------------------------------------------
#: Byte alignment of each array inside a page block.  64 bytes keeps every
#: array cache-line aligned regardless of the dtypes packed before it.
PAGE_ALIGNMENT = 64


@dataclass(frozen=True)
class ChunkPageDescriptor:
    """Compact picklable description of one published :class:`ChunkPageSet`.

    This is what actually crosses the pipe under page transport: the OS
    segment name plus, per array, ``(dtype_str, shape, offset)``.  A few
    dozen bytes per array instead of the array itself.
    """

    segment: str
    total_bytes: int
    arrays: "tuple[tuple[str, tuple[int, ...], int], ...]"


class ChunkPageSet:
    """Dense payload arrays materialized once into a single ``/dev/shm`` block.

    The parent publishes every dense array of a chunk payload (feature
    matrices, CSR ``data``/``indices``/``indptr``, labels, ordinals) into one
    named shared-memory block with aligned offsets; workers attach by OS name
    (:func:`attach_chunk_pages`) and rebuild zero-copy numpy views.  Freeing
    is idempotent and unlink-first, mirroring :meth:`SharedSegment.release`:
    attached workers keep their mappings alive until they drop them, but the
    ``/dev/shm`` name disappears immediately, so nothing leaks.
    """

    __slots__ = ("descriptor", "_shm", "_freed", "__weakref__")

    def __init__(self, descriptor: ChunkPageDescriptor, shm: Any):
        self.descriptor = descriptor
        self._shm = shm
        self._freed = False

    @classmethod
    def publish(cls, arrays: "Sequence[np.ndarray]") -> "ChunkPageSet":
        """Copy ``arrays`` into one fresh shared-memory block.

        Raises ``OSError`` when ``/dev/shm`` is exhausted or unavailable —
        callers degrade to pickled transport on that signal.
        """
        metas: list[tuple[str, tuple[int, ...], int]] = []
        staged: list[np.ndarray] = []
        total = 0
        for array in arrays:
            array = np.ascontiguousarray(array)
            if array.nbytes == 0:
                metas.append((array.dtype.str, tuple(array.shape), 0))
                staged.append(array)
                continue
            offset = -(-total // PAGE_ALIGNMENT) * PAGE_ALIGNMENT
            metas.append((array.dtype.str, tuple(array.shape), offset))
            staged.append(array)
            total = offset + array.nbytes
        shm = _mp_shared_memory.SharedMemory(create=True, size=max(total, 1))
        for array, (dtype, shape, offset) in zip(staged, metas):
            if array.nbytes == 0:
                continue
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
            view[...] = array
            del view
        descriptor = ChunkPageDescriptor(
            segment=shm.name, total_bytes=max(total, 1), arrays=tuple(metas)
        )
        page_set = cls(descriptor, shm)
        _LIVE_PAGE_SETS.add(page_set)
        return page_set

    @property
    def nbytes(self) -> int:
        """Bytes resident in the page block."""
        return self.descriptor.total_bytes

    def free(self) -> None:
        """Unlink the OS block and drop the parent-side handle.  Idempotent."""
        if self._freed:
            return
        self._freed = True
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still exported
            _DEFERRED_CLOSE.append(shm)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - freed concurrently
            pass

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"{self.nbytes} bytes"
        return f"ChunkPageSet(segment={self.descriptor.segment!r}, {state})"


def attach_chunk_pages(
    descriptor: ChunkPageDescriptor,
) -> "tuple[_mp_shared_memory.SharedMemory, list[np.ndarray]]":
    """Worker-side attach: zero-copy read-only views over a published page set.

    Returns the shared-memory handle (the caller owns closing it once the
    payload is dropped) and one view per descriptor entry, in publication
    order.  Views are marked read-only: payload arrays are scan-side inputs,
    and an accidental in-place write from one worker must not corrupt the
    pages every other worker maps.
    """
    shm = _mp_shared_memory.SharedMemory(name=descriptor.segment)
    views: list[np.ndarray] = []
    for dtype, shape, offset in descriptor.arrays:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views.append(view)
    return shm, views


#: Live page sets swept at interpreter exit, exactly like :data:`_LIVE_ARENAS`:
#: pool teardown frees pages deterministically, and the sweep covers
#: interrupted runs that never reach it.
_LIVE_PAGE_SETS: "weakref.WeakSet[ChunkPageSet]" = weakref.WeakSet()


@atexit.register
def _free_pages_at_exit() -> None:  # pragma: no cover - exercised at interpreter exit
    for pages in list(_LIVE_PAGE_SETS):
        pages.free()


class SharedSegment:
    """One named shared-memory segment holding a float64 array.

    The array is a view over a ``multiprocessing.shared_memory`` block, so a
    worker process that attaches to :attr:`os_name` (via
    :func:`attach_shared_array`) reads and writes the *same* physical memory.
    """

    __slots__ = ("name", "array", "_shm", "_freed")

    def __init__(self, name: str, array: np.ndarray, shm: Any = None):
        self.name = name
        self.array = array
        self._shm = shm
        self._freed = False

    @property
    def os_name(self) -> str | None:
        """OS-level shared-memory name worker processes attach to."""
        return self._shm.name if self._shm is not None else None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.array.shape)

    def release(self) -> None:
        """Unlink the OS block and drop the view.  Idempotent.

        If an outside numpy view still exports the buffer, closing the mmap
        is deferred to process exit — the name is unlinked either way, so a
        double-freed or crashed run never leaves a ``/dev/shm`` entry behind.
        """
        if self._freed:
            return
        self._freed = True
        shm, self._shm = self._shm, None
        self.array = None  # type: ignore[assignment]
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            _DEFERRED_CLOSE.append(shm)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - freed concurrently
            pass

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"shape={self.shape}"
        return f"SharedSegment(name={self.name!r}, {state})"


#: Live arenas swept at interpreter exit so interrupted runs (Ctrl-C mid
#: epoch, a test that never reaches its cleanup) cannot leak OS segments.
_LIVE_ARENAS: "weakref.WeakSet[SharedMemoryArena]" = weakref.WeakSet()


@atexit.register
def _free_arenas_at_exit() -> None:  # pragma: no cover - exercised at interpreter exit
    for arena in list(_LIVE_ARENAS):
        arena.free_all()


class SharedMemoryArena:
    """A named collection of shared segments, one arena per database.

    Usable as a context manager (``with SharedMemoryArena() as arena: ...``)
    — segments are freed on exit; every arena is additionally registered for
    an ``atexit`` sweep, and freeing is idempotent, so no code path (including
    interrupted runs) leaks ``/dev/shm`` blocks.
    """

    def __init__(self) -> None:
        self._segments: dict[str, SharedSegment] = {}
        _LIVE_ARENAS.add(self)

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.free_all()

    def _allocate_segment(self, name: str, initial: np.ndarray) -> SharedSegment:
        if name in self._segments:
            raise SharedMemoryError(f"shared segment already exists: {name!r}")
        initial = np.asarray(initial, dtype=np.float64)
        shm = _mp_shared_memory.SharedMemory(create=True, size=max(int(initial.nbytes), 1))
        array = np.ndarray(initial.shape, dtype=np.float64, buffer=shm.buf)
        array[...] = initial
        segment = SharedSegment(name=name, array=array, shm=shm)
        self._segments[name] = segment
        return segment

    def allocate(self, name: str, shape: int | tuple[int, ...], *, fill: float = 0.0) -> SharedSegment:
        """Allocate a new named segment; fails if the name is taken."""
        return self._allocate_segment(name, np.full(shape, fill, dtype=np.float64))

    def allocate_from(self, name: str, initial: np.ndarray) -> SharedSegment:
        """Allocate a segment initialised from an existing array (copied)."""
        return self._allocate_segment(name, initial)

    def attach(self, name: str) -> SharedSegment:
        """Attach to an existing segment."""
        try:
            return self._segments[name]
        except KeyError:
            raise SharedMemoryError(f"no shared segment named {name!r}") from None

    def free(self, name: str) -> None:
        """Free a segment; freeing a missing or already-freed name is a no-op.

        Idempotency matters for crash paths: cleanup handlers (context exits,
        ``atexit``, test teardowns) may all race to free the same segment and
        must never turn an interrupted run into a second error.
        """
        segment = self._segments.pop(name, None)
        if segment is not None:
            segment.release()

    def free_all(self) -> None:
        for name in list(self._segments):
            self.free(name)

    def sweep_orphans(self, prefix: str = "bismarck_model") -> list[str]:
        """Free every registered segment whose name starts with ``prefix``.

        Epoch-scratch segments (the ``"bismarck_model"`` family) live for
        exactly one pass: each runner allocates in a ``try`` and frees in its
        ``finally``.  Any such segment still registered when a *recovery*
        path runs is therefore an orphan of an aborted epoch — freeing it
        unlinks the ``/dev/shm`` block before the retry re-allocates under
        the same logical name (which would otherwise fail the
        already-exists check).  Returns the freed names, for the recovery
        log.
        """
        orphans = [name for name in self._segments if name.startswith(prefix)]
        for name in orphans:
            self.free(name)
        return orphans

    def names(self) -> list[str]:
        return sorted(self._segments)

    def total_bytes(self) -> int:
        return sum(segment.array.nbytes for segment in self._segments.values())


# ---------------------------------------------------------------------------
# The shared-memory parallelism spec (Section 3.3)
# ---------------------------------------------------------------------------
SHARED_MEMORY_SCHEMES = ("lock", "aig", "nolock")
SHARED_MEMORY_BACKENDS = ("simulated", "process")


@dataclass(frozen=True)
class SharedMemoryParallelism:
    """Request shared-memory parallelism with a concurrency scheme."""

    scheme: str = "nolock"
    workers: int = 8
    #: Rows a worker steps per turn.  None picks the scheme default (1 for
    #: lock/aig, ``workers`` for nolock, approximating Hogwild staleness).
    #: Simulated, it is the window of the round-robin interleave the epoch
    #: visits; process ``lock``/``aig`` step that many rows per locked
    #: publish; process ``nolock`` steps the live pages, where the real race
    #: is the staleness.
    staleness: int | None = None
    #: ``"simulated"`` (default) runs serial IGD in this process over the
    #: workers' round-robin window interleave — deterministic, used by the
    #: convergence experiments.  ``"process"`` runs real OS worker processes
    #: racing on an mmap-shared model (:mod:`repro.db.process_backend`) — the
    #: measured Figure 9B path.
    backend: str = "simulated"
    name: str = "shared_memory"

    def __post_init__(self) -> None:
        if self.scheme not in SHARED_MEMORY_SCHEMES:
            raise ValueError(
                f"unknown shared-memory scheme {self.scheme!r}; "
                f"expected one of {SHARED_MEMORY_SCHEMES}"
            )
        if self.backend not in SHARED_MEMORY_BACKENDS:
            raise ValueError(
                f"unknown shared-memory backend {self.backend!r}; "
                f"expected one of {SHARED_MEMORY_BACKENDS}"
            )
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.staleness is not None and self.staleness <= 0:
            raise ValueError("staleness must be positive")

    def effective_staleness(self) -> int:
        if self.staleness is not None:
            return self.staleness
        if self.scheme == "nolock":
            return max(1, self.workers)
        return 1
