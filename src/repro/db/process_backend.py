"""Real multi-process execution over the cached chunk plane.

This is the backend that turns the repo's parallelism story from *modelled*
to *measured*: OS worker processes race on a single mmap-shared model
(:mod:`repro.db.shared_memory` arena segments) or train shared-nothing
partitions that are merged by the pure-UDA ``merge`` function — the two
parallelisation mechanisms of Section 3.3, executed by real processes rather
than a cooperative in-process simulation.

Architecture:

* :class:`ProcessWorkerPool` — a persistent pool of **forked** worker
  processes connected by pipes.  Workers are long-lived so per-epoch cost is
  one small message per worker, not a process spawn; the publication lock is
  created *before* the fork so every worker inherits the same OS semaphore.
* **One payload per (table, decoder): the cached chunk list** — the
  columnar batches the shared :class:`~repro.tasks.base.ExampleCache` decoded
  are published once (dense arrays as ``/dev/shm`` pages) and kept resident
  by key.  Gradient, loss and accuracy passes all read that one payload —
  pure-UDA segments included, which are ordinals over the master table's
  list, not tables of their own; epochs send only ordinals (a ``range`` for
  heap order), so a logical shuffle never re-ships a row, and appends ship
  the appended rows only.
* **Worker-side gather, one kernel** — a worker gathers its ordinals from
  the resident batches (:func:`~repro.db.chunk_plan.gather_batches`; skipped
  for the identity range, kept while the same ordinals keep arriving) and
  folds ``transition_chunk`` / ``igd_chunk`` over the result.  Which ordinals
  a worker gets is decided in one place
  (:func:`~repro.db.pass_plan.partition_pass`), and :func:`fold_on_pool` is
  only the pool half of :func:`~repro.db.pass_plan.run_partitioned` — which
  makes a pooled pass *bit-for-bit identical* to the same pass folded in
  process: same parts, same chunk kernels, same left-to-right merge.
* **Shared-memory epochs** — each worker attaches to the model segment's OS
  name.  ``nolock`` binds the model onto the mmap'd pages and runs
  ``igd_chunk`` straight on them (true Hogwild: unsynchronised
  read-modify-write); ``lock`` runs each window's read-compute-write cycle
  on the pages under the lock (which is why it measures ~1x in Figure 9B);
  ``aig`` steps a private snapshot and publishes the window's delta in a
  brief critical section (modelling batched per-component atomics).

Determinism contract: pure-UDA runs are deterministic and bit-for-bit equal
to the in-process backends for a fixed seed and worker count; the
shared-memory schemes are genuinely racy (that is the point) and are pinned
by statistical objective-band assertions instead.
"""

from __future__ import annotations

import atexit
import io
import math
import os
import pickle
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .chunk_plan import extend_chunk_list, gather_batches
from .errors import ExecutionError, WorkerDiedError
from .fault import FaultInjector, FaultPlan
from .shared_memory import (
    ChunkPageSet,
    SharedMemoryArena,
    SharedMemoryParallelism,
    attach_chunk_pages,
    attach_shared_array,
    fork_context,
)
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.model import Model
    from .aggregates import UserDefinedAggregate
    from .executor import Executor


def available_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Payload wire policy: zero-copy chunk pages, pickled bytes as the fallback
# ---------------------------------------------------------------------------
class _PagingPickler(pickle.Pickler):
    """Pickles a payload skeleton, lifting dense arrays out into a page list.

    Every non-object-dtype ndarray in the object graph is replaced by a
    persistent-id stub (its index in :attr:`arrays`); everything else — CRF
    metadata, Python lists, decoded examples — pickles as usual.  Walking
    the graph through the pickler itself means any payload shape (chunk
    lists of any batch type, raw ``Row`` blocks) pages its arrays with no
    per-type code.
    """

    def __init__(self, buffer: io.BytesIO):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        self._seen: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> "int | None":
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            ref = self._seen.get(id(obj))
            if ref is None:
                ref = len(self.arrays)
                self.arrays.append(obj)
                self._seen[id(obj)] = ref
            return ref
        return None


class _PageViewUnpickler(pickle.Unpickler):
    """Rebuilds a paged skeleton, resolving array stubs to zero-copy views."""

    def __init__(self, skeleton: bytes, views: "Sequence[np.ndarray]"):
        super().__init__(io.BytesIO(skeleton))
        self._views = views

    def persistent_load(self, pid: int) -> np.ndarray:
        return self._views[pid]


class _PagedPayload:
    """Page-transport wire form: a page descriptor plus the pickled skeleton.

    This is what ``pickle.loads`` on the worker side yields for a paged
    shipment — a few hundred bytes no matter how large the payload arrays
    are.  :meth:`attach` maps the pages and rebuilds the original object
    with every dense array replaced by a zero-copy view.
    """

    __slots__ = ("descriptor", "skeleton")

    def __init__(self, descriptor: Any, skeleton: bytes):
        self.descriptor = descriptor
        self.skeleton = skeleton

    def __getstate__(self) -> tuple:
        return (self.descriptor, self.skeleton)

    def __setstate__(self, state: tuple) -> None:
        self.descriptor, self.skeleton = state

    def attach(self) -> "tuple[Any, Any]":
        shm, views = attach_chunk_pages(self.descriptor)
        payload = _PageViewUnpickler(self.skeleton, views).load()
        return payload, shm


#: Worker-side shared-memory handles whose ``close()`` raised BufferError
#: (a dropped payload's views were still exported).  Held so their __del__
#: cannot re-raise at GC time; the mapping dies with the worker process.
_WORKER_DEFERRED_HANDLES: list = []


def _release_page_handles(handles: "list | None") -> None:
    """Close a dropped payload's page mappings (worker side).  Idempotent."""
    if not handles:
        return
    for shm in handles:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            _WORKER_DEFERRED_HANDLES.append(shm)
    handles.clear()


def _decode_payload(data: bytes, handles: list) -> Any:
    """Unpickle a shipped payload; paged shipments attach zero-copy views.

    ``handles`` collects the shared-memory mappings the decoded payload's
    views depend on; the caller owns releasing them when the payload is
    replaced or dropped.
    """
    obj = pickle.loads(data)
    if isinstance(obj, _PagedPayload):
        payload, shm = obj.attach()
        handles.append(shm)
        return payload
    return obj


# ---------------------------------------------------------------------------
# Worker entrypoint
# ---------------------------------------------------------------------------
def _model_over(shapes: "Mapping[str, tuple]", flat: np.ndarray) -> "Model":
    """A model of the named component ``shapes`` whose arrays are views into ``flat``.

    Laid out like :meth:`Model.as_flat_vector` (sorted component names,
    ravelled): over a private buffer a snapshot is one ``copyto`` and a delta
    one subtraction; over the attached model segment every kernel update
    lands on the shared pages themselves.
    """
    from ..core.model import Model

    components = {}
    offset = 0
    for name in sorted(shapes):
        size = math.prod(shapes[name])
        components[name] = flat[offset:offset + size].reshape(shapes[name])
        offset += size
    return Model(components)


def _gather_slot(key: tuple) -> tuple:
    """Where the kept ``(ordinals, gathered)`` pair of ``key`` lives in ``payloads``."""
    return ("gathered", key)


def _gathered_batches(payloads: dict, key: tuple, ordinals: Any) -> list:
    """The resident chunk list of ``key`` resolved to ``ordinals``, re-chunked.

    The identity range is the resident list itself.  Any other order is
    gathered once and kept beside the payload (``shuffle_once`` and
    partial-fit full passes send equal ordinals every epoch); a new order
    replaces the kept pair, and ``load``/``extend``/``drop`` discard it.
    """
    batches = payloads[key]
    if isinstance(ordinals, range) and ordinals == range(sum(len(b) for b in batches)):
        return batches
    kept = payloads.get(_gather_slot(key))
    if kept is None or not np.array_equal(kept[0], ordinals):
        gathered = gather_batches(batches, ordinals, chunk_size_of(key))
        kept = payloads[_gather_slot(key)] = (ordinals, gathered)
    return kept[1]


def _run_shmem_epoch(payloads: dict, lock, params: Mapping[str, Any]) -> int:
    """One worker's share of a shared-memory epoch against the mmap'd model."""
    task = params["task"]
    schedule = params["schedule"]
    proximal = params["proximal"]
    scheme = params["scheme"]
    staleness = params["staleness"]
    gathered = _gathered_batches(payloads, params["key"], params["example_ordinals"])
    # Logical positions worker, worker + w, ...: that stride of the schedule.
    positions = params["global_ordinals"]
    alphas = schedule.step_sizes(
        params["step_offset"] + positions.start, len(positions), params["epoch"], positions.step
    )

    shm, shared = attach_shared_array(params["os_name"], params["shape"])
    live = _model_over(params["model_shapes"], shared)
    if scheme == "aig":
        flat = np.empty_like(shared)
        scratch = _model_over(params["model_shapes"], flat)
    steps = 0
    try:
        for batch in gathered:
            rows = len(batch)
            if scheme == "nolock":
                # Hogwild: unsynchronised kernel on the shared pages; the race
                # itself is the staleness.
                task.igd_chunk(live, batch, alphas[steps:steps + rows], proximal)
                steps += rows
                continue
            for start in range(0, rows, staleness):
                window = batch.take(np.arange(start, min(start + staleness, rows)))
                window_alphas = alphas[steps:steps + len(window)]
                if scheme == "lock":
                    # Read-compute-write under the lock: no overlap, hence ~1x.
                    with lock:
                        task.igd_chunk(live, window, window_alphas, proximal)
                else:  # aig
                    snapshot = shared.copy()
                    np.copyto(flat, snapshot)
                    task.igd_chunk(scratch, window, window_alphas, proximal)
                    delta = flat - snapshot
                    nonzero = np.nonzero(delta)[0]
                    # Batched per-component atomics: only the publication
                    # is a critical section; gradient work still overlaps.
                    with lock:
                        shared[nonzero] += delta[nonzero]
                steps += len(window)
    finally:
        # Every view onto the segment must be gone before the mapping closes
        # (a raising kernel's frame may still hold one: the close is deferred).
        del live, shared
        _release_page_handles([shm])
    return steps


def _run_uda_state(payloads: dict, msg: tuple) -> Any:
    """initialize + transition_chunk over this worker's assigned ordinals."""
    _, key, instance, ordinals = msg
    gathered = _gathered_batches(payloads, key, ordinals)
    state = instance.initialize()
    for batch in gathered:
        state = instance.transition_chunk(state, batch)
    return state


def _run_chunk_uda_state(payloads: dict, msg: tuple) -> Any:
    """initialize + transition_chunk over this worker's assigned chunk ids.

    The payload is the table's resident chunk list; the message carries only
    chunk ordinals, so a loss/accuracy pass costs one small message per worker.
    """
    _, key, instance, chunk_ids = msg
    batches = payloads[key]
    state = instance.initialize()
    for chunk_id in chunk_ids:
        state = instance.transition_chunk(state, batches[int(chunk_id)])
    return state


def _run_generic_uda_state(payloads: dict, msg: tuple) -> Any:
    """initialize + transition over raw rows for a generic (non-task) aggregate.

    The payload is the table's raw row block; the message ships the pickled
    aggregate instance, the argument expression and any scalar UDFs it
    references, so built-in SQL aggregates (SUM/AVG/STDDEV/...) parallelise
    without a decoding task.
    """
    _, key, instance, argument, ordinals, functions = msg
    rows = payloads[key]
    state = instance.initialize()
    transition = instance.transition
    wants_row = instance.wants_row or argument is None
    for ordinal in ordinals:
        row = rows[int(ordinal)]
        value = row if wants_row else argument.evaluate(row, functions)
        state = transition(state, value)
    return state


def _apply_extend(payloads: dict, key: tuple, mode: str, delta: Any) -> None:
    """Extend a resident payload in place with a shipped delta.

    Every mode carries the *start* position the delta applies at, so a replay
    (after a retried shipment) truncates back to the base before re-extending
    — applying a chain of deltas in ascending version order is idempotent.
    A gather kept for the key is discarded: it holds the pre-append rows.

    * ``list_extend`` — payload is a plain list (raw row blocks); new items
      append.
    * ``batches_tail`` — payload is a columnar chunk list; the shipped new
      rows join the resident tail chunk through the cache's own kernel
      (:func:`~repro.db.chunk_plan.extend_chunk_list`).
    """
    start, items = delta
    resident = payloads[key]
    payloads.pop(_gather_slot(key), None)
    if mode == "list_extend":
        del resident[start:]
        resident.extend(items)
    elif mode == "batches_tail":
        resident[:] = extend_chunk_list(resident, start, items, chunk_size_of(key))
    else:
        raise ExecutionError(f"unknown payload extend mode {mode!r}")


def _worker_main(
    conn, lock, worker_index: int = 0, faults: "tuple[FaultPlan, ...]" = ()
) -> None:
    """Long-lived worker loop: cache payloads, run epochs, return states."""
    payloads: dict = {}
    #: Per-key shared-memory mappings backing paged payloads' views; released
    #: when the payload is replaced or dropped so the pages' physical memory
    #: is returned as soon as the last attachment goes away.
    page_handles: dict = {}
    injector = FaultInjector(plans=faults, worker=worker_index) if faults else None
    # Workers forked after us inherit our command pipe's parent end, so a
    # SIGKILLed engine does not reliably EOF every pipe (siblings keep each
    # other's ends alive).  Orphaning is therefore detected by re-parenting:
    # when idle, a worker whose parent changed exits on its own — this is
    # what keeps a whole-process crash from leaving stray workers behind.
    supervisor_pid = os.getppid()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != supervisor_pid:  # pragma: no cover - crash path
                    break
                continue
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
            break
        op = msg[0]
        try:
            if injector is not None:
                injector.before(op)
            if op == "stop":
                conn.send(("ok", None))
                break
            if op == "ping":
                conn.send(("ok", os.getpid()))
            elif op == "load":
                old_handles = page_handles.pop(msg[1], None)
                payloads.pop(msg[1], None)
                payloads.pop(_gather_slot(msg[1]), None)
                handles: list = []
                payloads[msg[1]] = _decode_payload(msg[2], handles)
                if handles:
                    page_handles[msg[1]] = handles
                _release_page_handles(old_handles)
                conn.send(("ok", None))
            elif op == "extend":
                # Delta pages attach *beside* the base's mappings: the
                # resident payload keeps views into both until replaced.
                handles = page_handles.setdefault(msg[1], [])
                _apply_extend(payloads, msg[1], msg[2], _decode_payload(msg[3], handles))
                if not handles:
                    page_handles.pop(msg[1], None)
                conn.send(("ok", None))
            elif op == "drop":
                payloads.pop(msg[1], None)
                payloads.pop(_gather_slot(msg[1]), None)
                _release_page_handles(page_handles.pop(msg[1], None))
                conn.send(("ok", None))
            elif op == "uda_state":
                conn.send(("ok", _run_uda_state(payloads, msg)))
            elif op == "chunk_uda":
                conn.send(("ok", _run_chunk_uda_state(payloads, msg)))
            elif op == "generic_uda":
                conn.send(("ok", _run_generic_uda_state(payloads, msg)))
            elif op == "shmem_epoch":
                conn.send(("ok", _run_shmem_epoch(payloads, lock, msg[1])))
            else:
                conn.send(("err", f"unknown worker command {op!r}"))
        except Exception:  # noqa: BLE001 - forwarded to the parent verbatim
            conn.send(("err", traceback.format_exc()))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
_LIVE_POOLS: "weakref.WeakSet[ProcessWorkerPool]" = weakref.WeakSet()


class _PayloadRecord:
    """Pickled payload bytes for one key: a base plus an append-delta chain.

    ``base_bytes`` is the full payload pickled at ``base_version``;
    ``deltas`` is an ordered chain of ``(to_version, mode, delta_bytes)``
    entries, each advancing the payload from the previous entry's version.
    A respawned worker is replayed the base and then the chain in order —
    exactly the bytes the original shipments used.  ``base_version`` is
    ``None`` for unversioned payloads (no delta shipping, no chain).

    Under page transport the shipped bytes are only descriptors: ``pages``
    pins the parent-side :class:`~repro.db.shared_memory.ChunkPageSet`
    handles (base plus deltas) alive so those descriptors stay resolvable —
    a respawn replay re-attaches the same pages.  ``base_kind`` /
    ``delta_kinds`` record which transport each shipment used, for the
    pool's byte accounting.
    """

    __slots__ = ("base_version", "base_bytes", "deltas", "pages", "base_kind", "delta_kinds")

    def __init__(
        self,
        base_version: "int | None",
        base_bytes: bytes,
        *,
        pages: "ChunkPageSet | None" = None,
        kind: str = "pickle",
    ):
        self.base_version = base_version
        self.base_bytes = base_bytes
        self.deltas: list[tuple[int, str, bytes]] = []
        self.pages: list = [pages] if pages is not None else []
        self.base_kind = kind
        self.delta_kinds: list[str] = []

    def free_pages(self) -> None:
        """Unlink every page set this record pinned.  Idempotent."""
        for pages in self.pages:
            pages.free()
        self.pages.clear()

    @property
    def version(self) -> "int | None":
        """The version the base + full chain reconstructs."""
        return self.deltas[-1][0] if self.deltas else self.base_version

    def chain_versions(self) -> list:
        """Every version a worker may legitimately be resident at."""
        return [self.base_version] + [to_version for to_version, _, _ in self.deltas]


@atexit.register
def _close_pools_at_exit() -> None:  # pragma: no cover - exercised at interpreter exit
    for pool in list(_LIVE_POOLS):
        pool.close()


class ProcessWorkerPool:
    """A persistent pool of forked worker processes over pipes.

    Workers inherit the publication :attr:`lock` (created before the fork)
    and cache example payloads by key, so an epoch costs one small message
    per worker.  The pool is a context manager and is also swept at
    interpreter exit; :meth:`close` is idempotent.
    """

    #: Per-worker deadline for the close() drain: a hung worker gets this
    #: long to acknowledge "stop" before being abandoned to terminate().
    drain_timeout = 2.0

    #: Delta-chain length at which a payload record is compacted back to a
    #: single full base (re-built and re-pickled once).  Bounds both the
    #: parent-side byte registry and the worst-case respawn replay under
    #: long streaming runs.
    max_delta_chain = 64

    def __init__(
        self,
        workers: int,
        *,
        faults: "tuple[FaultPlan, ...]" = (),
    ):
        if workers <= 0:
            raise ExecutionError("process pool needs at least one worker")
        self.workers = workers
        self._ctx = fork_context()
        self._faults = tuple(faults)
        #: Transport accounting: payload bytes that crossed pipes per transport
        #: kind, op-message bytes :meth:`run` sent (a pure-UDA part's message
        #: holds the model, a ``nolock`` worker's does not), bytes resident in
        #: published pages, publication (encode+copy) seconds, payload counts
        #: and ``/dev/shm``-exhaustion fallbacks.
        self.transport_stats: dict[str, Any] = {
            "page_payloads": 0,
            "pickle_payloads": 0,
            "page_fallbacks": 0,
            "page_bytes": 0,
            "pages_bytes_shipped": 0,
            "pickle_bytes_shipped": 0,
            "op_bytes_shipped": 0,
            "publish_seconds": 0.0,
        }
        #: Publication lock shared by every worker (inherited through fork).
        self.lock = self._ctx.Lock()
        self._conns = []
        self._procs = []
        self._closed = False
        #: Resident payload version per (worker, key) — ``None`` for
        #: unversioned payloads, the table version the worker's copy
        #: reconstructs for versioned ones.
        self._loaded: dict[tuple[int, tuple], "int | None"] = {}
        #: Pins id()-keyed payload keys' objects for the pool's lifetime.
        self._pins: dict[tuple, Any] = {}
        #: Pickled payload records by key (base bytes + append-delta chain),
        #: kept so a respawned worker can be replayed its payloads without
        #: re-building or re-pickling anything.
        self._payload_bytes: dict[tuple, _PayloadRecord] = {}
        #: Op currently awaiting a reply, per worker (empty when quiescent).
        self._inflight: dict[int, str] = {}
        # Start the shared-memory resource tracker *before* forking: workers
        # then inherit it, so their attachments register with the parent's
        # tracker (a set-level no-op) instead of each spawning a private
        # tracker that would warn about "leaked" segments at exit.
        try:  # pragma: no cover - tracker internals
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        for index in range(workers):
            parent_conn, process = self._spawn_worker(index)
            self._conns.append(parent_conn)
            self._procs.append(process)
        _LIVE_POOLS.add(self)

    def _spawn_worker(self, index: int, *, faults: "tuple[FaultPlan, ...] | None" = None):
        """Fork one worker inheriting the current lock; returns (conn, proc).

        ``faults`` defaults to the pool's configured plans; a supervisor
        respawning a dead worker passes ``()`` so an injected fault cannot
        starve its own recovery.
        """
        faults = self._faults if faults is None else faults
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.lock, index, faults),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    # ------------------------------------------------------------- messaging
    def _gather(self, workers: Sequence[int]) -> dict[int, Any]:
        """Drain one reply from every listed worker, then raise on failures.

        Draining *before* raising is what keeps this persistent pool usable
        after a worker-side exception: a worker that reported an error has
        already produced its reply, so every later command still pairs one
        send with one recv.  A worker that died mid-command breaks that
        invariant permanently, so the pool closes itself instead of serving
        stale buffered replies to the next caller.
        """
        replies: dict[int, Any] = {}
        failures: list[str] = []
        dead: list[int] = []
        for worker in workers:
            try:
                status, value = self._conns[worker].recv()
            except (EOFError, OSError):
                dead.append(worker)
                failures.append(
                    f"worker {worker} died (exit code {self._procs[worker].exitcode})"
                )
                continue
            finally:
                self._inflight.pop(worker, None)
            if status != "ok":
                failures.append(f"worker {worker} failed:\n{value}")
                continue
            replies[worker] = value
        if dead:
            self.close()
            raise WorkerDiedError(
                "process-backend " + "; ".join(failures),
                recoverable=False,
                workers=tuple(dead),
            )
        if failures:
            raise ExecutionError("process-backend " + "; ".join(failures))
        return replies

    def run(self, messages: Mapping[int, tuple]) -> dict[int, Any]:
        """Scatter one message per worker, gather every reply.

        All messages are sent before any reply is read, so workers execute
        concurrently; replies are collected in worker order, which is what
        keeps merge order deterministic.  Messages are pickled *before* the
        first send: an unpicklable aggregate or expression fails cleanly
        instead of desyncing the pipe protocol halfway through a scatter.
        """
        if self._closed:
            raise ExecutionError("process pool is closed")
        encoded: dict[int, bytes] = {}
        for worker, message in messages.items():
            try:
                encoded[worker] = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as error:
                raise ExecutionError(
                    f"process-backend message for worker {worker} is not picklable "
                    f"({error}); aggregates, expressions and UDFs shipped to the "
                    "pool must be module-level (no lambdas or closures)"
                ) from error
        for worker, payload in encoded.items():
            self._inflight[worker] = messages[worker][0]
            self._conns[worker].send_bytes(payload)
            self.transport_stats["op_bytes_shipped"] += len(payload)
        return self._gather(list(messages))

    # ------------------------------------------------------------- transport
    def _encode_payload(self, payload: Any) -> "tuple[bytes, ChunkPageSet | None, str]":
        """Encode one payload for shipment: ``(wire_bytes, pages, kind)``.

        The wire policy: the payload's dense arrays are published once into
        a shared-memory page block and the wire bytes carry only the
        descriptor plus the pickled skeleton.  Payloads with no dense arrays
        — and any payload whose ``/dev/shm`` allocation fails — ship as
        plain pickled bytes (``kind == "pickle"``).
        """
        stats = self.transport_stats
        start = time.perf_counter()
        buffer = io.BytesIO()
        pickler = _PagingPickler(buffer)
        pickler.dump(payload)
        if pickler.arrays:
            try:
                pages = ChunkPageSet.publish(pickler.arrays)
            except OSError:
                # /dev/shm exhausted or unavailable: pickle this payload.
                stats["page_fallbacks"] += 1
            else:
                data = pickle.dumps(
                    _PagedPayload(pages.descriptor, buffer.getvalue()),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                stats["page_payloads"] += 1
                stats["page_bytes"] += pages.nbytes
                stats["publish_seconds"] += time.perf_counter() - start
                return data, pages, "pages"
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        stats["pickle_payloads"] += 1
        stats["publish_seconds"] += time.perf_counter() - start
        return data, None, "pickle"

    def _store_record(self, key: tuple, version: "int | None", payload: Any) -> _PayloadRecord:
        """Encode a fresh base record for ``key``, freeing the one it replaces.

        Freeing the replaced record's pages only unlinks the ``/dev/shm``
        names — workers still resident on the old payload keep their
        mappings alive until the new shipment lands.
        """
        data, pages, kind = self._encode_payload(payload)
        record = _PayloadRecord(version, data, pages=pages, kind=kind)
        old = self._payload_bytes.get(key)
        if old is not None:
            old.free_pages()
        self._payload_bytes[key] = record
        return record

    def _count_shipped(self, kind: str, nbytes: int, workers: int) -> None:
        field = "pages_bytes_shipped" if kind == "pages" else "pickle_bytes_shipped"
        self.transport_stats[field] += nbytes * workers

    def ensure_loaded(
        self,
        worker_ids: Iterable[int],
        key: tuple,
        build: Callable[[], Any],
        *,
        pin: Any = None,
        version: "int | None" = None,
        extend: "Callable[[int], tuple[str, Any] | None] | None" = None,
    ) -> None:
        """Ship a payload to the given workers unless they already hold it.

        The payload is built and encoded **once** per key, then sent to every
        missing worker — this is the "published-once chunk payload" contract:
        a table decode crosses the process boundary exactly once, and later
        epochs address it by key.  ``pin`` keeps any id()-keyed object in the
        key alive for the pool's lifetime.

        With ``version`` (the table version the payload reflects) and
        ``extend``, the payload becomes **delta-shippable**: a worker already
        resident at an older version of the key receives only the delta that
        advances it.  ``extend(from_version)`` returns ``(mode, delta)`` — a
        worker-side :func:`_apply_extend` mode plus its payload — or ``None``
        when the range is not append-only, which falls back to a full
        reshipment under the same key (also what bounds worker memory under
        rewrites: the resident payload is *replaced*, not accumulated
        beside).
        """
        if self._closed:
            raise ExecutionError("process pool is closed")
        worker_ids = list(worker_ids)
        if pin is not None:
            self._pins[key] = pin
        record = self._payload_bytes.get(key)
        if version is None:
            # Unversioned payload: key identity fully determines content.
            missing = [w for w in worker_ids if (w, key) not in self._loaded]
            if not missing:
                return
            if record is None:
                record = self._store_record(key, None, build())
            self._ship(missing, key, ("load", key, record.base_bytes), "load", None)
            self._count_shipped(record.base_kind, len(record.base_bytes), len(missing))
            return
        pending = [w for w in worker_ids if self._loaded.get((w, key), -1) != version]
        if not pending:
            return
        # Advance the parent-side record to the requested version first.
        if record is not None and record.version != version:
            delta = extend(record.version) if extend is not None else None
            if delta is None:
                record = None  # rewrite (or no delta builder): rebuild below
            else:
                mode, payload = delta
                delta_bytes, delta_pages, delta_kind = self._encode_payload(payload)
                record.deltas.append((version, mode, delta_bytes))
                record.delta_kinds.append(delta_kind)
                if delta_pages is not None:
                    record.pages.append(delta_pages)
                if len(record.deltas) > self.max_delta_chain:
                    # Compact: one fresh full pickle replaces the chain.
                    # Workers resident at `version` stay resident — their
                    # incrementally-extended copies are bit-for-bit the full
                    # payload; workers parked at intermediate versions get a
                    # full reshipment on their next use.
                    record = None
        if record is None:
            record = self._store_record(key, version, build())
        # Ship the base to workers holding nothing (or an off-chain copy),
        # then walk the delta chain, advancing every worker behind each step.
        chain = set(record.chain_versions())
        base_targets = [
            w for w in pending if self._loaded.get((w, key), -1) not in chain
        ]
        if base_targets:
            self._ship(
                base_targets, key, ("load", key, record.base_bytes), "load",
                record.base_version,
            )
            self._count_shipped(
                record.base_kind, len(record.base_bytes), len(base_targets)
            )
        for depth, (to_version, mode, delta_bytes) in enumerate(record.deltas):
            targets = [
                w for w in pending if self._loaded[(w, key)] < to_version
            ]
            if targets:
                self._ship(
                    targets, key, ("extend", key, mode, delta_bytes), "extend",
                    to_version,
                )
                self._count_shipped(
                    record.delta_kinds[depth], len(delta_bytes), len(targets)
                )

    def _ship(
        self,
        workers: Sequence[int],
        key: tuple,
        message: tuple,
        op: str,
        version: "int | None",
    ) -> None:
        """Send one payload message to every listed worker and gather.

        Residency is recorded per worker *after* its reply round succeeds, so
        an aborted shipment (worker death mid-round) leaves the casualties
        unrecorded — the retried pass re-ships them from the byte registry.
        """
        for worker in workers:
            self._inflight[worker] = op
            self._conns[worker].send(message)
        self._gather(list(workers))
        for worker in workers:
            self._loaded[(worker, key)] = version

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers and reap the processes.  Idempotent.

        State registries are cleared *first*: close() can be triggered from
        inside ``_gather`` (a worker died mid-command), and the raised
        :class:`WorkerDiedError` may be caught by a caller that then inspects
        the pool — it must see the pool as empty, not as still holding
        payloads on workers that no longer exist.  The drain is
        deadline-bounded (:attr:`drain_timeout` per worker): a hung worker
        never acknowledges "stop", and an unbounded ``recv()`` here would turn
        one stuck worker into a stuck parent.
        """
        if self._closed:
            return
        self._closed = True
        self._pins.clear()
        self._loaded.clear()
        # Unlink every page set pinned by payload records: the names vanish
        # from /dev/shm now, worker mappings die with the workers below.
        for record in self._payload_bytes.values():
            record.free_pages()
        self._payload_bytes.clear()
        self._inflight.clear()
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - worker died
                pass
        for conn in self._conns:
            try:
                if conn.poll(self.drain_timeout):
                    conn.recv()
            except (EOFError, OSError):  # pragma: no cover - worker died
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessWorkerPool(workers={self.workers}, {state})"


# ---------------------------------------------------------------------------
# Payload keys (worker-side caches, shipped pickled-once per key)
# ---------------------------------------------------------------------------
# Keys are deliberately version-*less*: a key addresses "this table decoded
# this way", and the pool's residency registry tracks which version each
# worker's copy reflects.  Appends advance resident payloads with deltas;
# rewrites *replace* them under the same key — so worker memory is bounded by
# the number of live (table, decoder) pairs, not by mutation count.  The
# table's id() is part of the key (and the table is pinned) so a
# dropped-and-recreated table of the same name can never alias a stale
# resident payload.
def batches_payload_key(table: Table, decoder: Any, chunk_size: int) -> tuple:
    """Worker-side payload key for one table's cached columnar chunk list."""
    return ("batches", table.name, id(table), id(decoder), chunk_size)


def chunk_size_of(key: tuple) -> int:
    """The chunk size in a :func:`batches_payload_key`; workers gather and extend by it."""
    if key[0] != "batches":
        raise ExecutionError(f"payload {key!r} is not a chunk list")
    return key[4]


def rows_payload_key(table: Table) -> tuple:
    """Worker-side payload key for one table's raw row block."""
    return ("rows", table.name, id(table))


def _ship_batches(
    pool: "ProcessWorkerPool", workers: Iterable[int], executor: "Executor",
    table: Table, instance: "UserDefinedAggregate",
) -> tuple:
    """Make ``table``'s cached chunk list resident on ``workers``; returns its key.

    The chunk plane resolves the list only when something crosses the pipe —
    a full shipment, or after an append the appended rows alone.  Workers
    fold chunks only, so a (task, table) pair the plane cannot batch — which
    an in-process pass would fold per tuple — is refused here, by name.
    """
    decoder = instance.chunk_decoder
    key = batches_payload_key(table, decoder, executor.chunk_size)

    def batches() -> list:
        plan = executor.chunk_plan(table, instance)
        if plan is None:
            raise ExecutionError(
                f"aggregate {type(instance).__name__} cannot run chunked over "
                f"table {table.name!r} (unsupported aggregate, column types or "
                f"task {getattr(decoder, 'name', None)!r})"
            )
        return plan.batches

    def extend(from_version: int) -> "tuple[str, Any] | None":
        delta = table.classify_delta(from_version)
        if not delta.is_append:
            return None
        appended = np.arange(delta.base_rows, len(table), dtype=np.intp)
        new_rows = gather_batches(batches(), appended, executor.chunk_size)
        return ("batches_tail", (delta.base_rows, new_rows))

    pool.ensure_loaded(
        workers, key, batches, pin=(table, decoder), version=table.version, extend=extend
    )
    return key


def _ship_rows(pool: "ProcessWorkerPool", workers: Iterable[int], table: Table) -> tuple:
    """Make ``table``'s raw row block resident on ``workers``; returns its key.

    Generic (non-task) aggregates fold raw rows; like the chunk list the block
    ships once per table and appends ship the appended rows only.
    """
    key = rows_payload_key(table)

    def extend(from_version: int) -> "tuple[str, Any] | None":
        delta = table.classify_delta(from_version)
        if not delta.is_append:
            return None
        from .types import Row

        schema = table.schema
        new_rows = [Row(schema, values) for values in table.tail_values(delta.base_rows)]
        if len(new_rows) != delta.rows_added:
            return None
        return ("list_extend", (delta.base_rows, new_rows))

    pool.ensure_loaded(
        workers, key, table.to_rows, pin=table, version=table.version, extend=extend
    )
    return key


# ---------------------------------------------------------------------------
# Folding the parts of a partitioned pass on the pool
# ---------------------------------------------------------------------------
def fold_on_pool(
    pool: ProcessWorkerPool,
    executor: "Executor",
    table: Table,
    instance: "UserDefinedAggregate",
    kind: str,
    parts: Sequence,
    argument=None,
) -> list:
    """Fold part ``i`` of a partitioned pass on worker ``i``; states in part order.

    The pool half of :func:`~repro.db.pass_plan.run_partitioned`, which has
    already partitioned and counted the pass and merges what this
    returns.  Every part reads the table's one resident payload — the cached
    chunk list for ``"chunks"`` (whole chunk ids) and ``"examples"`` (visit
    ordinals the worker gathers), the raw row block for ``"rows"`` — so the
    message carries ordinals only, plus for raw rows the argument expression
    and the scalar UDFs it references (picklable: module-level functions,
    not lambdas).  Workers run the same kernels over the same chunk blocks as
    an in-process fold of the part, so the states are bit-for-bit equal.
    """
    if len(parts) > pool.workers:
        raise ExecutionError(
            f"{len(parts)} partitions need at least as many pool workers "
            f"(pool has {pool.workers})"
        )
    workers = range(len(parts))
    if kind == "rows":
        key = _ship_rows(pool, workers, table)
        names = sorted(argument.referenced_functions()) if argument is not None else ()
        functions = {
            name: executor.functions[name] for name in names if name in executor.functions
        }
        messages = {
            worker: ("generic_uda", key, instance, argument, part, functions)
            for worker, part in enumerate(parts)
        }
    else:
        key = _ship_batches(pool, workers, executor, table, instance)
        op = "chunk_uda" if kind == "chunks" else "uda_state"
        messages = {
            worker: (op, key, instance, part) for worker, part in enumerate(parts)
        }
    states = pool.run(messages)
    return [states[worker] for worker in sorted(states)]


# ---------------------------------------------------------------------------
# Shared-memory epoch on real worker processes (the measured Figure 9B path)
# ---------------------------------------------------------------------------
def run_process_shared_memory_epoch(
    table: Table,
    task,
    model: "Model",
    step_size,
    *,
    spec: SharedMemoryParallelism,
    pool: ProcessWorkerPool,
    arena: SharedMemoryArena,
    executor: "Executor",
    epoch: int = 0,
    step_offset: int = 0,
    proximal=None,
    row_order: Sequence[int] | None = None,
    segment_name: str = "bismarck_model",
) -> "tuple[Model, int]":
    """One epoch of shared-memory IGD on real OS worker processes.

    The model lives in an arena segment (an mmap'd ``/dev/shm`` block); each
    worker attaches to it by OS name and races per the scheme: ``nolock``
    runs the task's ``igd_chunk`` kernel straight on the shared pages
    (Hogwild), ``aig`` publishes each window's delta under a brief critical
    section (batched per-component atomics), ``lock`` holds the lock across
    the whole read-compute-write cycle.  Each worker gathers its share of
    the table's resident chunk list (the loss pass's payload); a logical
    ``row_order`` re-partitions the permuted ordinal sequence with the same
    round-robin contract as the cooperative runner.

    Results are **not** deterministic — real races are the entire point — so
    callers pin convergence with objective-band assertions, never equality.
    """
    from ..core.proximal import IdentityProximal
    from ..core.stepsize import make_schedule
    from ..core.uda import IGDAggregate

    schedule = make_schedule(step_size)
    proximal = proximal if proximal is not None else task.proximal or IdentityProximal()

    table.scan_count += 1
    # The logical sequence is the order list itself (which may visit only a
    # subset of rows — partial_fit's delta epochs do); without one it is the
    # whole table.  Round-robin partitioning runs over logical positions,
    # matching the cooperative in-process runner.
    order = range(len(table)) if row_order is None else np.asarray(row_order, dtype=np.intp)
    total_positions = len(order)
    if total_positions == 0:
        return model, 0
    workers = min(spec.workers, total_positions, pool.workers)
    key = _ship_batches(pool, range(workers), executor, table, IGDAggregate(task, schedule))

    arena.free(segment_name)
    segment = arena.allocate_from(segment_name, model.as_flat_vector())
    # Workers lay the model over the shared pages from its component shapes:
    # no model-sized array ever rides the epoch message.
    shapes = {name: model[name].shape for name in model.component_names()}
    try:
        messages: dict[int, tuple] = {}
        for worker in range(workers):
            messages[worker] = (
                "shmem_epoch",
                {
                    "key": key,
                    "task": task,
                    "os_name": segment.os_name,
                    "shape": segment.shape,
                    "scheme": spec.scheme,
                    "global_ordinals": range(worker, total_positions, workers),
                    "example_ordinals": order[worker::workers],
                    "schedule": schedule,
                    "proximal": proximal,
                    "epoch": epoch,
                    "step_offset": step_offset,
                    "staleness": spec.effective_staleness(),
                    "model_shapes": shapes,
                },
            )
        steps_taken = int(sum(pool.run(messages).values()))
        model.load_flat_vector(segment.array)
    finally:
        arena.free(segment_name)
    return model, steps_taken
