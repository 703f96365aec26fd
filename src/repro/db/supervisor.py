"""Supervision for the process backend: deadline-bounded pipes and respawn.

:class:`ProcessWorkerPool` treats worker death as fatal: ``_gather`` closes
the pool and raises, and a hung worker blocks ``recv()`` forever.  That is
the right contract for the *pool* — a broken pipe invariant cannot be papered
over locally — but the wrong contract for a long-running training loop, where
a single segfault or livelock anywhere in the fleet would kill the whole run.

:class:`SupervisedWorkerPool` wraps the base pool's pipe reads with a
deadline (``Connection.poll`` under a :class:`RecoveryPolicy`), detects dead
*and* hung workers, terminates and respawns them, and replays the pickled
payload registry so a rebuilt worker re-receives its chunk payloads by key
without re-decoding or re-pickling anything.  The pass that was in flight is
still lost — recovery restores the *pool*, not the partial states — so the
supervisor raises :class:`~repro.db.errors.WorkerDiedError` with
``recoverable=True`` and the caller (the :class:`~repro.db.pass_plan`
backends) re-runs the pass against the healed pool.  Retry semantics are the caller's job:
deterministic passes re-run bit-for-bit; racy shared-memory epochs snapshot
the model first (see ``ProcessBackend``).

Lock poisoning: a worker killed inside ``shmem_epoch`` may die *holding* the
publication lock (an OS semaphore inherited through fork), which would
deadlock every surviving worker's next critical section.  When the in-flight
op of a lost worker was ``shmem_epoch``, recovery therefore rebuilds the
**entire pool under a fresh lock** instead of respawning just the casualty.

The respawn budget (``max_respawns``) counts recovery *rounds* — incidents —
not individual worker forks, precisely because one shmem incident can respawn
the whole fleet.  When the budget is exhausted the pool closes itself and
raises ``recoverable=False``; the plan's in-process fallback takes over.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import EnvSpecError, ExecutionError, WorkerDiedError
from .fault import FaultPlan, faults_from_env
from .process_backend import ProcessWorkerPool


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for worker supervision.

    ``timeout`` is the per-pipe-read deadline in seconds: a worker that has
    not replied within it is declared hung and terminated.  It bounds *one
    worker command*, not a whole pass, so it only needs to cover the slowest
    single epoch-share — the default is generous because a false positive
    (terminating a slow-but-healthy worker) costs a respawn round.
    ``max_respawns`` is the recovery-round budget for the pool's lifetime;
    ``backoff`` is slept before each respawn round, scaled by the round
    number, so a crash-looping payload does not respawn in a tight loop.

    Environment overrides (read by :meth:`from_env`, used by the CI chaos
    job): ``REPRO_RECOVERY_TIMEOUT``, ``REPRO_RECOVERY_MAX_RESPAWNS``,
    ``REPRO_RECOVERY_BACKOFF``.
    """

    timeout: float = 30.0
    max_respawns: int = 3
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ExecutionError("recovery timeout must be positive")
        if self.max_respawns < 0:
            raise ExecutionError("recovery max_respawns must be >= 0")
        if self.backoff < 0:
            raise ExecutionError("recovery backoff must be >= 0")

    @classmethod
    def from_env(cls, environ=None) -> "RecoveryPolicy":
        """Policy overridden by ``REPRO_RECOVERY_*`` variables.

        Unset / empty variables keep their defaults; malformed values raise
        :class:`~repro.db.errors.EnvSpecError` (a ``ValueError``) naming the
        variable, as do out-of-range values (e.g. a negative timeout) — a
        typo'd CI override must never silently fall back to the defaults.
        """
        environ = os.environ if environ is None else environ
        kwargs: dict[str, Any] = {}
        fields = (
            ("REPRO_RECOVERY_TIMEOUT", "timeout", float, "number of seconds"),
            ("REPRO_RECOVERY_MAX_RESPAWNS", "max_respawns", int, "integer"),
            ("REPRO_RECOVERY_BACKOFF", "backoff", float, "number of seconds"),
        )
        for variable, key, convert, expected in fields:
            raw = environ.get(variable)
            if raw is None or not raw.strip():
                continue
            try:
                kwargs[key] = convert(raw)
            except ValueError:
                raise EnvSpecError(
                    f"{variable}={raw!r} is not a valid {expected}"
                ) from None
        try:
            return cls(**kwargs)
        except ExecutionError as error:
            raise EnvSpecError(
                f"invalid REPRO_RECOVERY_* configuration: {error}"
            ) from None


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervision incident: what was lost, and what was done about it.

    ``kind`` is ``"death"`` (pipe broke mid-command), ``"hang"`` (deadline
    missed; may accompany deaths in one round) or ``"budget_exhausted"``
    (nothing respawned; the pool closed itself).  ``pool_rebuilt`` marks a
    full-fleet respawn under a fresh lock (shmem lock-poisoning protection).
    """

    kind: str
    workers: tuple[int, ...]
    ops: tuple[str, ...] = ()
    respawned: bool = False
    pool_rebuilt: bool = False
    payloads_replayed: int = 0
    round: int = 0
    detail: str = ""


@dataclass(frozen=True)
class DegradationEvent:
    """A pass fell back to an in-process backend instead of failing.

    Emitted by the plan backends when the process backend is
    unavailable (respawn budget exhausted): ``from_backend`` → ``to_backend``
    with the triggering error in ``reason``.  Structured rather than raised:
    degradation is an *observable* outcome of a completed run, not a failure.
    """

    plan_kind: str
    from_backend: str
    to_backend: str
    reason: str = ""


class SupervisedWorkerPool(ProcessWorkerPool):
    """A :class:`ProcessWorkerPool` whose pipe reads are deadline-bounded.

    Drop-in for the base pool everywhere (all module helpers — partitioned
    UDAs, chunk/generic aggregates, shared-memory epochs — take "a pool"):
    only ``_gather`` changes, wrapping every reply read in
    ``Connection.poll(policy.timeout)`` and routing casualties through
    :meth:`_recover` instead of straight to ``close()``.

    ``faults`` defaults to the ``REPRO_FAULT`` environment spec — the base
    pool deliberately does *not* read the environment, so direct-pool tests
    stay deterministic under the CI chaos job while every engine-created
    (supervised) pool picks the injection up automatically.  Respawned
    workers are always forked without fault plans, so an injected fault
    cannot starve its own recovery.
    """

    def __init__(
        self,
        workers: int,
        *,
        policy: RecoveryPolicy | None = None,
        faults: "Sequence[FaultPlan] | None" = None,
        on_event: Callable[[RecoveryEvent], None] | None = None,
    ):
        self.policy = policy if policy is not None else RecoveryPolicy.from_env()
        self.on_event = on_event
        #: Recovery incidents, in order.  Inspect after a run to see what the
        #: supervisor absorbed; the driver folds these into ``IGDResult``.
        self.events: list[RecoveryEvent] = []
        #: Recovery rounds consumed so far (compared against max_respawns).
        self.respawns_used = 0
        plans = faults_from_env() if faults is None else tuple(faults)
        super().__init__(workers, faults=plans)

    # ------------------------------------------------------------- messaging
    def _gather(self, workers: Sequence[int]) -> dict[int, Any]:
        """Deadline-bounded drain: poll before every recv, recover casualties.

        Every listed worker is polled/drained before any recovery decision,
        so healthy workers' replies for the aborted pass are consumed and the
        one-send/one-recv invariant holds for the retry.  A reply that never
        arrives within the deadline marks the worker hung; a broken pipe
        marks it dead (``poll`` reports a closed pipe as readable, so death
        is always distinguished from hang).
        """
        replies: dict[int, Any] = {}
        failures: list[str] = []
        dead: list[int] = []
        hung: list[int] = []
        lost_ops: dict[int, str | None] = {}
        for worker in workers:
            conn = self._conns[worker]
            try:
                ready = conn.poll(self.policy.timeout)
            except (EOFError, OSError):  # pragma: no cover - torn-down conn
                ready = True
            if not ready:
                hung.append(worker)
                lost_ops[worker] = self._inflight.pop(worker, None)
                failures.append(
                    f"worker {worker} missed the {self.policy.timeout:g}s reply deadline"
                )
                continue
            try:
                status, value = conn.recv()
            except (EOFError, OSError):
                dead.append(worker)
                lost_ops[worker] = self._inflight.pop(worker, None)
                failures.append(
                    f"worker {worker} died (exit code {self._procs[worker].exitcode})"
                )
                continue
            self._inflight.pop(worker, None)
            if status != "ok":
                failures.append(f"worker {worker} failed:\n{value}")
                continue
            replies[worker] = value
        if dead or hung:
            self._recover(
                dead=dead, hung=hung, lost_ops=lost_ops, detail="; ".join(failures)
            )
        if failures:
            raise ExecutionError("process-backend " + "; ".join(failures))
        return replies

    # -------------------------------------------------------------- recovery
    def _recover(
        self,
        *,
        dead: list[int],
        hung: list[int],
        lost_ops: dict[int, str | None],
        detail: str,
    ) -> None:
        """Terminate and respawn casualties, replay payloads, raise for retry.

        Always raises: :class:`WorkerDiedError` with ``recoverable=True``
        after a successful respawn (the caller re-runs the pass), or
        ``recoverable=False`` after closing the pool on budget exhaustion.
        """
        lost = sorted(set(dead) | set(hung))
        ops = tuple(sorted({op for op in lost_ops.values() if op is not None}))
        kind = "hang" if hung else "death"
        message = f"process-backend {detail}"
        self.respawns_used += 1
        if self.respawns_used > self.policy.max_respawns:
            self._record(
                RecoveryEvent(
                    kind="budget_exhausted",
                    workers=tuple(lost),
                    ops=ops,
                    respawned=False,
                    round=self.respawns_used,
                    detail=detail,
                )
            )
            self.close()
            raise WorkerDiedError(
                f"{message} (respawn budget of {self.policy.max_respawns} exhausted)",
                recoverable=False,
                workers=tuple(lost),
            )
        if self.policy.backoff > 0:
            time.sleep(self.policy.backoff * self.respawns_used)
        # A worker lost inside shmem_epoch may have died holding the
        # publication lock, which would deadlock every survivor's next
        # critical section — rebuild the whole fleet under a fresh lock.
        rebuild_all = "shmem_epoch" in ops
        targets = list(range(self.workers)) if rebuild_all else lost
        if rebuild_all:
            self.lock = self._ctx.Lock()
        for worker in targets:
            process = self._procs[worker]
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - unkillable worker
                    process.kill()
                    process.join(timeout=1.0)
            try:
                self._conns[worker].close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._inflight.pop(worker, None)
            conn, proc = self._spawn_worker(worker, faults=())
            self._conns[worker] = conn
            self._procs[worker] = proc
        replayed = self._replay_payloads(targets)
        self._record(
            RecoveryEvent(
                kind=kind,
                workers=tuple(lost),
                ops=ops,
                respawned=True,
                pool_rebuilt=rebuild_all,
                payloads_replayed=replayed,
                round=self.respawns_used,
                detail=detail,
            )
        )
        raise WorkerDiedError(
            f"{message} (workers respawned; pass must be retried)",
            recoverable=True,
            workers=tuple(lost),
        )

    def _replay_payloads(self, targets: Sequence[int]) -> int:
        """Re-ship every payload the respawned workers held, by key.

        Uses the pickled-bytes registry — nothing is re-built or re-pickled;
        a rebuilt worker re-receives exactly the bytes the original got: the
        full base payload first, then the append-delta chain *in version
        order*, so a worker that was killed mid-shipment reconstructs the
        same resident payload the originals hold.  A failure *during replay*
        recurses into ``_gather``/recovery, burning further budget until it
        either heals or exhausts.
        """
        replay: list[tuple[int, tuple]] = []
        for worker in targets:
            keys = sorted(
                (key for (w, key) in self._loaded if w == worker), key=repr
            )
            for key in keys:
                self._loaded.pop((worker, key), None)
                if key in self._payload_bytes:
                    replay.append((worker, key))
        # Base round: every (worker, key) re-receives the full base bytes.
        # Under page transport those bytes are descriptors whose page sets
        # the record pins alive — the rebuilt worker re-attaches the same
        # /dev/shm pages the originals map.
        for worker, key in replay:
            record = self._payload_bytes[key]
            self._inflight[worker] = "load"
            self._conns[worker].send(("load", key, record.base_bytes))
            self._count_shipped(record.base_kind, len(record.base_bytes), 1)
        if not replay:
            return 0
        # One reply is drained per *message*: workers holding several keys
        # appear once per key, deliberately.
        self._gather([worker for worker, _ in replay])
        for worker, key in replay:
            self._loaded[(worker, key)] = self._payload_bytes[key].base_version
        # Delta rounds: walk each record's chain in order, one round per
        # chain depth, so every extend lands on the payload state it was
        # pickled against.
        depth = 0
        while True:
            round_targets: list[tuple[int, tuple]] = []
            for worker, key in replay:
                record = self._payload_bytes[key]
                if depth < len(record.deltas):
                    to_version, mode, delta_bytes = record.deltas[depth]
                    self._inflight[worker] = "extend"
                    self._conns[worker].send(("extend", key, mode, delta_bytes))
                    self._count_shipped(
                        record.delta_kinds[depth], len(delta_bytes), 1
                    )
                    round_targets.append((worker, key))
            if not round_targets:
                break
            self._gather([worker for worker, _ in round_targets])
            for worker, key in round_targets:
                self._loaded[(worker, key)] = self._payload_bytes[key].deltas[depth][0]
            depth += 1
        return len(replay)

    def _record(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return (
            f"SupervisedWorkerPool(workers={self.workers}, {state}, "
            f"respawns={self.respawns_used}/{self.policy.max_respawns})"
        )
