"""Tests for the self-healing process backend (supervision + fault injection).

The contract under test (the ISSUE-6 acceptance bar):

* a process-backed whole-loop run with one worker **killed** mid-epoch and
  one worker **hung** past the deadline completes with the bit-for-bit
  identical final model to an unfaulted run for deterministic schemes, and
  within the objective band for racy shared-memory schemes;
* dead/hung workers are detected (deadline-bounded pipe reads), terminated,
  respawned, and replayed their pickled-once payloads by key;
* when the respawn budget is exhausted, every pass falls back to the serial
  backend of the same plan (process → serial, train and evaluation alike),
  emitting one structured DegradationEvent instead of raising;
* zero leaked ``/dev/shm`` segments and zero stray
  ``multiprocessing.active_children()`` after every recovery.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.core.parallel import PureUDAParallelism, SharedMemoryParallelism
from repro.core.uda import AccuracyAggregate, IGDAggregate, LossAggregate
from repro.data import load_classification_table, make_sparse_classification
from repro.db import (
    Database,
    ExecutionError,
    ProcessBackend,
    ProcessWorkerPool,
    SegmentedDatabase,
    SerialBackend,
    SharedMemoryBackend,
    WorkerDiedError,
    compile_pass,
)
from repro.db.expressions import ColumnRef
from repro.db.fault import (
    FaultInjector,
    FaultPlan,
    faults_from_env,
    parse_fault_spec,
)
from repro.db.supervisor import (
    DegradationEvent,
    RecoveryEvent,
    RecoveryPolicy,
    SupervisedWorkerPool,
)
from repro.tasks.logistic_regression import LogisticRegressionTask

pytestmark = pytest.mark.backends

#: Fast-recovery policy for tests: generous enough for real work on a busy
#: CI box, but hang tests override timeout down to a second.
FAST = RecoveryPolicy(timeout=30.0, max_respawns=3, backoff=0.0)


@pytest.fixture(scope="module")
def workload():
    dataset = make_sparse_classification(120, 60, nonzeros_per_example=6, seed=3)
    return dataset, LogisticRegressionTask(dataset.dimension)


def make_database(dataset, *, faults=(), policy=FAST, chunk_size=16) -> Database:
    database = Database("postgres", seed=0, recovery=policy, faults=faults)
    load_classification_table(database, "pts", dataset.examples, sparse=True)
    if chunk_size is not None:
        database.executor.chunk_size = chunk_size
    return database


def _shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


# ---------------------------------------------------------------------------
# Fault spec grammar
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_single_clause(self):
        (plan,) = parse_fault_spec("kill:worker=1:epoch=2")
        assert plan == FaultPlan("kill", worker=1, epoch=2)

    def test_parse_multi_clause_with_op_and_seconds(self):
        plans = parse_fault_spec(
            "kill:worker=1:epoch=0:op=shmem_epoch; hang:worker=0:epoch=1:seconds=2.5"
        )
        assert plans == (
            FaultPlan("kill", worker=1, epoch=0, op="shmem_epoch"),
            FaultPlan("hang", worker=0, epoch=1, seconds=2.5),
        )

    def test_spec_round_trips(self):
        for text in ("kill:worker=1:epoch=0", "hang:worker=0:epoch=1:seconds=2",
                     "poison:worker=2:epoch=3:op=uda_state"):
            (plan,) = parse_fault_spec(text)
            assert parse_fault_spec(plan.spec()) == (plan,)

    def test_defaults_and_empty(self):
        (plan,) = parse_fault_spec("kill")
        assert (plan.worker, plan.epoch, plan.op) == (0, 0, None)
        assert parse_fault_spec("  ;  ") == ()

    @pytest.mark.parametrize("bad", [
        "explode:worker=1",            # unknown action
        "kill:worker",                 # not key=value
        "kill:color=red",              # unknown key
        "kill:worker=x",               # not an int
        "kill:op=teleport",            # unknown op
        "hang:seconds=0",              # non-positive duration
        "kill:epoch=-1",               # negative epoch
    ])
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises((ExecutionError, ValueError)):
            parse_fault_spec(bad)

    def test_faults_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        assert faults_from_env() == ()
        monkeypatch.setenv("REPRO_FAULT", "kill:worker=1:epoch=0")
        assert faults_from_env() == (FaultPlan("kill", worker=1, epoch=0),)

    def test_injector_counts_compute_commands_only(self):
        injector = FaultInjector(
            plans=(FaultPlan("poison", worker=0, epoch=1, op="uda_state"),), worker=0
        )
        injector.before("ping")       # control traffic never counts
        injector.before("load")
        injector.before("uda_state")  # uda_state #0 — not yet
        injector.before("chunk_uda")  # other op — per-op filter ignores it
        from repro.db.fault import FaultInjected

        with pytest.raises(FaultInjected):
            injector.before("uda_state")  # uda_state #1 — fires
        injector.before("uda_state")      # one-shot: gone after firing

    def test_injector_ignores_other_workers(self):
        injector = FaultInjector(plans=(FaultPlan("poison", worker=3),), worker=0)
        injector.before("uda_state")  # would fire were it worker 3


class TestRecoveryPolicy:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RECOVERY_MAX_RESPAWNS", "7")
        monkeypatch.setenv("REPRO_RECOVERY_BACKOFF", "0")
        policy = RecoveryPolicy.from_env()
        assert (policy.timeout, policy.max_respawns, policy.backoff) == (2.5, 7, 0.0)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RecoveryPolicy(timeout=0)
        with pytest.raises(ExecutionError):
            RecoveryPolicy(max_respawns=-1)
        with pytest.raises(ExecutionError):
            RecoveryPolicy(backoff=-0.1)


# ---------------------------------------------------------------------------
# Satellites: base-pool fixes (bounded close, eager state clear, error type)
# ---------------------------------------------------------------------------
class TestBasePoolFixes:
    def test_close_does_not_block_on_hung_worker(self):
        pool = ProcessWorkerPool(1, faults=(FaultPlan("hang", worker=0, seconds=60),))
        try:
            # Trip the hang: the worker sleeps mid-command and will never
            # acknowledge "stop".  An unbounded drain would block forever.
            pool._conns[0].send(("uda_state", ("nokey",), None, None))
            start = time.perf_counter()
        finally:
            pool.close()
        # drain deadline + join timeout + terminate, with slack for CI noise
        assert time.perf_counter() - start < pool.drain_timeout + 10.0
        assert not pool._procs[0].is_alive()

    def test_worker_death_raises_worker_died_error_and_clears_state(self, workload):
        dataset, task = workload
        pool = ProcessWorkerPool(2, faults=(FaultPlan("kill", worker=1),))
        with make_database(dataset) as database:
            table = database.table("pts")
            from repro.db.process_backend import fold_on_pool

            parts = [range(0, len(table), 2), range(1, len(table), 2)]
            with pytest.raises(WorkerDiedError) as info:
                fold_on_pool(
                    pool, database.executor, table, IGDAggregate(task, 0.1), "examples", parts
                )
        error = info.value
        assert isinstance(error, ExecutionError)  # subclass, old handlers still work
        assert error.workers == (1,)
        assert not error.recoverable  # the base pool does not respawn
        # Self-close cleared the registries eagerly, not on a later close().
        assert pool._closed
        assert not pool._loaded and pool._pins == {} and pool._payload_bytes == {}
        assert multiprocessing.active_children() == []

    def test_base_pool_ignores_fault_env(self, monkeypatch):
        """REPRO_FAULT drives *supervised* pools only; direct pools stay clean."""
        monkeypatch.setenv("REPRO_FAULT", "kill:worker=0:epoch=0")
        with ProcessWorkerPool(1) as pool:
            assert pool._faults == ()
            assert pool.run({0: ("ping",)})[0] > 0


# ---------------------------------------------------------------------------
# Supervised recovery: kill / hang / poison across every pass kind
# ---------------------------------------------------------------------------
def _plans(database, task, model):
    """One compiled plan per pass kind, all mergeable and process-runnable."""
    table = database.table("pts")
    return {
        "gradient": compile_pass(
            "generic", table, lambda: IGDAggregate(task, 0.1, initial_model=model),
            workers=2,
        ),
        "loss": compile_pass(
            "loss", table, lambda: LossAggregate(task, model), workers=2
        ),
        "accuracy": compile_pass(
            "accuracy", table, lambda: AccuracyAggregate(task, model), workers=2
        ),
        "generic": compile_pass(
            "generic", table, lambda: database.aggregates.create("sum"),
            argument=ColumnRef("id"), workers=2,
        ),
    }


class TestSupervisedRecovery:
    @pytest.mark.parametrize("kind", ["gradient", "loss", "accuracy", "generic"])
    def test_killed_worker_recovers_bit_for_bit(self, workload, kind):
        """Every pass kind survives a worker kill with the exact serial value."""
        dataset, task = workload
        model = task.initial_model()
        faults = (FaultPlan("kill", worker=1, epoch=0),)
        with make_database(dataset) as clean_db, \
             make_database(dataset, faults=faults) as faulted_db:
            serial = SerialBackend(clean_db).run(_plans(clean_db, task, model)[kind])
            process = ProcessBackend(faulted_db).run(
                _plans(faulted_db, task, model)[kind]
            )
            events = faulted_db.recovery_events()
            assert [e.kind for e in events] == ["death"]
            assert events[0].respawned and events[0].workers == (1,)
        if kind == "gradient":
            assert np.array_equal(
                serial.as_flat_vector(), process.as_flat_vector()
            )
        else:
            assert process == serial
        assert multiprocessing.active_children() == []

    def test_hung_worker_terminated_and_recovered(self, workload):
        dataset, task = workload
        model = task.initial_model()
        faults = (FaultPlan("hang", worker=0, epoch=0, seconds=60),)
        policy = RecoveryPolicy(timeout=1.0, max_respawns=2, backoff=0.0)
        with make_database(dataset, faults=faults, policy=policy) as database:
            serial = SerialBackend(database).run(_plans(database, task, model)["loss"])
            process = ProcessBackend(database).run(_plans(database, task, model)["loss"])
            events = database.recovery_events()
            assert [e.kind for e in events] == ["hang"]
            assert events[0].respawned and events[0].workers == (0,)
        assert process == serial
        assert multiprocessing.active_children() == []

    def test_poison_is_a_user_code_error_not_a_recovery(self, workload):
        """A healthy-pipe exception must NOT burn respawn budget."""
        dataset, task = workload
        model = task.initial_model()
        faults = (FaultPlan("poison", worker=1, epoch=0),)
        with make_database(dataset, faults=faults) as database:
            plan = _plans(database, task, model)["loss"]
            with pytest.raises(ExecutionError, match="injected poison"):
                ProcessBackend(database).run(plan)
            assert database.recovery_events() == []
            pool = database.process_pool(2)
            assert pool.respawns_used == 0 and not pool._closed
            # The pool stays usable: the poisoned command produced its reply.
            assert ProcessBackend(database).run(plan) == SerialBackend(database).run(plan)

    def test_payload_replay_after_respawn(self, workload):
        """A rebuilt worker re-receives its payloads by key, pickled-once."""
        dataset, task = workload
        model = task.initial_model()
        faults = (FaultPlan("kill", worker=1, epoch=1),)
        with make_database(dataset, faults=faults) as database:
            plan = _plans(database, task, model)["loss"]
            backend = ProcessBackend(database)
            backend.run(plan)          # epoch 0: loads payloads, no fault yet
            pool = database.process_pool(2)
            loaded_before = set(pool._loaded)
            backend.run(plan)          # epoch 1: worker 1 dies, is replayed
            assert set(pool._loaded) == loaded_before
            (event,) = database.recovery_events()
            assert event.payloads_replayed == len(
                {key for (w, key) in loaded_before if w == 1}
            )

    def test_budget_exhaustion_degrades_instead_of_raising(self, workload):
        dataset, task = workload
        model = task.initial_model()
        faults = (FaultPlan("kill", worker=1, epoch=0),)
        policy = RecoveryPolicy(timeout=30.0, max_respawns=0, backoff=0.0)
        with make_database(dataset, faults=faults, policy=policy) as database:
            plan = _plans(database, task, model)["loss"]
            serial = SerialBackend(database).run(plan)
            value = ProcessBackend(database).run(plan)
            assert value == serial  # degraded pass still returns the answer
            kinds = [type(e).__name__ for e in database.recovery_events()]
            assert kinds == ["RecoveryEvent", "DegradationEvent"]
            event = database.recovery_events()[0]
            assert event.kind == "budget_exhausted" and not event.respawned
            degradation = database.recovery_events()[1]
            assert degradation.from_backend == "process"
            assert degradation.to_backend == "serial"
            assert database.process_degraded
            # Sticky: the next plan degrades immediately, no new pool.
            ProcessBackend(database).run(plan)
            assert len(database._process_pools) <= 1
            database.reset_degradation()
            assert not database.process_degraded
        assert multiprocessing.active_children() == []

    def test_run_aggregate_process_shares_the_plan_ladder(self, workload):
        """Database.run_aggregate(backend='process') *is* ProcessBackend on the
        equivalent generic plan: same value, same DegradationEvent, same
        sticky flag on budget exhaustion."""
        dataset, _task = workload
        faults = (FaultPlan("kill", worker=1, epoch=0),)
        policy = RecoveryPolicy(timeout=30.0, max_respawns=0, backoff=0.0)

        def degraded(run):
            with make_database(dataset, faults=faults, policy=policy) as database:
                value = run(database)
                (event,) = [
                    e for e in database.recovery_events()
                    if isinstance(e, DegradationEvent)
                ]
                assert database.process_degraded
            # The reason quotes the casualty's exit code, which races the reap.
            assert "exhausted" in event.reason
            return value, dataclasses.replace(event, reason="")

        convenience = degraded(
            lambda database: database.run_aggregate(
                "pts", "sum", "id", backend="process",
                process_workers=2,
            )
        )
        planned = degraded(
            lambda database: ProcessBackend(database).run(
                compile_pass(
                    "generic", database.table("pts"),
                    lambda: database.aggregates.create("sum"),
                    argument=ColumnRef("id"), workers=2,
                )
            )
        )
        assert convenience == planned
        value, event = convenience
        with make_database(dataset) as database:
            assert value == database.run_aggregate("pts", "sum", "id")
        assert event == DegradationEvent(
            plan_kind="generic", from_backend="process", to_backend="serial"
        )
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Whole-loop acceptance: kill + hang mid-run
# ---------------------------------------------------------------------------
class TestWholeLoopAcceptance:
    def test_pure_uda_kill_and_hang_bit_for_bit(self, workload):
        """The ISSUE acceptance bar: kill + hang, identical final model."""
        dataset, task = workload
        before = _shm_entries()

        def run(faults=()):
            database = SegmentedDatabase(
                3, "dbms_b", seed=0, faults=faults,
                recovery=RecoveryPolicy(timeout=2.0, max_respawns=4, backoff=0.0),
            )
            load_classification_table(database, "pts", dataset.examples, sparse=True)
            try:
                return train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=3, ordering="shuffle_once", seed=0,
                        parallelism=PureUDAParallelism(backend="process"),
                    ),
                )
            finally:
                database.close_process_pools()

        clean = run()
        faulted = run(faults=(
            FaultPlan("kill", worker=1, epoch=0, op="uda_state"),
            FaultPlan("hang", worker=0, epoch=1, op="uda_state", seconds=60),
        ))
        assert np.array_equal(
            clean.model.as_flat_vector(), faulted.model.as_flat_vector()
        )
        assert clean.objective_trace() == faulted.objective_trace()
        assert [e.kind for e in faulted.recovery_events] == ["death", "hang"]
        assert faulted.respawn_count == 2 and not faulted.degraded
        assert clean.recovery_events == [] and clean.respawn_count == 0
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= before

    def test_shmem_scheme_kill_rebuilds_pool_and_stays_in_band(self, workload):
        """Racy schemes: snapshot/restore retry, full rebuild (fresh lock)."""
        dataset, task = workload
        before = _shm_entries()

        def run(faults=()):
            with make_database(dataset, faults=faults) as database:
                return train(
                    task, database, "pts",
                    config=IGDConfig(
                        max_epochs=3, ordering="shuffle_once", seed=0,
                        parallelism=SharedMemoryParallelism(
                            scheme="nolock", workers=2, backend="process"
                        ),
                    ),
                ), list(database.shared_memory.names())

        clean, _ = run()
        faulted, names = run(
            faults=(FaultPlan("kill", worker=1, epoch=1, op="shmem_epoch"),)
        )
        (event,) = faulted.recovery_events
        assert event.kind == "death" and event.pool_rebuilt  # fresh lock
        assert names == []  # no orphaned arena segments survived recovery
        # Racy convergence: both runs end in the same objective band.
        assert faulted.final_objective == pytest.approx(
            clean.final_objective, rel=0.25
        )
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= before

    def test_budget_exhausted_train_degrades_down_the_ladder(self, workload, monkeypatch):
        """process → serial for train and loss alike; the simulated
        shared-memory backend is no rung, and the run completes."""
        dataset, task = workload
        faults = (FaultPlan("kill", worker=1, epoch=0, op="shmem_epoch"),)
        policy = RecoveryPolicy(timeout=30.0, max_respawns=0, backoff=0.0)

        def refuse(_backend, _plan):
            raise AssertionError("a degraded process plan ran SharedMemoryBackend")

        monkeypatch.setattr(SharedMemoryBackend, "run", refuse)
        with make_database(dataset, faults=faults, policy=policy) as database:
            result = train(
                task, database, "pts",
                config=IGDConfig(
                    max_epochs=2, ordering="shuffle_once", seed=0,
                    parallelism=SharedMemoryParallelism(
                        scheme="nolock", workers=2, backend="process"
                    ),
                ),
            )
            assert result.epochs_run == 2 and result.degraded
            degradations = [
                (e.plan_kind, e.from_backend, e.to_backend)
                for e in result.recovery_events
                if isinstance(e, DegradationEvent)
            ]
            # One event per train plan, each naming the one fallback.
            assert [d for d in degradations if d[0] == "train"] == [
                ("train", "process", "serial")
            ] * result.epochs_run
            assert {d[1:] for d in degradations} == {("process", "serial")}
            assert np.isfinite(result.final_objective)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# CI chaos-job hook: honoured REPRO_FAULT must be visible in the results
# ---------------------------------------------------------------------------
class TestChaosEnvironment:
    def test_supervised_pool_reads_fault_env(self, monkeypatch, workload):
        dataset, task = workload
        monkeypatch.setenv("REPRO_FAULT", "kill:worker=1:epoch=0")
        model = task.initial_model()
        with make_database(dataset, faults=None) as database:
            plan = _plans(database, task, model)["loss"]
            serial = SerialBackend(database).run(plan)
            assert ProcessBackend(database).run(plan) == serial
            assert [e.kind for e in database.recovery_events()] == ["death"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FAULT"),
        reason="chaos assertion only runs under the CI chaos job (REPRO_FAULT set)",
    )
    def test_chaos_run_records_recovery_events(self, workload):
        """Under the chaos job, injected faults must surface as recorded events."""
        dataset, task = workload
        with make_database(dataset, faults=None) as database:
            result = train(
                task, database, "pts",
                config=IGDConfig(
                    max_epochs=3, ordering="shuffle_once", seed=0,
                    parallelism=SharedMemoryParallelism(
                        scheme="nolock", workers=2, backend="process"
                    ),
                ),
            )
            assert result.epochs_run == 3
            assert len(result.recovery_events) >= 1
            assert np.isfinite(result.final_objective)
        assert multiprocessing.active_children() == []
