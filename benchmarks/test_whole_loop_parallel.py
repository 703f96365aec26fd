"""Benchmark — whole-loop parallelisation vs PR-4's gradient-only shape.

The pass-plan layer routes the per-epoch loss pass through the same worker
pool as the gradient pass (``parallel_evaluation=True``).  On the CRF
workload the forward-algorithm loss costs about as much as the gradient
epoch, so once the gradient runs on worker processes the serial loss pass is
the Amdahl bottleneck — exactly what the whole-loop run removes.  How much
that buys depends on the cores the host grants, so the timings are reported
(the ``cores`` field labels them) and the assertion is on the path taken:
the whole-loop run's loss passes are worker rounds, the gradient-only run's
are not.
"""

from __future__ import annotations

from collections import Counter

from conftest import report

from repro.db import ProcessWorkerPool
from repro.experiments import parallelism, run_whole_loop_experiment

EPOCHS = 4


def test_whole_loop_runs_the_loss_pass_on_the_pool(benchmark, scale, monkeypatch):
    rounds: list[Counter] = []  # worker-op rounds per train() call, in mode order
    pool_run, train = ProcessWorkerPool.run, parallelism.train

    def counting_run(pool, messages):
        rounds[-1][next(iter(messages.values()))[0]] += 1
        return pool_run(pool, messages)

    def marking_train(*args, **kwargs):
        rounds.append(Counter())
        return train(*args, **kwargs)

    monkeypatch.setattr(ProcessWorkerPool, "run", counting_run)
    monkeypatch.setattr(parallelism, "train", marking_train)
    result = benchmark.pedantic(
        run_whole_loop_experiment, args=(scale,), kwargs={"epochs": EPOCHS},
        iterations=1, rounds=1,
    )
    report("Whole-loop parallelisation — gradient + loss on the worker pool",
           result.render())

    assert set(result.total_seconds) == {"serial", "gradient_only", "whole_loop"}
    for mode, seconds in result.steady_seconds.items():
        assert seconds > 0, mode
    # Parallelising the loss pass never changes what is learned: all three
    # runs train real models whose final objectives sit in one band.
    objectives = result.final_objectives
    assert max(objectives.values()) <= min(objectives.values()) * 1.5
    # The re-evaluation pass (process-backed for the parallel modes) agrees
    # with the driver's own final loss pass to float noise.
    for mode in objectives:
        assert abs(result.final_eval[mode] - objectives[mode]) <= 1e-6 * max(
            1.0, abs(objectives[mode])
        )

    # The whole-loop run's per-epoch loss passes are chunk_uda rounds on the
    # pool its gradient epochs run on; the gradient-only run's stay serial
    # (its one chunk_uda round is the final re-evaluation above).
    serial, gradient_only, whole_loop = rounds
    assert not serial
    assert gradient_only["shmem_epoch"] == whole_loop["shmem_epoch"] == EPOCHS
    assert gradient_only["chunk_uda"] == 1
    assert whole_loop["chunk_uda"] == EPOCHS + 1
