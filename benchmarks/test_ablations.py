"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's tables/figures and probe the knobs of the
reproduction itself:

* ordering ablation — how much of ShuffleAlways' per-epoch benefit does
  ShuffleOnce retain (vs not shuffling at all)?
* merge-strategy ablation — step-weighted model averaging vs naive unweighted
  averaging for the pure-UDA merge;
* interleave-window ablation — how sensitive the NoLock scheme is to the
  number of rows each worker steps per turn of the round-robin interleave;
* batch-growth ablation — epoch-adaptive mini-batch growth (a BatchSchedule)
  against constant batches and the full-batch GD baseline.
"""

from __future__ import annotations

from conftest import report

from repro.baselines import train_batch_gradient_descent
from repro.core import (
    BatchSchedule,
    IGDConfig,
    Model,
    SharedMemoryParallelism,
    train,
    train_in_memory,
)
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database
from repro.experiments import render_table
from repro.tasks import LogisticRegressionTask


def _sparse_workload(scale):
    dataset = make_sparse_classification(
        scale.sparse_examples,
        scale.sparse_dimension,
        nonzeros_per_example=scale.sparse_nonzeros,
        seed=13,
    ).clustered_by_label()
    return dataset


def test_ablation_ordering_epochs(benchmark, scale):
    """ShuffleOnce retains nearly all of ShuffleAlways' per-epoch benefit."""
    dataset = _sparse_workload(scale)
    task = LogisticRegressionTask(dataset.dimension)
    epochs = max(8, scale.max_epochs)
    rows = []
    finals = {}

    def run_all():
        for policy in ("shuffle_always", "shuffle_once", "clustered"):
            database = Database("postgres", seed=0)
            load_classification_table(database, "docs", dataset.examples, sparse=True)
            result = train(
                task, database, "docs",
                config=IGDConfig(step_size={"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9},
                                 max_epochs=epochs, ordering=policy, seed=0),
            )
            finals[policy] = result.final_objective
            rows.append((policy, f"{result.final_objective:.3f}", f"{result.total_seconds:.3f}s"))
        return finals

    benchmark.pedantic(run_all, iterations=1, rounds=1)
    report("Ablation — ordering policies, final objective after equal epochs",
           render_table(["Policy", "Final objective", "Wall time"], rows))

    # Shuffle-once ends within 10% of shuffle-always; clustered is worse than both.
    assert finals["shuffle_once"] <= finals["shuffle_always"] * 1.10
    assert finals["clustered"] >= finals["shuffle_once"]


def test_ablation_merge_strategy(benchmark, scale):
    """Step-weighted averaging (the merge Bismarck uses) vs unweighted averaging."""
    dataset = _sparse_workload(scale)
    task = LogisticRegressionTask(dataset.dimension)
    examples = dataset.examples
    # Build two deliberately unbalanced partitions (25% / 75%).
    split = len(examples) // 4
    partitions = [examples[:split], examples[split:]]

    def run_merge_comparison():
        partial_models = []
        for partition in partitions:
            result = train_in_memory(task, partition, epochs=3, step_size=0.05, seed=0)
            partial_models.append((result.model, len(partition) * 3))
        weighted = Model.average(
            [model for model, _ in partial_models], weights=[steps for _, steps in partial_models]
        )
        unweighted = Model.average([model for model, _ in partial_models])
        return (
            task.total_loss(weighted, examples),
            task.total_loss(unweighted, examples),
        )

    weighted_loss, unweighted_loss = benchmark.pedantic(run_merge_comparison, iterations=1, rounds=1)
    report("Ablation — merge strategy",
           render_table(["Merge", "Objective"],
                        [("step-weighted", f"{weighted_loss:.3f}"),
                         ("unweighted", f"{unweighted_loss:.3f}")]))
    # Weighting by gradient steps never hurts when partitions are unbalanced.
    assert weighted_loss <= unweighted_loss * 1.05


def test_ablation_nolock_staleness(benchmark, scale):
    """NoLock convergence degrades gracefully as the interleave window grows."""
    dataset = _sparse_workload(scale)
    task = LogisticRegressionTask(dataset.dimension)
    examples = dataset.examples
    losses = {}

    def run_window_sweep():
        for window in (1, 4, 16, 64):
            database = Database("postgres", seed=0)
            load_classification_table(database, "docs", examples, sparse=True)
            result = train(
                task, database, "docs",
                config=IGDConfig(
                    step_size=0.05, max_epochs=1, ordering="clustered", seed=0,
                    compute_objective=False,
                    parallelism=SharedMemoryParallelism(
                        scheme="nolock", workers=8, staleness=window
                    ),
                ),
            )
            losses[window] = task.total_loss(result.model, examples)
        return losses

    benchmark.pedantic(run_window_sweep, iterations=1, rounds=1)
    report("Ablation — NoLock interleave window sensitivity",
           render_table(["Interleave window", "Objective after 1 epoch"],
                        [(k, f"{v:.3f}") for k, v in losses.items()]))

    baseline = losses[1]
    # Moderate windows barely hurt (the Hogwild observation)...
    assert losses[4] <= baseline * 1.15
    assert losses[16] <= baseline * 1.30
    # ...and even an extreme window still converges (no divergence).
    initial = task.total_loss(task.initial_model(), examples)
    assert losses[64] < initial


def test_ablation_batch_growth(benchmark, scale):
    """Epoch-adaptive batch growth vs constant batches vs full-batch GD.

    The growth schedule starts at the exact-IGD regime (one step per tuple,
    fast early progress) and grows the mini-batch geometrically, ending in
    the variance-reduced batch-GD regime — it should keep (almost all of)
    IGD's head start while a large constant batch gives it up, and it should
    beat full-batch GD at an equal number of passes over the data.
    """
    dataset = _sparse_workload(scale)
    task = LogisticRegressionTask(dataset.dimension)
    epochs = max(8, scale.max_epochs)
    step_size = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9}
    schedules = {
        "exact_igd": 1,
        "constant_32": 32,
        "growth_1to32": BatchSchedule(initial=1, growth=2.0, cap=32),
    }
    finals = {}
    rows = []

    def run_all():
        for name, batch_size in schedules.items():
            database = Database("postgres", seed=0)
            load_classification_table(database, "docs", dataset.examples, sparse=True)
            result = train(
                task, database, "docs",
                config=IGDConfig(step_size=step_size, max_epochs=epochs,
                                 ordering="shuffle_once", seed=0, batch_size=batch_size),
            )
            finals[name] = result.final_objective
            rows.append((name, f"{result.final_objective:.3f}",
                         f"{result.total_seconds:.3f}s"))
        # The batch-GD baseline gets one full-gradient step per epoch —
        # the same number of passes over the data as the IGD runs.
        baseline = train_batch_gradient_descent(
            task, dataset.examples, step_size=0.05, iterations=epochs,
        )
        finals["batch_gd"] = baseline.final_objective
        rows.append(("batch_gd", f"{baseline.final_objective:.3f}",
                     f"{baseline.total_seconds:.3f}s"))
        return finals

    benchmark.pedantic(run_all, iterations=1, rounds=1)
    report("Ablation — epoch-adaptive batch growth vs batch GD",
           render_table(["Schedule", "Final objective", "Wall time"], rows))

    # Growth interpolates: worse than exact IGD (it trades steps for
    # variance reduction) but clearly ahead of jumping straight to the large
    # constant batch...
    assert finals["exact_igd"] <= finals["growth_1to32"]
    assert finals["growth_1to32"] <= finals["constant_32"] * 0.75
    # ...and far ahead of full-batch GD at an equal number of passes.
    assert finals["growth_1to32"] < finals["batch_gd"]
