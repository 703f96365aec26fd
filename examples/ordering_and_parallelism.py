"""Reproduce the paper's two generic optimisations on a small workload.

Part 1 — data ordering (Section 3.2): train sparse logistic regression over a
label-clustered table with the three ordering policies and print epochs/time
to a common objective target.

Part 2 — parallelism (Section 3.3): train the same model with the pure-UDA
(model-averaging) scheme and the three shared-memory schemes and print the
final objective after a fixed number of epochs.  (The measured per-epoch
speed-ups of Figure 9(B): ``repro.experiments.run_speedup_experiment``.)

Run with:  python examples/ordering_and_parallelism.py
"""

from __future__ import annotations

from repro.core import (
    IGDConfig,
    PureUDAParallelism,
    SharedMemoryParallelism,
    train,
)
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database, SegmentedDatabase
from repro.tasks import LogisticRegressionTask


def ordering_study() -> None:
    print("=== Data ordering (Section 3.2) ===")
    dataset = make_sparse_classification(600, 3000, nonzeros_per_example=15, seed=0)
    dataset = dataset.clustered_by_label()  # the pathological in-RDBMS order
    step_size = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9}

    results = {}
    for policy in ("shuffle_always", "shuffle_once", "clustered"):
        database = Database("postgres", seed=0)
        load_classification_table(database, "docs", dataset.examples, sparse=True)
        results[policy] = train(
            LogisticRegressionTask(dataset.dimension),
            database,
            "docs",
            config=IGDConfig(step_size=step_size, max_epochs=15, ordering=policy, seed=0),
        )

    target = min(min(r.objective_trace()) for r in results.values()) * 1.05
    for policy, result in results.items():
        epochs = result.epochs_to_reach(target)
        seconds = result.time_to_reach(target)
        print(f"  {policy:>15}: epochs to target = {epochs}, "
              f"time = {f'{seconds:.2f}s' if seconds else 'not reached'}, "
              f"shuffle cost = {result.shuffle_seconds:.3f}s")


def parallelism_study() -> None:
    print("\n=== Parallelising IGD (Section 3.3) ===")
    dataset = make_sparse_classification(600, 3000, nonzeros_per_example=15, seed=1)
    step_size = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9}
    epochs = 5
    workers = 8

    segmented = SegmentedDatabase(workers, "dbms_b", seed=0)  # the string is only a label
    load_classification_table(segmented, "docs", dataset.examples, sparse=True)
    pure = train(
        LogisticRegressionTask(dataset.dimension), segmented, "docs",
        config=IGDConfig(step_size=step_size, max_epochs=epochs,
                         parallelism=PureUDAParallelism(), seed=0),
    )
    print(f"  pure UDA (model averaging): final objective {pure.final_objective:.1f}")

    for scheme in ("lock", "aig", "nolock"):
        database = Database("postgres", seed=0)
        load_classification_table(database, "docs", dataset.examples, sparse=True)
        result = train(
            LogisticRegressionTask(dataset.dimension), database, "docs",
            config=IGDConfig(step_size=step_size, max_epochs=epochs,
                             parallelism=SharedMemoryParallelism(scheme=scheme, workers=workers),
                             seed=0),
        )
        print(f"  shared memory [{scheme:>6}]: final objective {result.final_objective:.1f}")


if __name__ == "__main__":
    ordering_study()
    parallelism_study()
