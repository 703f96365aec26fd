"""Experiments E11/E12 — Figure 10: multiplexed reservoir sampling.

Figure 10(A): objective vs. epochs for Subsampling, Clustered (no shuffle) and
MRS on the sparse LR workload, with a buffer sized at ~10% of the dataset.

Figure 10(B): for several buffer sizes, the time (and number of epochs) each
sampling scheme needs to reach 2x the optimal objective value.  Expected
shape: MRS reaches the target faster than Subsampling at every buffer size,
and both schemes improve as the buffer grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.driver import IGDResult, train, train_in_memory
from ..core.ordering import MultiplexedReservoir, Subsample
from ..core.proximal import L2Proximal
from ..data import load_classification_table, make_sparse_classification
from ..db.engine import Database
from ..tasks.logistic_regression import LogisticRegressionTask
from .harness import ExperimentScale, resolve_scale
from .reporting import render_series, render_table


@dataclass
class MRSConvergenceResult:
    """Figure 10(A): objective traces of the three schemes."""

    traces: dict[str, list[float]] = field(default_factory=dict)
    buffer_size: int = 0
    dataset_size: int = 0

    def render(self) -> str:
        lines = [
            "Figure 10A (reproduction): MRS vs Subsampling vs Clustered "
            f"(buffer {self.buffer_size} of {self.dataset_size} tuples)"
        ]
        for scheme, trace in self.traces.items():
            lines.append(render_series(scheme, list(range(1, len(trace) + 1)), trace))
        return "\n".join(lines)

    def final_objective(self, scheme: str) -> float:
        return self.traces[scheme][-1]


def _make_workload(scale: ExperimentScale, seed: int):
    dataset = make_sparse_classification(
        scale.sparse_examples,
        scale.sparse_dimension,
        nonzeros_per_example=scale.sparse_nonzeros,
        seed=seed,
    ).clustered_by_label()
    # L2-regularised LR: the regulariser keeps the optimum at a quality a
    # model trained on a without-replacement subsample can also approach,
    # mirroring the regularised objectives of Figure 1B.
    task = LogisticRegressionTask(dataset.dimension, proximal=L2Proximal(0.005))
    return dataset, task


TABLE = "mrs_points"
STEP_SIZE = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.92}


def _load_workload(dataset) -> Database:
    """The clustered workload as a heap table.

    No scheme rewrites the heap — each is a visit order over one stable table
    version — so one decode serves every run of a sweep.
    """
    database = Database("postgres", seed=0)
    load_classification_table(database, TABLE, dataset.examples, sparse=True)
    return database


def _train(task, database: Database, ordering, epochs: int, seed: int) -> IGDResult:
    return train(
        task, database, TABLE, ordering=ordering,
        step_size=STEP_SIZE, max_epochs=epochs, seed=seed,
    )


def run_mrs_convergence(
    scale: ExperimentScale | str | None = None,
    *,
    buffer_fraction: float = 0.1,
    epochs: int | None = None,
    seed: int = 0,
) -> MRSConvergenceResult:
    """Regenerate Figure 10(A) on clustered sparse LR data."""
    scale = resolve_scale(scale)
    epochs = epochs or max(scale.max_epochs, 10)
    dataset, task = _make_workload(scale, seed)
    buffer_size = max(2, int(buffer_fraction * len(dataset)))
    database = _load_workload(dataset)
    orderings = {
        "subsampling": Subsample(buffer_size),
        "clustered": "clustered",
        "mrs": MultiplexedReservoir(buffer_size),
    }
    return MRSConvergenceResult(
        traces={
            scheme: _train(task, database, ordering, epochs, seed).objective_trace()
            for scheme, ordering in orderings.items()
        },
        buffer_size=buffer_size,
        dataset_size=len(dataset),
    )


# ---------------------------------------------------------------------------
# Figure 10(B): sensitivity to the buffer size
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BufferSizeRow:
    """Time/epochs to reach 2x the optimal objective for one scheme and buffer."""

    buffer_size: int
    scheme: str
    seconds_to_target: float | None
    epochs_to_target: int | None

    def as_row(self) -> tuple:
        return (
            self.buffer_size,
            self.scheme,
            f"{self.seconds_to_target:.3f}s" if self.seconds_to_target is not None else "-",
            self.epochs_to_target if self.epochs_to_target is not None else "-",
        )


@dataclass
class BufferSizeResult:
    """Figure 10(B): rows for every (buffer size, scheme) combination."""

    rows: list[BufferSizeRow] = field(default_factory=list)
    target_objective: float = float("nan")

    def render(self) -> str:
        return render_table(
            ["Buffer", "Scheme", "Time to 2x opt", "Epochs"],
            [row.as_row() for row in self.rows],
            title="Figure 10B (reproduction): runtime to reach 2x optimal objective",
        )

    def row_for(self, buffer_size: int, scheme: str) -> BufferSizeRow:
        for row in self.rows:
            if row.buffer_size == buffer_size and row.scheme == scheme:
                return row
        raise KeyError(f"no row for buffer {buffer_size} scheme {scheme!r}")


def run_buffer_size_experiment(
    scale: ExperimentScale | str | None = None,
    *,
    buffer_fractions: tuple[float, ...] = (0.05, 0.1, 0.2),
    epochs: int | None = None,
    seed: int = 0,
) -> BufferSizeResult:
    """Regenerate Figure 10(B): time to reach 2x the optimal objective vs buffer size."""
    scale = resolve_scale(scale)
    epochs = epochs or max(scale.max_epochs, 12)
    dataset, task = _make_workload(scale, seed)

    # Estimate the optimal objective with a generous shuffled in-memory run.
    reference = train_in_memory(
        task, dataset.examples, step_size=STEP_SIZE, epochs=epochs * 2, seed=seed
    )
    target = 2.0 * min(reference.objective_trace())

    result = BufferSizeResult(target_objective=target)
    database = _load_workload(dataset)
    for fraction in buffer_fractions:
        buffer_size = max(2, int(fraction * len(dataset)))
        for scheme, ordering in (
            ("subsampling", Subsample(buffer_size)),
            ("mrs", MultiplexedReservoir(buffer_size)),
        ):
            run = _train(task, database, ordering, epochs, seed)
            result.rows.append(
                BufferSizeRow(
                    buffer_size=buffer_size,
                    scheme=scheme,
                    seconds_to_target=run.time_to_reach(target),
                    epochs_to_target=run.epochs_to_reach(target),
                )
            )
    return result
