"""Experiments E5/E6 — Figure 7: Bismarck vs native analytics tools.

Figure 7(A): end-to-end runtime to convergence (0.1% tolerance of the best
objective reached by either system) for LR, SVM and LMF, comparing Bismarck's
IGD-as-a-UDA against the baseline trainers that model the native tools
(Newton/IRLS LR, batch-subgradient SVM, ALS matrix factorisation).

Figure 7(B): objective-vs-time convergence curves for the CRF task, Bismarck
against the batch CRF trainer standing in for CRF++ / Mallet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    train_batch_crf,
    train_batch_gradient_descent,
    train_batch_matrix_factorization,
    train_batch_svm,
    train_newton_logistic_regression,
)
from ..core.driver import IGDConfig, train
from ..db.engine import Database
from ..data import (
    load_classification_table,
    load_ratings_table,
    load_sequences_table,
    make_dense_classification,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from ..tasks.crf import ConditionalRandomFieldTask
from ..tasks.logistic_regression import LogisticRegressionTask
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask
from ..tasks.svm import SVMTask
from .harness import ExperimentScale, resolve_scale, time_to_tolerance, tolerance_target
from .reporting import render_series, render_table


@dataclass(frozen=True)
class ComparisonRow:
    """One (dataset, task) comparison between Bismarck and a native-tool baseline."""

    dataset: str
    task: str
    bismarck_seconds: float | None
    baseline_name: str
    baseline_seconds: float | None
    bismarck_final_objective: float
    baseline_final_objective: float

    @property
    def speedup(self) -> float | None:
        """How many times faster Bismarck reached the tolerance band."""
        if self.bismarck_seconds is None or self.baseline_seconds is None:
            return None
        if self.bismarck_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.bismarck_seconds

    def as_row(self) -> tuple:
        return (
            self.dataset,
            self.task,
            _fmt_seconds(self.bismarck_seconds),
            self.baseline_name,
            _fmt_seconds(self.baseline_seconds),
            f"{self.speedup:.1f}x" if self.speedup is not None else "-",
        )


def _fmt_seconds(value: float | None) -> str:
    return f"{value:.3f}s" if value is not None else "did not reach"


@dataclass
class BenchmarkComparisonResult:
    """Figure 7(A): runtime-to-convergence comparison rows."""

    rows: list[ComparisonRow] = field(default_factory=list)
    tolerance: float = 1e-3

    def render(self) -> str:
        return render_table(
            ["Dataset", "Task", "Bismarck", "Baseline", "Baseline time", "Speed-up"],
            [row.as_row() for row in self.rows],
            title="Figure 7A (reproduction): time to convergence, Bismarck vs native tools",
        )

    def row_for(self, dataset: str, task: str) -> ComparisonRow:
        for row in self.rows:
            if row.dataset == dataset and row.task == task:
                return row
        raise KeyError(f"no comparison row for ({dataset}, {task})")


def _bismarck_config(max_epochs: int, step_size) -> IGDConfig:
    return IGDConfig(
        step_size=step_size,
        max_epochs=max_epochs,
        ordering="shuffle_once",
        seed=0,
    )


def run_benchmark_comparison(
    scale: ExperimentScale | str | None = None,
    *,
    tolerance: float = 0.25,
) -> BenchmarkComparisonResult:
    """Regenerate Figure 7(A): LR (dense), SVM (dense), LR/SVM (sparse), LMF.

    Bismarck trains through the engine; the baselines are plain in-memory
    loops over the same examples, so the seconds are honest wall-clock on
    both sides with no engine cost added to either.  The completion criterion
    for each pair is reaching ``tolerance`` (relative) above the better of the
    two systems' best objective values — the reproduction analogue of the paper's
    "completion = 0.1% tolerance of the optimal objective".  The band is much
    looser than 0.1% because the runs are orders of magnitude shorter than the
    paper's; a system that never reaches the band is reported as
    "did not reach" (the analogue of the paper's slowest competitors).
    """
    scale = resolve_scale(scale)
    result = BenchmarkComparisonResult(tolerance=tolerance)
    epochs = max(scale.max_epochs, 20)

    dense = make_dense_classification(scale.dense_examples, scale.dense_dimension, seed=0)
    sparse = make_sparse_classification(
        scale.sparse_examples,
        scale.sparse_dimension,
        nonzeros_per_example=scale.sparse_nonzeros,
        seed=1,
    )
    ratings = make_ratings(scale.rating_rows, scale.rating_cols, scale.num_ratings, rank=5, seed=2)

    step_size = {"kind": "epoch_decay", "alpha0": 0.08, "decay": 0.9}

    # ----------------------------------------------------------- dense LR
    database = Database("postgres", seed=0)
    load_classification_table(database, "forest_like", dense.examples, sparse=False)
    lr_task = LogisticRegressionTask(dense.dimension)
    bismarck_lr = train(
        lr_task, database, "forest_like", config=_bismarck_config(epochs, step_size)
    )
    newton = train_newton_logistic_regression(dense.examples, dense.dimension, iterations=12)
    result.rows.append(
        _comparison_row("forest_like", "LR", bismarck_lr, newton, tolerance)
    )

    # ----------------------------------------------------------- dense SVM
    svm_task = SVMTask(dense.dimension)
    bismarck_svm = train(
        svm_task, database, "forest_like", config=_bismarck_config(epochs, step_size)
    )
    batch_svm = train_batch_svm(
        SVMTask(dense.dimension),
        dense.examples,
        step_size=0.005,
        iterations=epochs * 3,
    )
    result.rows.append(
        _comparison_row("forest_like", "SVM", bismarck_svm, batch_svm, tolerance)
    )

    # ----------------------------------------------------------- sparse LR / SVM
    # The paper's MADlib LR does not support the sparse DBLife workload (N/A in
    # Figure 7A); the sparse LR baseline here is the generic full-batch
    # gradient tool (the implementation style of the commercial engines'
    # native LR), not IRLS, whose dense d x d Hessian would be pathological at
    # this dimensionality.
    sparse_db = Database("postgres", seed=0)
    load_classification_table(sparse_db, "dblife_like", sparse.examples, sparse=True)
    sparse_lr_task = LogisticRegressionTask(sparse.dimension)
    bismarck_sparse_lr = train(
        sparse_lr_task, sparse_db, "dblife_like", config=_bismarck_config(epochs, step_size)
    )
    sparse_batch_lr = train_batch_gradient_descent(
        LogisticRegressionTask(sparse.dimension),
        sparse.examples,
        step_size=0.01,
        iterations=epochs * 3,
    )
    result.rows.append(
        _comparison_row("dblife_like", "LR", bismarck_sparse_lr, sparse_batch_lr, tolerance)
    )

    sparse_svm_task = SVMTask(sparse.dimension)
    bismarck_sparse_svm = train(
        sparse_svm_task, sparse_db, "dblife_like", config=_bismarck_config(epochs, step_size)
    )
    sparse_batch_svm = train_batch_svm(
        SVMTask(sparse.dimension),
        sparse.examples,
        step_size=0.01,
        iterations=epochs * 3,
    )
    result.rows.append(
        _comparison_row("dblife_like", "SVM", bismarck_sparse_svm, sparse_batch_svm, tolerance)
    )

    # ----------------------------------------------------------- LMF
    mf_db = Database("postgres", seed=0)
    load_ratings_table(mf_db, "movielens_like", ratings.examples)
    mf_task = LowRankMatrixFactorizationTask(
        ratings.num_rows, ratings.num_cols, rank=5, mu=0.01
    )
    bismarck_mf = train(
        mf_task,
        mf_db,
        "movielens_like",
        config=_bismarck_config(max(epochs, 20), 0.05),
    )
    batch_mf = train_batch_matrix_factorization(
        LowRankMatrixFactorizationTask(ratings.num_rows, ratings.num_cols, rank=5, mu=0.01),
        ratings.examples,
        step_size=0.002,
        iterations=max(epochs, 20) * 2,
    )
    result.rows.append(
        _comparison_row("movielens_like", "LMF", bismarck_mf, batch_mf, tolerance)
    )

    return result


def _comparison_row(dataset: str, task: str, bismarck_result, baseline_result, tolerance: float) -> ComparisonRow:
    """Build one row: time each side needs to reach the tolerance band around
    the best objective value either system attains."""
    best = min(
        min(bismarck_result.objective_trace()),
        min(baseline_result.objective_trace()),
    )
    target = tolerance_target(best, tolerance)
    return ComparisonRow(
        dataset=dataset,
        task=task,
        bismarck_seconds=bismarck_result.time_to_reach(target),
        baseline_name=baseline_result.name,
        baseline_seconds=baseline_result.time_to_reach(target),
        bismarck_final_objective=bismarck_result.final_objective,
        baseline_final_objective=baseline_result.final_objective,
    )


# ---------------------------------------------------------------------------
# Figure 7(B): CRF convergence curves
# ---------------------------------------------------------------------------
@dataclass
class CRFComparisonResult:
    """Figure 7(B): objective-vs-time traces for Bismarck and the batch CRF."""

    bismarck_times: list[float] = field(default_factory=list)
    bismarck_objectives: list[float] = field(default_factory=list)
    baseline_times: list[float] = field(default_factory=list)
    baseline_objectives: list[float] = field(default_factory=list)
    bismarck_final_accuracy: float = 0.0

    def render(self) -> str:
        return "\n".join(
            [
                "Figure 7B (reproduction): CRF objective vs time",
                render_series("bismarck", self.bismarck_times, self.bismarck_objectives),
                render_series("batch_crf", self.baseline_times, self.baseline_objectives),
                f"Bismarck final token accuracy: {self.bismarck_final_accuracy:.3f}",
            ]
        )

    def bismarck_objective_at(self, fraction_of_baseline_time: float) -> float:
        """Bismarck's objective once it has spent the given fraction of the
        baseline's total time (used to verify Bismarck converges no slower)."""
        if not self.baseline_times or not self.bismarck_times:
            return float("nan")
        budget = fraction_of_baseline_time * self.baseline_times[-1]
        value = self.bismarck_objectives[0]
        for t, objective in zip(self.bismarck_times, self.bismarck_objectives):
            if t <= budget:
                value = objective
        return value


def run_crf_comparison(
    scale: ExperimentScale | str | None = None,
    *,
    max_epochs: int | None = None,
) -> CRFComparisonResult:
    """Regenerate Figure 7(B): Bismarck CRF vs the batch (CRF++/Mallet-style) trainer."""
    scale = resolve_scale(scale)
    epochs = max_epochs or scale.max_epochs
    corpus = make_sequences(scale.num_sequences, num_labels=scale.sequence_labels, seed=3)

    database = Database("postgres", seed=0)
    load_sequences_table(database, "conll_like", corpus.examples)
    task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
    bismarck = train(
        task,
        database,
        "conll_like",
        config=IGDConfig(
            step_size={"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9},
            max_epochs=epochs,
            ordering="shuffle_once",
            seed=0,
        ),
    )
    baseline = train_batch_crf(
        ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
        corpus.examples,
        step_size=0.5,
        iterations=epochs * 2,
    )
    return CRFComparisonResult(
        bismarck_times=bismarck.time_trace(),
        bismarck_objectives=bismarck.objective_trace(),
        baseline_times=baseline.time_trace(),
        baseline_objectives=baseline.objective_trace(),
        bismarck_final_accuracy=task.token_accuracy(bismarck.model, corpus.examples),
    )
