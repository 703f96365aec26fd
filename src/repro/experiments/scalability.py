"""Experiment E7 — Table 4: scalability of the tools to larger datasets.

The paper's Table 4 records, for the large datasets (Classify300M, Matrix5B,
DBLP), whether each tool *completes the task* within 48 hours.  We reproduce
the shape of that experiment at laptop scale:

* Bismarck trains each task on the scaled-up generated dataset to a tolerance
  band around its own best objective, recording its wall-clock time;
* the corresponding baseline ("native tool" analogue) is then given a
  wall-clock budget of ``budget_multiplier`` times Bismarck's time — the
  analogue of the paper's fixed 48-hour wall, which Bismarck fits comfortably
  and several native/in-memory tools do not;
* a tool "completes" if it reaches the same quality band within its budget.

Expected shape: Bismarck completes every task; the batch baselines fail on the
complex tasks (LMF, CRF) and possibly SVM, as in the paper's check/X pattern.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..baselines import (
    train_batch_crf,
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
    make_large_ratings,
    make_large_sequences,
    make_scalability_classification,
)
from ..db.process_backend import available_cores
from ..tasks.crf import ConditionalRandomFieldTask
from ..tasks.logistic_regression import LogisticRegressionTask
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask
from ..tasks.svm import SVMTask
from .harness import ExperimentScale, evaluate_model, resolve_scale, tolerance_target
from .reporting import render_table


@dataclass(frozen=True)
class ScalabilityRow:
    """One (task, system) scalability verdict."""

    task: str
    system: str
    seconds: float
    budget_seconds: float
    completes: bool

    def as_row(self) -> tuple:
        return (
            self.task,
            self.system,
            f"{self.seconds:.3f}s",
            f"{self.budget_seconds:.3f}s",
            "yes" if self.completes else "NO",
        )


@dataclass
class ScalabilityResult:
    """Table 4: completion verdicts for Bismarck and the baselines."""

    rows: list[ScalabilityRow] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            ["Task", "System", "Time used", "Budget", "Completes"],
            [row.as_row() for row in self.rows],
            title="Table 4 (reproduction): scalability to the large datasets",
        )

    def verdict(self, task: str, system: str) -> bool:
        for row in self.rows:
            if row.task == task and row.system == system:
                return row.completes
        raise KeyError(f"no scalability row for ({task}, {system})")


def _baseline_within_budget(run_iteration, target: float, budget_seconds: float,
                            max_iterations: int = 200) -> tuple[float, bool]:
    """Run baseline iterations until the target, the budget, or the cap is hit.

    ``run_iteration`` is a callable performing one full baseline iteration and
    returning the current objective value.
    """
    start = time.perf_counter()
    for _ in range(max_iterations):
        objective = run_iteration()
        elapsed = time.perf_counter() - start
        if objective <= target:
            return elapsed, True
        if elapsed >= budget_seconds:
            return elapsed, False
    return time.perf_counter() - start, False


def run_scalability_experiment(
    scale: ExperimentScale | str | None = None,
    *,
    budget_multiplier: float = 3.0,
    tolerance: float = 0.10,
    seed: int = 0,
) -> ScalabilityResult:
    """Regenerate Table 4 at laptop scale."""
    scale = resolve_scale(scale)
    result = ScalabilityResult()
    epochs = max(scale.max_epochs, 12)

    def bismarck_run(task, database, table, step_size):
        start = time.perf_counter()
        outcome = train(
            task,
            database,
            table,
            config=IGDConfig(step_size=step_size, max_epochs=epochs,
                             ordering="shuffle_once", seed=seed),
        )
        return outcome, time.perf_counter() - start

    # ------------------------------------------------------------- LR / SVM
    classify = make_scalability_classification(scale.scalability_examples, seed=seed)
    database = Database("postgres", seed=seed)
    load_classification_table(database, "classify_large", classify.examples, sparse=False)
    step_size = {"kind": "epoch_decay", "alpha0": 0.05, "decay": 0.9}

    lr_task = LogisticRegressionTask(classify.dimension)
    lr_result, lr_seconds = bismarck_run(lr_task, database, "classify_large", step_size)
    lr_target = tolerance_target(min(lr_result.objective_trace()), tolerance)
    budget = budget_multiplier * lr_seconds
    result.rows.append(
        ScalabilityRow("LR", "bismarck", lr_seconds, budget, True)
    )

    # Newton converges in very few iterations; give it a short full run and
    # compare its wall-clock against the budget directly.
    start = time.perf_counter()
    newton = train_newton_logistic_regression(classify.examples, classify.dimension, iterations=6)
    newton_seconds = time.perf_counter() - start
    newton_completes = (
        newton_seconds <= budget and min(newton.objective_trace()) <= lr_target * 1.5
    )
    result.rows.append(
        ScalabilityRow("LR", "native_baseline", newton_seconds, budget, newton_completes)
    )

    svm_task = SVMTask(classify.dimension)
    svm_result, svm_seconds = bismarck_run(svm_task, database, "classify_large", step_size)
    svm_target = tolerance_target(min(svm_result.objective_trace()), tolerance)
    svm_budget = budget_multiplier * svm_seconds
    result.rows.append(ScalabilityRow("SVM", "bismarck", svm_seconds, svm_budget, True))

    # Batch subgradient SVM: run iterations until the target, the budget, or a
    # hard cap is reached (each "iteration" is one full pass over the data).
    # The per-iteration objective check is an engine loss *pass* — compiled
    # through the pass-plan layer and fanned out over the process backend when
    # the host has the cores for it — not an ad-hoc in-memory sum.
    from ..tasks.base import dot_product, scale_and_add
    import numpy as np

    eval_cores = available_cores()
    eval_backend = "process" if eval_cores >= 2 else "in_process"
    svm_baseline_task = SVMTask(classify.dimension)
    svm_weights = svm_baseline_task.initial_model()
    alpha = 0.005
    start = time.perf_counter()
    svm_completes = False
    svm_elapsed = 0.0
    for _ in range(200):
        gradient = np.zeros(classify.dimension)
        for example in classify.examples:
            if 1.0 - dot_product(svm_weights["w"], example.features) * example.label > 0:
                scale_and_add(gradient, example.features, -example.label)
        svm_weights["w"][...] -= alpha * gradient
        alpha *= 0.99
        objective = evaluate_model(
            database, "classify_large", svm_baseline_task, svm_weights,
            kind="loss", workers=eval_cores, backend=eval_backend,
        )
        svm_elapsed = time.perf_counter() - start
        if objective <= svm_target:
            svm_completes = True
            break
        if svm_elapsed >= svm_budget:
            break
    result.rows.append(
        ScalabilityRow("SVM", "native_baseline", svm_elapsed, svm_budget, svm_completes)
    )

    # --------------------------------------------------------------- LMF
    ratings = make_large_ratings(
        num_rows=max(400, scale.rating_rows * 4),
        num_cols=max(400, scale.rating_cols * 4),
        num_ratings=scale.num_ratings * 4,
        seed=seed,
    )
    mf_db = Database("postgres", seed=seed)
    load_ratings_table(mf_db, "matrix_large", ratings.examples)
    mf_task = LowRankMatrixFactorizationTask(ratings.num_rows, ratings.num_cols, rank=10, mu=0.01)
    mf_result, mf_seconds = bismarck_run(mf_task, mf_db, "matrix_large", 0.05)
    mf_target = tolerance_target(min(mf_result.objective_trace()), tolerance)
    mf_budget = budget_multiplier * mf_seconds
    result.rows.append(ScalabilityRow("LMF", "bismarck", mf_seconds, mf_budget, True))

    # Batch-gradient matrix factorisation, iterated until target/budget/cap.
    import numpy as np

    baseline_mf_task = LowRankMatrixFactorizationTask(
        ratings.num_rows, ratings.num_cols, rank=10, mu=0.01
    )
    mf_rng = np.random.default_rng(seed)
    left = mf_rng.normal(scale=0.1, size=(ratings.num_rows, 10))
    right = mf_rng.normal(scale=0.1, size=(ratings.num_cols, 10))
    start = time.perf_counter()
    completed = False
    elapsed = 0.0
    for _ in range(60):
        grad_left = baseline_mf_task.mu * left.copy()
        grad_right = baseline_mf_task.mu * right.copy()
        for example in ratings.examples:
            li = left[example.row]
            rj = right[example.col]
            residual = float(np.dot(li, rj)) - example.value
            grad_left[example.row] += residual * rj
            grad_right[example.col] += residual * li
        left -= 0.001 * grad_left
        right -= 0.001 * grad_right
        from ..core.model import Model

        objective = baseline_mf_task.full_objective(
            Model({"L": left, "R": right}), ratings.examples
        )
        elapsed = time.perf_counter() - start
        if objective <= mf_target:
            completed = True
            break
        if elapsed >= mf_budget:
            break
    result.rows.append(
        ScalabilityRow("LMF", "native_baseline", elapsed, mf_budget, completed)
    )

    # --------------------------------------------------------------- CRF
    corpus = make_large_sequences(
        num_sequences=scale.num_sequences * 3, num_labels=scale.sequence_labels + 1, seed=seed
    )
    crf_db = Database("postgres", seed=seed)
    load_sequences_table(crf_db, "dblp_like", corpus.examples)
    crf_task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
    crf_result, crf_seconds = bismarck_run(
        crf_task, crf_db, "dblp_like", {"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9}
    )
    crf_target = tolerance_target(min(crf_result.objective_trace()), tolerance)
    crf_budget = budget_multiplier * crf_seconds
    result.rows.append(ScalabilityRow("CRF", "bismarck", crf_seconds, crf_budget, True))

    start = time.perf_counter()
    crf_baseline = train_batch_crf(
        ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
        corpus.examples,
        step_size=0.5,
        iterations=max(4, int(budget_multiplier * epochs // 4)),
    )
    crf_elapsed = time.perf_counter() - start
    crf_completes = (
        crf_elapsed <= crf_budget and min(crf_baseline.objective_trace()) <= crf_target
    )
    result.rows.append(
        ScalabilityRow("CRF", "in_memory_baseline", crf_elapsed, crf_budget, crf_completes)
    )
    # Deterministic teardown: reap worker pools and arena segments now, not
    # at interpreter exit.
    for engine in (database, mf_db, crf_db):
        engine.close()
    return result
