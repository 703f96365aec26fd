"""Batch-gradient matrix factorisation — the 'native tool' LMF baseline.

The in-RDBMS matrix-factorisation implementations the paper compares against
(MADlib's and DBMS B's native tools, circa 2012) recompute a full gradient
over every observed entry before each parameter update; the paper reports them
as *orders of magnitude* slower than Bismarck's per-entry SGD.  This baseline
reproduces that implementation style: one full pass per update, so progress
per tuple touched is far lower than IGD's.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask, RatingExample
from .base import BaselineResult


def train_batch_matrix_factorization(
    task: LowRankMatrixFactorizationTask,
    examples: Sequence[RatingExample],
    *,
    step_size: float = 0.001,
    iterations: int = 50,
    seed: int | None = 0,
) -> BaselineResult:
    """Full-batch gradient descent on the observed-entry squared error."""
    rng = np.random.default_rng(seed)
    left = rng.normal(scale=0.1, size=(task.num_rows, task.rank))
    right = rng.normal(scale=0.1, size=(task.num_cols, task.rank))
    history: list[EpochRecord] = []
    total_start = time.perf_counter()

    for iteration in range(iterations):
        start = time.perf_counter()
        grad_left = task.mu * left.copy()
        grad_right = task.mu * right.copy()
        for example in examples:
            li = left[example.row]
            rj = right[example.col]
            residual = float(np.dot(li, rj)) - example.value
            grad_left[example.row] += residual * rj
            grad_right[example.col] += residual * li
        left -= step_size * grad_left
        right -= step_size * grad_right

        model = Model({"L": left.copy(), "R": right.copy()})
        objective = task.full_objective(model, examples)
        history.append(
            EpochRecord(
                epoch=iteration,
                objective=objective,
                elapsed_seconds=time.perf_counter() - start,
                gradient_steps=(iteration + 1) * len(examples),
                model_norm=model.norm(),
            )
        )

    return BaselineResult(
        model=Model({"L": left, "R": right}),
        history=history,
        total_seconds=time.perf_counter() - total_start,
        name="batch_mf",
    )
