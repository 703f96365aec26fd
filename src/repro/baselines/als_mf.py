"""Alternating least squares (ALS) matrix factorisation baseline.

Stands in for the matrix-factorisation implementations in MADlib and the
commercial tools the paper compares against.  Each ALS iteration solves a
ridge-regularised least-squares system per row and per column — super-linear
work per pass compared to the LMF task's single SGD step per observed entry,
which is why the paper reports Bismarck being orders of magnitude faster on
this task.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask, RatingExample
from .base import BaselineResult


def train_als_matrix_factorization(
    task: LowRankMatrixFactorizationTask,
    examples: Sequence[RatingExample],
    *,
    iterations: int = 20,
    ridge: float | None = None,
    seed: int | None = 0,
) -> BaselineResult:
    """Factorise the observed entries with alternating least squares."""
    ridge = task.mu if ridge is None else ridge
    rng = np.random.default_rng(seed)
    rank = task.rank
    left = rng.normal(scale=0.1, size=(task.num_rows, rank))
    right = rng.normal(scale=0.1, size=(task.num_cols, rank))

    by_row: dict[int, list[RatingExample]] = defaultdict(list)
    by_col: dict[int, list[RatingExample]] = defaultdict(list)
    for example in examples:
        by_row[example.row].append(example)
        by_col[example.col].append(example)

    history: list[EpochRecord] = []
    total_start = time.perf_counter()
    eye = np.eye(rank)

    for iteration in range(iterations):
        start = time.perf_counter()
        # Solve for every row factor with column factors fixed.
        for row, observed in by_row.items():
            design = np.stack([right[example.col] for example in observed])
            targets = np.array([example.value for example in observed])
            gram = design.T @ design + (ridge * len(observed) + 1e-9) * eye
            left[row] = np.linalg.solve(gram, design.T @ targets)
        # Solve for every column factor with row factors fixed.
        for col, observed in by_col.items():
            design = np.stack([left[example.row] for example in observed])
            targets = np.array([example.value for example in observed])
            gram = design.T @ design + (ridge * len(observed) + 1e-9) * eye
            right[col] = np.linalg.solve(gram, design.T @ targets)

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
        name="als_mf",
    )
