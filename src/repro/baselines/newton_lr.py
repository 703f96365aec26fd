"""IRLS / Newton logistic regression — the MADlib-style LR baseline.

MADlib's logistic regression (and the commercial tools' equivalents) use
iteratively reweighted least squares implemented as an in-database aggregate:
every iteration scans the data once and, **per tuple**, accumulates the
gradient and the d x d Hessian contribution ``p(1-p) * x x^T`` before solving
a d x d system.  The per-iteration cost is therefore O(N d^2 + d^3) — super-
linear in the dimension, which is exactly the reason the paper gives for
Bismarck's speed advantage on LR ("the algorithms in MADlib for LR are
super-linear in the dimension").
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.base import SupervisedExample, sparse_arrays
from ..tasks.logistic_regression import LogisticRegressionTask
from .base import BaselineResult


def _densify(features, dimension: int) -> np.ndarray:
    if isinstance(features, Mapping):
        dense = np.zeros(dimension)
        indices, values = sparse_arrays(features)
        dense[indices] = values
        return dense
    return np.asarray(features, dtype=np.float64)


def train_newton_logistic_regression(
    examples: Sequence[SupervisedExample],
    dimension: int,
    *,
    iterations: int = 25,
    ridge: float = 1e-6,
    tolerance: float = 1e-8,
) -> BaselineResult:
    """Train LR by Newton/IRLS iterations."""
    task = LogisticRegressionTask(dimension)
    weights = np.zeros(dimension)
    history: list[EpochRecord] = []
    total_start = time.perf_counter()

    # IRLS costs O(N d^2 + d^3) arithmetic per iteration; it is batched here
    # so the harness measures that rather than Python loop overhead.
    if examples:
        features_matrix = np.stack(
            [_densify(example.features, dimension) for example in examples]
        )
    else:
        features_matrix = np.zeros((0, dimension))
    labels = np.fromiter(
        (example.label for example in examples), dtype=np.float64, count=len(examples)
    )

    for iteration in range(iterations):
        start = time.perf_counter()
        # One scan of the data; per tuple: O(d) for the gradient, O(d^2) for
        # the Hessian rank-one update (the MADlib IRLS transition function).
        margins = labels * (features_matrix @ weights)
        probabilities = 1.0 / (1.0 + np.exp(np.clip(margins, -35, 35)))
        gradient = -(labels * probabilities) @ features_matrix
        hessian_weights = probabilities * (1.0 - probabilities)
        hessian = ridge * np.eye(dimension) + features_matrix.T @ (
            hessian_weights[:, None] * features_matrix
        )
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
        weights = weights - step

        model = Model({"w": weights.copy()})
        objective = task.total_loss(model, examples)
        history.append(
            EpochRecord(
                epoch=iteration,
                objective=objective,
                elapsed_seconds=time.perf_counter() - start,
                gradient_steps=(iteration + 1) * len(examples),
                model_norm=float(np.linalg.norm(weights)),
            )
        )
        if float(np.linalg.norm(step)) < tolerance:
            break

    return BaselineResult(
        model=Model({"w": weights}),
        history=history,
        total_seconds=time.perf_counter() - total_start,
        name="newton_lr",
    )
