"""Full-batch (sub)gradient descent baseline.

A traditional gradient method must touch every data item to take a single
step (Section 2.2 of the paper).  This baseline implements that behaviour for
any linear-model task (LR, SVM, least squares, lasso): each iteration computes
the full-batch gradient and takes one step, so its per-iteration cost equals a
whole IGD epoch while making far less progress per pass.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.base import LinearModelTask, SupervisedExample, dot_product, scale_and_add
from ..tasks.logistic_regression import LogisticRegressionTask, sigmoid
from ..tasks.svm import SVMTask
from .base import BaselineResult


def _batch_gradient(
    task: LinearModelTask, weights: np.ndarray, examples: Sequence[SupervisedExample]
) -> np.ndarray:
    """Analytic full-batch (sub)gradient for the supported linear-model tasks."""
    gradient = np.zeros_like(weights)
    if isinstance(task, LogisticRegressionTask):
        for example in examples:
            wx = dot_product(weights, example.features)
            coefficient = -example.label * sigmoid(-wx * example.label)
            scale_and_add(gradient, example.features, coefficient)
        return gradient
    if isinstance(task, SVMTask):
        for example in examples:
            wx = dot_product(weights, example.features)
            if 1.0 - wx * example.label > 0:
                scale_and_add(gradient, example.features, -example.label)
        return gradient
    # Least-squares family (LinearRegressionTask, LassoTask, 1-D variant).
    for example in examples:
        residual = dot_product(weights, example.features) - example.label
        scale_and_add(gradient, example.features, residual)
    return gradient


def train_batch_gradient_descent(
    task: LinearModelTask,
    examples: Sequence[SupervisedExample],
    *,
    step_size: float = 0.01,
    iterations: int = 100,
    step_decay: float = 1.0,
) -> BaselineResult:
    """Train a linear-model task with full-batch gradient descent."""
    if not isinstance(task, LinearModelTask):
        raise TypeError("batch gradient descent baseline supports linear-model tasks only")
    model = task.initial_model()
    weights = model["w"]
    history: list[EpochRecord] = []
    total_start = time.perf_counter()
    alpha = step_size

    for iteration in range(iterations):
        start = time.perf_counter()
        gradient = _batch_gradient(task, weights, examples)
        weights -= alpha * gradient
        task.proximal.apply(model, alpha)
        alpha *= step_decay

        objective = task.total_loss(model, examples) + task.proximal.penalty(model)
        history.append(
            EpochRecord(
                epoch=iteration,
                objective=objective,
                elapsed_seconds=time.perf_counter() - start,
                gradient_steps=(iteration + 1) * len(examples),
                model_norm=float(np.linalg.norm(weights)),
            )
        )

    return BaselineResult(
        model=model,
        history=history,
        total_seconds=time.perf_counter() - total_start,
        name=f"batch_gd[{task.name}]",
    )
