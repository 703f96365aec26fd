"""Batch subgradient SVM baseline (native-tool analogue for classification).

Commercial in-database SVM tools (e.g. Oracle's SVM [Milenova et al.]) solve
the full problem with batch solvers; we model them with full-batch subgradient
descent over the hinge loss, whose per-iteration cost is one pass over the
data for a single parameter update.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.base import SupervisedExample, dot_product, scale_and_add
from ..tasks.svm import SVMTask
from .base import BaselineResult


def train_batch_svm(
    task: SVMTask,
    examples: Sequence[SupervisedExample],
    *,
    step_size: float = 0.01,
    iterations: int = 100,
    step_decay: float = 0.99,
) -> BaselineResult:
    """Full-batch subgradient descent on the hinge loss."""
    model = task.initial_model()
    weights = model["w"]
    history: list[EpochRecord] = []
    total_start = time.perf_counter()
    alpha = step_size

    for iteration in range(iterations):
        start = time.perf_counter()
        gradient = np.zeros_like(weights)
        for example in examples:
            wx = dot_product(weights, example.features)
            if 1.0 - wx * example.label > 0:
                scale_and_add(gradient, example.features, -example.label)
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
        name="batch_svm",
    )
