"""Batch CRF trainer — the CRF++ / Mallet analogue for Figure 7(B).

CRF++ and Mallet train linear-chain CRFs with batch quasi-Newton methods:
every iteration runs forward–backward over the entire corpus before updating
the weights once.  We model that cost profile with full-batch gradient descent
(with a simple adaptive step), which reproduces the qualitative comparison of
Figure 7(B): the batch tool needs whole-corpus passes per update, while
Bismarck's IGD updates after every sequence.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.convergence import EpochRecord
from ..core.model import Model
from ..tasks.crf import ConditionalRandomFieldTask, SequenceExample
from .base import BaselineResult


def train_batch_crf(
    task: ConditionalRandomFieldTask,
    examples: Sequence[SequenceExample],
    *,
    step_size: float = 0.5,
    iterations: int = 50,
    step_decay: float = 0.98,
) -> BaselineResult:
    """Full-batch gradient descent on the CRF negative log-likelihood."""
    model = task.initial_model()
    history: list[EpochRecord] = []
    total_start = time.perf_counter()
    alpha = step_size
    num_examples = max(1, len(examples))

    for iteration in range(iterations):
        start = time.perf_counter()
        # Accumulate an approximate full-batch gradient by applying unit-step
        # IGD updates to a scratch copy and averaging the resulting
        # displacement; each CRF step is an "+ alpha * (empirical - expected)"
        # update, so the averaged displacement tracks the batch direction.
        scratch = model.copy()
        for example in examples:
            task.gradient_step(scratch, example, 1.0)
        direction = {
            name: (scratch[name] - model[name]) / num_examples for name, _ in model.items()
        }
        for name, array in model.items():
            array += alpha * direction[name]
        alpha *= step_decay

        objective = task.total_loss(model, examples)
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
        model=model,
        history=history,
        total_seconds=time.perf_counter() - total_start,
        name="batch_crf",
    )
