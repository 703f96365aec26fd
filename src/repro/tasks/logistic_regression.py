"""Logistic regression task (the "LR" of the paper).

Objective: ``sum_i log(1 + exp(-y_i * w . x_i)) + mu * ||w||_1`` with labels
``y_i in {-1, +1}``.  The gradient step is the C snippet from Figure 4 of the
paper, transcribed:

.. code-block:: c

    wx  = Dot_Product(w, e.x);
    sig = Sigmoid(-wx * e.y);
    c   = stepsize * e.y * sig;
    Scale_And_Add(w, e.x, c);
"""

from __future__ import annotations

import math

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, L1Proximal, ProximalOperator
from ..db.chunk_plan import visit_rows
from .base import ExampleBatch, LinearModelTask, SupervisedExample, dot_product, scale_and_add


def sigmoid(value: float) -> float:
    """Numerically stable logistic function."""
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    exp_value = math.exp(value)
    return exp_value / (1.0 + exp_value)


def log1p_exp(value: float) -> float:
    """Numerically stable ``log(1 + exp(value))``."""
    if value > 35.0:
        return value
    if value < -35.0:
        return 0.0
    return math.log1p(math.exp(value))


def sigmoid_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sigmoid` with the same stable branch structure."""
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_values = np.exp(values[~positive])
    out[~positive] = exp_values / (1.0 + exp_values)
    return out


def log1p_exp_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`log1p_exp` with the same clamping thresholds."""
    out = np.where(values > 35.0, values, 0.0)
    middle = (values <= 35.0) & (values >= -35.0)
    out[middle] = np.log1p(np.exp(values[middle]))
    return out


class LogisticRegressionTask(LinearModelTask):
    """Binary logistic regression with optional L1 regularisation."""

    name = "logistic_regression"

    def __init__(
        self,
        dimension: int,
        *,
        mu: float = 0.0,
        feature_column: str = "vec",
        label_column: str = "label",
        proximal: ProximalOperator | None = None,
    ):
        if proximal is None and mu > 0:
            proximal = L1Proximal(mu)
        super().__init__(
            dimension,
            feature_column=feature_column,
            label_column=label_column,
            proximal=proximal,
        )
        self.mu = mu

    def gradient_step(self, model: Model, example: SupervisedExample, alpha: float) -> None:
        w = model["w"]
        wx = dot_product(w, example.features)
        sig = sigmoid(-wx * example.label)
        c = alpha * example.label * sig
        scale_and_add(w, example.features, c)

    def loss(self, model: Model, example: SupervisedExample) -> float:
        wx = dot_product(model["w"], example.features)
        return log1p_exp(-example.label * wx)

    def predict(self, model: Model, example: SupervisedExample) -> float:
        """Probability that the label is +1."""
        wx = dot_product(model["w"], example.features)
        return sigmoid(wx)

    def classify(self, model: Model, example: SupervisedExample) -> int:
        """Hard label in {-1, +1}."""
        return 1 if self.predict(model, example) >= 0.5 else -1

    # ----------------------------------------------------------- batched API
    def batch_loss(self, model: Model, batch: ExampleBatch) -> float:
        decisions = batch.decision_values(model["w"])
        return float(np.sum(log1p_exp_array(-batch.y * decisions)))

    def batch_classify_decisions(self, decisions: np.ndarray) -> np.ndarray:
        # Mirror the scalar classify threshold (sigmoid(wx) >= 0.5) exactly:
        # for wx an ulp below zero the rounded sigmoid can still equal 0.5,
        # where a plain wx >= 0 test would disagree with the per-tuple path.
        return np.where(sigmoid_array(decisions) >= 0.5, 1, -1)

    def igd_chunk(
        self, model: Model, batch: ExampleBatch, alphas: np.ndarray, proximal: ProximalOperator
    ) -> None:
        w = model["w"]
        apply_proximal = not isinstance(proximal, IdentityProximal)
        for alpha, (source, i) in zip(alphas, visit_rows(batch)):
            label = source.y[i]
            if source.kind == "dense":
                x = source.X[i]
                w += alpha * label * sigmoid(-float(np.dot(w, x)) * label) * x
            else:
                lo, hi = source.indptr[i], source.indptr[i + 1]
                if hi > lo:  # an empty sparse row changes nothing
                    indices, values = source.indices[lo:hi], source.data[lo:hi]
                    wx = float(np.dot(w[indices], values))
                    w[indices] += alpha * label * sigmoid(-wx * label) * values
            if apply_proximal:
                proximal.apply(model, alpha)

    def minibatch_step(
        self, model: Model, batch: ExampleBatch, start: int, stop: int, alpha: float
    ) -> None:
        w = model["w"]
        y = batch.y[start:stop]
        decisions = batch.decision_values(w, start, stop)
        gradients = y * sigmoid_array(-decisions * y)
        batch.add_scaled_rows(w, (alpha / (stop - start)) * gradients, start, stop)
