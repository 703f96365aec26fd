"""Linear support vector machine task (the "SVM" of the paper).

Objective: ``sum_i (1 - y_i * w . x_i)_+ + mu * ||w||_1`` with labels in
``{-1, +1}``.  The incremental (sub)gradient step is the second C snippet from
Figure 4:

.. code-block:: c

    wx = Dot_Product(w, e.x);
    c  = stepsize * e.y;
    if (1 - wx * e.y > 0) { Scale_And_Add(w, e.x, c); }
"""

from __future__ import annotations

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, L1Proximal, ProximalOperator
from ..db.chunk_plan import visit_rows
from .base import ExampleBatch, LinearModelTask, SupervisedExample, dot_product, scale_and_add


class SVMTask(LinearModelTask):
    """Linear SVM trained with the incremental hinge-loss subgradient."""

    name = "svm"

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
        if 1.0 - wx * example.label > 0.0:
            scale_and_add(w, example.features, alpha * example.label)

    def loss(self, model: Model, example: SupervisedExample) -> float:
        wx = dot_product(model["w"], example.features)
        return max(0.0, 1.0 - example.label * wx)

    def predict(self, model: Model, example: SupervisedExample) -> float:
        """Signed decision value ``w . x``."""
        return dot_product(model["w"], example.features)

    def classify(self, model: Model, example: SupervisedExample) -> int:
        return 1 if self.predict(model, example) >= 0.0 else -1

    # ----------------------------------------------------------- batched API
    def batch_loss(self, model: Model, batch: ExampleBatch) -> float:
        decisions = batch.decision_values(model["w"])
        return float(np.sum(np.maximum(0.0, 1.0 - batch.y * decisions)))

    def igd_chunk(
        self, model: Model, batch: ExampleBatch, alphas: np.ndarray, proximal: ProximalOperator
    ) -> None:
        w = model["w"]
        apply_proximal = not isinstance(proximal, IdentityProximal)
        for alpha, (source, i) in zip(alphas, visit_rows(batch)):
            label = source.y[i]
            if source.kind == "dense":
                x = source.X[i]
                if 1.0 - float(np.dot(w, x)) * label > 0.0:
                    w += alpha * label * x
            else:
                lo, hi = source.indptr[i], source.indptr[i + 1]
                indices, values = source.indices[lo:hi], source.data[lo:hi]
                if hi > lo and 1.0 - float(np.dot(w[indices], values)) * label > 0.0:
                    w[indices] += alpha * label * values
            if apply_proximal:
                proximal.apply(model, alpha)

    def minibatch_step(
        self, model: Model, batch: ExampleBatch, start: int, stop: int, alpha: float
    ) -> None:
        w = model["w"]
        y = batch.y[start:stop]
        decisions = batch.decision_values(w, start, stop)
        subgradients = np.where(1.0 - decisions * y > 0.0, y, 0.0)
        batch.add_scaled_rows(w, (alpha / (stop - start)) * subgradients, start, stop)
