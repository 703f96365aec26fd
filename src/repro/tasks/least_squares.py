"""Least-squares tasks, including the paper's 1-D CA-TX example.

Example 2.1 / 3.1 of the paper uses the simplest possible least-squares
problem — ``min_w 0.5 * sum_i (w * x_i - y_i)^2`` with all ``x_i = 1`` and the
labels split half +1 / half -1 — to show how clustered orderings slow IGD
down.  :class:`OneDimensionalLeastSquares` implements exactly that problem,
and :func:`catx_closed_form_iterates` reproduces the closed-form dynamics from
Appendix C so tests can cross-check the simulated IGD against theory.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, ProximalOperator
from ..db.types import Row
from ..db.chunk_plan import visit_rows
from .base import ExampleBatch, LinearModelTask, SupervisedExample, dot_product, scale_and_add


def _squared_error_batch_loss(task: LinearModelTask, model: Model, batch: ExampleBatch) -> float:
    residuals = batch.decision_values(model["w"]) - batch.y
    return float(0.5 * np.sum(residuals * residuals))


def _squared_error_igd_chunk(
    task: LinearModelTask,
    model: Model,
    batch: ExampleBatch,
    alphas: np.ndarray,
    proximal: ProximalOperator,
) -> None:
    w = model["w"]
    apply_proximal = not isinstance(proximal, IdentityProximal)
    for alpha, (source, i) in zip(alphas, visit_rows(batch)):
        if source.kind == "dense":
            x = source.X[i]
            w += -(alpha * (float(np.dot(w, x)) - source.y[i])) * x
        else:
            lo, hi = source.indptr[i], source.indptr[i + 1]
            if hi > lo:  # an empty sparse row changes nothing
                indices, values = source.indices[lo:hi], source.data[lo:hi]
                wx = float(np.dot(w[indices], values))
                w[indices] += -(alpha * (wx - source.y[i])) * values
        if apply_proximal:
            proximal.apply(model, alpha)


class OneDimensionalLeastSquares(LinearModelTask):
    """``f_i(w) = 0.5 * (w * x_i - y_i)^2`` with scalar w (the CA-TX problem)."""

    name = "least_squares_1d"

    def __init__(
        self,
        *,
        feature_column: str = "x",
        label_column: str = "y",
        proximal: ProximalOperator | None = None,
    ):
        super().__init__(
            1, feature_column=feature_column, label_column=label_column, proximal=proximal
        )

    def example_from_row(self, row: Row | Mapping[str, Any]) -> SupervisedExample:
        return SupervisedExample(float(row[self.feature_column]), float(row[self.label_column]))

    def gradient_step(self, model: Model, example: SupervisedExample, alpha: float) -> None:
        w = model["w"]
        x = float(example.features)
        residual = w[0] * x - example.label
        w[0] -= alpha * residual * x

    def loss(self, model: Model, example: SupervisedExample) -> float:
        w = model["w"]
        x = float(example.features)
        residual = w[0] * x - example.label
        return 0.5 * residual * residual

    def predict(self, model: Model, example: SupervisedExample) -> float:
        return float(model["w"][0] * float(example.features))

    # ------------------------------------------------- batched API (scalar x)
    batch_loss = _squared_error_batch_loss
    igd_chunk = _squared_error_igd_chunk


class LinearRegressionTask(LinearModelTask):
    """General d-dimensional least squares: ``f_i(w) = 0.5 * (w.x_i - y_i)^2``."""

    name = "least_squares"

    def gradient_step(self, model: Model, example: SupervisedExample, alpha: float) -> None:
        w = model["w"]
        residual = dot_product(w, example.features) - example.label
        scale_and_add(w, example.features, -alpha * residual)

    def loss(self, model: Model, example: SupervisedExample) -> float:
        residual = dot_product(model["w"], example.features) - example.label
        return 0.5 * residual * residual

    def predict(self, model: Model, example: SupervisedExample) -> float:
        return dot_product(model["w"], example.features)

    # ----------------------------------------------------------- batched API
    batch_loss = _squared_error_batch_loss
    igd_chunk = _squared_error_igd_chunk


def catx_closed_form_iterates(
    labels: Sequence[float], w0: float, alpha: float
) -> np.ndarray:
    """Closed-form IGD iterates for the CA-TX problem (Appendix C).

    Given a fixed visit order encoded by ``labels`` (the label of the example
    seen at each step) and a constant step size ``alpha``, the dynamical
    system ``w_{k+1} = w_k - alpha * (w_k - y_{sigma(k)})`` unfolds to::

        w_{k+1} = (1 - alpha)^{k+1} w_0 + alpha * sum_{j=0..k} (1-alpha)^{k-j} y_{sigma(j)}

    Returns the array ``[w_0, w_1, ..., w_m]`` of length ``len(labels) + 1``.
    """
    labels = np.asarray(labels, dtype=np.float64)
    iterates = np.empty(labels.size + 1)
    iterates[0] = w0
    w = float(w0)
    for k, y in enumerate(labels):
        w = w - alpha * (w - float(y))
        iterates[k + 1] = w
    return iterates


def catx_closed_form_final(labels: Sequence[float], w0: float, alpha: float) -> float:
    """Direct evaluation of the unfolded closed form (no recursion).

    Used by tests to verify that the recursive simulation and the analytic
    expression from Appendix C agree.
    """
    labels = np.asarray(labels, dtype=np.float64)
    k = labels.size
    powers = (1.0 - alpha) ** np.arange(k - 1, -1, -1)
    return float((1.0 - alpha) ** k * w0 + alpha * np.dot(powers, labels))
