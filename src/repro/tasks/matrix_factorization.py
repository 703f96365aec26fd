"""Low-rank matrix factorisation (the "LMF" recommendation task).

Objective (Figure 1B): ``sum_{(i,j) in Omega} (L_i . R_j - M_ij)^2 +
mu * ||L, R||_F^2`` where ``M`` is observed only on the sparse index set
``Omega``.  The problem is not convex, but — as the paper notes — IGD still
solves it well in practice (this is the Gemulla-style SGD matrix
factorisation).  Each training example is a single observed entry
``(i, j, M_ij)``, so the data-access pattern is exactly one tuple per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, ProximalOperator
from ..db.types import Row
from .base import Task


@dataclass(frozen=True)
class RatingExample:
    """One observed matrix entry."""

    row: int
    col: int
    value: float


class RatingBatch:
    """Columnar block of observed matrix entries (the LMF ExampleBatch)."""

    __slots__ = ("rows", "cols", "values", "length")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        self.rows = rows
        self.cols = cols
        self.values = values
        self.length = int(values.shape[0])

    def __len__(self) -> int:
        return self.length

    def take(self, indices) -> "RatingBatch":
        """Entry gather: the observed entries at ``indices``, in that order."""
        ordinals = np.asarray(indices, dtype=np.intp)
        return RatingBatch(self.rows[ordinals], self.cols[ordinals], self.values[ordinals])

    @classmethod
    def concat(cls, batches: "list[RatingBatch]") -> "RatingBatch":
        if len(batches) == 1:
            return batches[0]
        return cls(
            np.concatenate([batch.rows for batch in batches]),
            np.concatenate([batch.cols for batch in batches]),
            np.concatenate([batch.values for batch in batches]),
        )


class LowRankMatrixFactorizationTask(Task):
    """Factorise a partially observed matrix M ~ L @ R.T with rank ``rank``."""

    name = "low_rank_matrix_factorization"
    supports_batches = True

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        rank: int = 10,
        *,
        mu: float = 0.01,
        init_scale: float = 0.1,
        row_column: str = "row_id",
        col_column: str = "col_id",
        value_column: str = "rating",
        proximal: ProximalOperator | None = None,
    ):
        super().__init__(proximal)
        if num_rows <= 0 or num_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if rank <= 0:
            raise ValueError("rank must be positive")
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.rank = rank
        self.mu = mu
        self.init_scale = init_scale
        self.row_column = row_column
        self.col_column = col_column
        self.value_column = value_column

    # -------------------------------------------------------------- interface
    def initial_model(self, rng: np.random.Generator | None = None) -> Model:
        """Random small factors: zero init would be a saddle point."""
        rng = rng or np.random.default_rng(0)
        left = rng.normal(scale=self.init_scale, size=(self.num_rows, self.rank))
        right = rng.normal(scale=self.init_scale, size=(self.num_cols, self.rank))
        return Model({"L": left, "R": right})

    def example_from_row(self, row: Row | Mapping[str, Any]) -> RatingExample:
        return RatingExample(
            row=int(row[self.row_column]),
            col=int(row[self.col_column]),
            value=float(row[self.value_column]),
        )

    def gradient_step(self, model: Model, example: RatingExample, alpha: float) -> None:
        left = model["L"]
        right = model["R"]
        li = left[example.row]
        rj = right[example.col]
        residual = float(np.dot(li, rj)) - example.value
        # Simultaneous update using the current (pre-update) factors.
        li_new = li - alpha * (residual * rj + self.mu * li)
        rj_new = rj - alpha * (residual * li + self.mu * rj)
        left[example.row] = li_new
        right[example.col] = rj_new

    def loss(self, model: Model, example: RatingExample) -> float:
        predicted = float(np.dot(model["L"][example.row], model["R"][example.col]))
        residual = predicted - example.value
        return residual * residual

    def predict(self, model: Model, example: RatingExample) -> float:
        return float(np.dot(model["L"][example.row], model["R"][example.col]))

    # ----------------------------------------------------------- batched API
    def batch_from_chunk(self, chunk) -> RatingBatch | None:
        rows = chunk.column(self.row_column)
        cols = chunk.column(self.col_column)
        values = chunk.column(self.value_column)
        if rows.dtype == object or cols.dtype == object or values.dtype == object:
            return None
        return RatingBatch(
            np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
            np.asarray(values, dtype=np.float64),
        )

    def batch_loss(self, model: Model, batch: RatingBatch) -> float:
        predicted = np.einsum(
            "ij,ij->i", model["L"][batch.rows], model["R"][batch.cols]
        )
        residuals = predicted - batch.values
        return float(np.sum(residuals * residuals))

    def igd_chunk(
        self, model: Model, batch: RatingBatch, alphas: np.ndarray, proximal: ProximalOperator
    ) -> None:
        left = model["L"]
        right = model["R"]
        mu = self.mu
        rows, cols, values = batch.rows, batch.cols, batch.values
        apply_proximal = not isinstance(proximal, IdentityProximal)
        for i in range(batch.length):
            r = rows[i]
            c = cols[i]
            li = left[r]
            rj = right[c]
            residual = float(np.dot(li, rj)) - values[i]
            alpha = alphas[i]
            # Simultaneous update using the current (pre-update) factors.
            li_new = li - alpha * (residual * rj + mu * li)
            rj_new = rj - alpha * (residual * li + mu * rj)
            left[r] = li_new
            right[c] = rj_new
            if apply_proximal:
                proximal.apply(model, alpha)

    # ---------------------------------------------------------------- helpers
    def regularization_penalty(self, model: Model) -> float:
        """The ``mu * ||L, R||_F^2`` term of the full objective."""
        left = model["L"]
        right = model["R"]
        return self.mu * float(np.sum(left * left) + np.sum(right * right))

    def full_objective(self, model: Model, examples) -> float:
        """Data term plus the Frobenius regulariser."""
        return self.total_loss(model, examples) + self.regularization_penalty(model)

    def reconstruction_rmse(self, model: Model, examples) -> float:
        examples = list(examples)
        if not examples:
            return 0.0
        squared = sum(self.loss(model, example) for example in examples)
        return float(np.sqrt(squared / len(examples)))
