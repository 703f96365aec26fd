"""Sparse rating matrices standing in for MovieLens and Matrix5B.

The MovieLens benchmark (6k users x 4k movies, 1M ratings) is replaced by a
generator producing a low-rank-plus-noise rating matrix observed on a sparse
random set of cells, which is exactly the structure the LMF task needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tasks.matrix_factorization import RatingExample


@dataclass(frozen=True)
class RatingsDataset:
    """Observed entries of a partially observed low-rank matrix."""

    examples: list[RatingExample]
    num_rows: int
    num_cols: int
    true_rank: int
    name: str = "movielens_like"

    def __len__(self) -> int:
        return len(self.examples)

    def density(self) -> float:
        return len(self.examples) / float(self.num_rows * self.num_cols)

    def approximate_bytes(self) -> int:
        return len(self.examples) * 20


def make_ratings(
    num_rows: int = 300,
    num_cols: int = 200,
    num_ratings: int = 6000,
    *,
    rank: int = 5,
    noise: float = 0.1,
    seed: int | None = 0,
    name: str = "movielens_like",
) -> RatingsDataset:
    """Generate a rank-``rank`` matrix observed on ``num_ratings`` random cells."""
    if num_rows <= 1 or num_cols <= 1:
        raise ValueError("matrix dimensions must be at least 2x2")
    if num_ratings <= 0:
        raise ValueError("num_ratings must be positive")
    max_cells = num_rows * num_cols
    num_ratings = min(num_ratings, max_cells)
    rng = np.random.default_rng(seed)
    left = rng.normal(scale=1.0, size=(num_rows, rank))
    right = rng.normal(scale=1.0, size=(num_cols, rank))
    chosen = rng.choice(max_cells, size=num_ratings, replace=False)
    examples: list[RatingExample] = []
    for cell in chosen:
        row, col = divmod(int(cell), num_cols)
        value = float(np.dot(left[row], right[col]) + noise * rng.normal())
        examples.append(RatingExample(row=row, col=col, value=value))
    return RatingsDataset(
        examples=examples,
        num_rows=num_rows,
        num_cols=num_cols,
        true_rank=rank,
        name=name,
    )


def make_large_ratings(
    num_rows: int = 2000,
    num_cols: int = 2000,
    num_ratings: int = 40000,
    *,
    rank: int = 10,
    seed: int | None = 11,
) -> RatingsDataset:
    """Scaled-down analogue of Matrix5B for the scalability experiment."""
    return make_ratings(
        num_rows=num_rows,
        num_cols=num_cols,
        num_ratings=num_ratings,
        rank=rank,
        noise=0.2,
        seed=seed,
        name="matrix_large",
    )
