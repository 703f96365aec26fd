"""Seeded inputs and the numpy-only reference the engine's answers are checked against.

Nothing here imports ``repro``: the engine only ever sees the generated rows,
and the optimum ``f_opt`` that fixes each workload's target objective comes
from an independent solver over the raw arrays.  Each generator's docstring
says why it is not the repo's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Raw arrays of one generated classification problem.

    Dense: ``X`` is ``(n, d)``.  Sparse: ``idx``/``vals`` are rectangular
    ``(n, nnz)`` index/value blocks (every example has the same number of
    non-zeros), which keeps the reference solver vectorised without scipy.
    """

    dimension: int
    y: np.ndarray
    X: np.ndarray | None = None
    idx: np.ndarray | None = None
    vals: np.ndarray | None = None

    @property
    def sparse(self) -> bool:
        return self.X is None

    def __len__(self) -> int:
        return self.y.shape[0]

    def head(self, n: int) -> "Dataset":
        cut = lambda a: None if a is None else a[:n]  # noqa: E731
        return Dataset(self.dimension, self.y[:n], cut(self.X), cut(self.idx), cut(self.vals))

    def raw_row_bytes(self) -> int:
        """User bytes per row: id + label + the feature payload as float64/int64."""
        if self.sparse:
            return 16 + self.idx.shape[1] * 16
        return 16 + self.dimension * 8

    def rows(self, start: int = 0, stop: int | None = None) -> list[tuple]:
        """``(id, vec, label)`` tuples in the LabeledPapers layout."""
        stop = len(self) if stop is None else stop
        labels = self.y[start:stop].tolist()
        if self.sparse:
            indices = self.idx[start:stop].tolist()
            values = self.vals[start:stop].tolist()
            return [
                (start + i, dict(zip(indices[i], values[i])), labels[i])
                for i in range(stop - start)
            ]
        X = self.X
        return [(start + i, X[start + i], labels[i]) for i in range(stop - start)]


def make_dense(n: int, dimension: int, seed: int, *, separation: float, noise: float) -> Dataset:
    """Two Gaussian clouds along a random direction: ``make_dense_classification``'s
    distribution, drawn as arrays.

    The repo's generator was tried here (its examples stacked into ``X``).  It
    builds one small array per row, and the 38 000 freed arrays leave the heap
    in a seed-dependent state in which the run's peak RSS holds one more copy
    of ``X`` on some seeds than on others: ``peak_rss_mb`` read 254 or 267 MB
    on ``dense_serial`` (spread 5.0 % over ten seeds, 4.8 % on ``stream_sql``)
    against 0.1 % with this generator, whose only allocations are the arrays
    it returns.  Labels are drawn at random here, alternated and shuffled there.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = separation * y[:, None] * direction + noise * rng.normal(size=(n, dimension))
    return Dataset(dimension, y, X=X)


def make_sparse(n: int, dimension: int, seed: int, *, nnz: int = 25, flip: float = 0.1) -> Dataset:
    """Bag-of-words-like rows: ``nnz`` random features each, labels from a hidden
    weight vector (``make_sparse_classification``'s shape).

    Two deliberate differences from that generator.  A share ``flip`` of the
    labels is inverted, because without it these problems are linearly
    separable and have no finite optimum to aim at.  And there is no block of
    features common to every row: five always-on weights dominate the
    end-of-epoch objective noise (a chi-square with 5 degrees of freedom
    instead of ``dimension``), which made epochs-to-target differ from seed
    to seed.
    """
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=dimension)
    idx = rng.integers(0, dimension, size=(n, nnz))
    while True:  # redraw the rows that repeat an index
        ordered = np.sort(idx, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeats.size == 0:
            break
        idx[repeats] = rng.integers(0, dimension, size=(repeats.size, nnz))
    vals = rng.normal(loc=1.0, scale=1.0, size=(n, nnz))
    score = (hidden[idx] * vals).sum(axis=1) + rng.normal(scale=0.5, size=n)
    y = np.where(score > 0, 1.0, -1.0)
    y[rng.random(n) < flip] *= -1.0
    return Dataset(dimension, y, idx=idx, vals=vals)


def decisions(data: Dataset, w: np.ndarray) -> np.ndarray:
    if data.sparse:
        return (w[data.idx] * data.vals).sum(axis=1)
    return data.X @ w


def lr_objective(data: Dataset, w: np.ndarray) -> float:
    """``sum_i log(1 + exp(-y_i w.x_i))`` — the engine's LR objective."""
    return float(np.logaddexp(0.0, -data.y * decisions(data, w)).sum())


def _lr_value_and_gradient(data: Dataset, w: np.ndarray) -> tuple[float, np.ndarray]:
    margins = -data.y * decisions(data, w)
    value = float(np.logaddexp(0.0, margins).sum())
    # d/dw log(1+exp(m_i)) = sigmoid(m_i) * (-y_i x_i)
    coefficient = -data.y * np.exp(margins - np.logaddexp(0.0, margins))
    if data.sparse:
        gradient = np.bincount(
            data.idx.ravel(),
            weights=(data.vals * coefficient[:, None]).ravel(),
            minlength=data.dimension,
        )
    else:
        gradient = data.X.T @ coefficient
    return value, gradient


def solve_lr(
    data: Dataset, *, max_iterations: int = 400, tolerance: float = 1e-7, memory: int = 10
) -> tuple[np.ndarray, float, int]:
    """L-BFGS with Armijo backtracking; returns ``(w, f_opt, iterations)``.

    Stops when the gradient's sup-norm falls below ``tolerance`` per example
    or at ``max_iterations``.  Deterministic, so the same seed always yields
    the same ``f_opt`` and therefore the same target objective.
    """
    w = np.zeros(data.dimension)
    value, gradient = _lr_value_and_gradient(data, w)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    threshold = tolerance * len(data)
    iterations = 0
    while iterations < max_iterations and np.abs(gradient).max() > threshold:
        direction = -gradient
        alphas = []
        for s, t, rho in reversed(history):
            alpha = rho * (s @ direction)
            alphas.append(alpha)
            direction = direction - alpha * t
        if history:
            s, t, _ = history[-1]
            direction = direction * ((s @ t) / (t @ t))
        else:
            direction = direction / max(np.abs(gradient).max(), 1.0)
        for (s, t, rho), alpha in zip(history, reversed(alphas)):
            direction = direction + (alpha - rho * (t @ direction)) * s
        slope = gradient @ direction
        step = 1.0
        while True:
            candidate = w + step * direction
            new_value, new_gradient = _lr_value_and_gradient(data, candidate)
            if new_value <= value + 1e-4 * step * slope or step < 1e-12:
                break
            step *= 0.5
        s, t = candidate - w, new_gradient - gradient
        if s @ t > 1e-12:
            history.append((s, t, 1.0 / (s @ t)))
            del history[:-memory]
        if new_value >= value:  # no further progress at working precision
            iterations += 1
            break
        w, value, gradient = candidate, new_value, new_gradient
        iterations += 1
    return w, value, iterations
