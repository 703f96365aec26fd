"""Proximal-point operators (Appendix A).

The full IGD step rule with a regulariser or constraint ``P(w)`` is::

    w_{k+1} = prox_{alpha P}( w_k - alpha_k * grad f_eta(k)(w_k) )

where ``prox_{alpha P}(x) = argmin_w 0.5 ||x - w||^2 + alpha P(w)``.  When
``P`` is the indicator of a convex set the operator is the Euclidean
projection onto that set; for the L1 penalty it is soft-thresholding.  The
operators below cover everything the paper's task zoo needs: L1 and L2
regularisation (LR/SVM/Lasso), box constraints, the probability simplex
(portfolio optimisation) and the L2 ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model


class ProximalOperator:
    """Base class.  ``apply`` mutates the model component(s) in place."""

    #: Component names this operator applies to; None means every component.
    component: str | None = None

    def apply(self, model: Model, alpha: float) -> None:
        for name, array in model.items():
            if self.component is not None and name != self.component:
                continue
            array[...] = self.apply_to_array(array, alpha)

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        raise NotImplementedError

    def penalty(self, model: Model) -> float:
        """Value of P(w); zero for pure constraint sets whose constraint holds."""
        return 0.0


@dataclass
class IdentityProximal(ProximalOperator):
    """No regularisation / no constraint (P = 0)."""

    component: str | None = None

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        return array

    def penalty(self, model: Model) -> float:
        return 0.0


@dataclass
class L1Proximal(ProximalOperator):
    """Soft-thresholding: prox of ``mu * ||w||_1`` (the LR/SVM regulariser)."""

    mu: float
    component: str | None = None

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be non-negative")

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        threshold = alpha * self.mu
        return np.sign(array) * np.maximum(np.abs(array) - threshold, 0.0)

    def penalty(self, model: Model) -> float:
        total = 0.0
        for name, array in model.items():
            if self.component is None or name == self.component:
                total += float(np.abs(array).sum())
        return self.mu * total


@dataclass
class L2Proximal(ProximalOperator):
    """Prox of ``(mu / 2) * ||w||_2^2`` — multiplicative shrinkage."""

    mu: float
    component: str | None = None

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be non-negative")

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        return array / (1.0 + alpha * self.mu)

    def penalty(self, model: Model) -> float:
        total = 0.0
        for name, array in model.items():
            if self.component is None or name == self.component:
                total += float(np.sum(array * array))
        return 0.5 * self.mu * total


@dataclass
class BoxProjection(ProximalOperator):
    """Projection onto the box ``[lower, upper]^d``."""

    lower: float = 0.0
    upper: float = 1.0
    component: str | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        return np.clip(array, self.lower, self.upper)


@dataclass
class L2BallProjection(ProximalOperator):
    """Projection onto the Euclidean ball of the given radius."""

    radius: float = 1.0
    component: str | None = None

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        norm = float(np.linalg.norm(array))
        if norm <= self.radius or norm == 0.0:
            return array
        return array * (self.radius / norm)


@dataclass
class SimplexProjection(ProximalOperator):
    """Projection onto the probability simplex ``{w : w >= 0, sum w = z}``.

    Used by the portfolio-optimisation task, whose allocations must lie in the
    simplex Delta (Figure 1B).  Implements the standard sort-based algorithm.
    """

    z: float = 1.0
    component: str | None = None

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise ValueError("simplex scale z must be positive")

    def apply_to_array(self, array: np.ndarray, alpha: float) -> np.ndarray:
        return project_to_simplex(array, self.z)


def project_to_simplex(vector: np.ndarray, z: float = 1.0) -> np.ndarray:
    """Euclidean projection of ``vector`` onto the simplex of mass ``z``."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError("simplex projection expects a 1-D vector")
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - z
    indices = np.arange(1, vector.size + 1)
    candidates = sorted_desc - cumulative / indices
    rho = int(np.nonzero(candidates > 0)[0][-1]) + 1
    theta = cumulative[rho - 1] / rho
    return np.maximum(vector - theta, 0.0)


@dataclass
class ComposedProximal(ProximalOperator):
    """Apply several proximal operators in sequence (e.g. L1 then a box)."""

    operators: tuple[ProximalOperator, ...] = ()

    def __init__(self, *operators: ProximalOperator):
        self.operators = tuple(operators)

    def apply(self, model: Model, alpha: float) -> None:
        for op in self.operators:
            op.apply(model, alpha)

    def penalty(self, model: Model) -> float:
        return sum(op.penalty(model) for op in self.operators)
