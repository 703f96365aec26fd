"""Step-size schedules for incremental gradient descent (Appendix B).

The paper notes that real systems typically use a constant step size or a
simple decaying rule, while the convergence proofs require either the
*divergent series* rule (``alpha_k -> 0`` with ``sum alpha_k = inf``) or the
*geometric* rule (``alpha_k = alpha_0 * rho^k``).  All three are provided, plus
the per-epoch decay Bismarck's implementation actually applies (constant
within an epoch, multiplied by a decay factor between epochs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_positive_finite(name: str, value: float) -> None:
    # NaN and +inf fail the chained comparison too, not just values <= 0.
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class StepSizeSchedule:
    """Base class: maps a (0-based) gradient-step index and epoch to a step size."""

    def step_size(self, step_index: int, epoch: int) -> float:
        raise NotImplementedError

    def step_sizes(self, start_index: int, count: int, epoch: int, stride: int = 1) -> np.ndarray:
        """Step sizes for ``count`` steps ``start_index, start_index + stride, ...``.

        The default materialises per-step calls so the array is bit-identical
        to the per-tuple sequence; constant-per-epoch schedules override this
        with a single fill.  A pool worker's share of an epoch is a stride.
        """
        steps = range(start_index, start_index + count * stride, stride)
        return np.array([self.step_size(k, epoch) for k in steps], dtype=np.float64)


@dataclass(frozen=True)
class ConstantStepSize(StepSizeSchedule):
    """``alpha_k = alpha`` for all k."""

    alpha: float

    def __post_init__(self) -> None:
        _require_positive_finite("step size", self.alpha)

    def step_size(self, step_index: int, epoch: int) -> float:
        return self.alpha

    def step_sizes(self, start_index: int, count: int, epoch: int, stride: int = 1) -> np.ndarray:
        return np.full(count, self.alpha)


@dataclass(frozen=True)
class DiminishingStepSize(StepSizeSchedule):
    """Divergent-series rule ``alpha_k = alpha_0 / (1 + k)**power``.

    For ``0 < power <= 1`` this satisfies ``alpha_k -> 0`` and
    ``sum_k alpha_k = infinity`` (Appendix B), which is the classical
    Robbins–Monro condition.
    """

    alpha0: float
    power: float = 1.0

    def __post_init__(self) -> None:
        _require_positive_finite("alpha0", self.alpha0)
        if not 0 < self.power <= 1:
            raise ValueError("power must be in (0, 1] for the divergent-series rule")

    def step_size(self, step_index: int, epoch: int) -> float:
        return self.alpha0 / (1.0 + step_index) ** self.power


@dataclass(frozen=True)
class GeometricStepSize(StepSizeSchedule):
    """Geometric rule ``alpha_k = alpha_0 * rho**k`` with ``0 < rho < 1``."""

    alpha0: float
    rho: float

    def __post_init__(self) -> None:
        _require_positive_finite("alpha0", self.alpha0)
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")

    def step_size(self, step_index: int, epoch: int) -> float:
        return self.alpha0 * self.rho ** step_index


@dataclass(frozen=True)
class EpochDecayStepSize(StepSizeSchedule):
    """Constant within an epoch, multiplied by ``decay`` between epochs.

    This is the schedule Bismarck's reference implementation (and MADlib's
    SGD-based modules) use in practice: ``alpha_e = alpha_0 * decay**e``.
    """

    alpha0: float
    decay: float = 0.95

    def __post_init__(self) -> None:
        _require_positive_finite("alpha0", self.alpha0)
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")

    def step_size(self, step_index: int, epoch: int) -> float:
        return self.alpha0 * self.decay ** epoch

    def step_sizes(self, start_index: int, count: int, epoch: int, stride: int = 1) -> np.ndarray:
        return np.full(count, self.alpha0 * self.decay ** epoch)


def make_schedule(spec: StepSizeSchedule | float | dict) -> StepSizeSchedule:
    """Coerce a user-friendly spec into a schedule.

    * a float becomes :class:`ConstantStepSize`;
    * a dict like ``{"kind": "epoch_decay", "alpha0": 0.1, "decay": 0.9}`` builds
      the named schedule;
    * an existing schedule is returned unchanged.
    """
    if isinstance(spec, StepSizeSchedule):
        return spec
    if isinstance(spec, bool):
        raise TypeError("a step size cannot be a bool")
    if isinstance(spec, (int, float)):
        return ConstantStepSize(float(spec))
    if isinstance(spec, dict):
        kinds = {
            "constant": ConstantStepSize,
            "diminishing": DiminishingStepSize,
            "geometric": GeometricStepSize,
            "epoch_decay": EpochDecayStepSize,
        }
        spec = dict(spec)
        kind = spec.pop("kind", "constant")
        try:
            cls = kinds[kind]
        except KeyError:
            raise ValueError(f"unknown step-size kind {kind!r}; expected one of {sorted(kinds)}") from None
        return cls(**spec)
    raise TypeError(f"cannot build a step-size schedule from {spec!r}")
