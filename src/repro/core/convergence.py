"""Stopping rules for the Bismarck epoch loop.

The paper supports "an arbitrary Boolean function" as the convergence test and
mentions the common choices: run a fixed number of epochs, stop on a small
relative drop in the loss, or stop when the objective reaches a tolerance
around a known optimal value (the 0.1%-tolerance criterion used throughout the
evaluation section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class EpochRecord:
    """Bookkeeping for one completed epoch."""

    epoch: int
    objective: float
    elapsed_seconds: float
    gradient_steps: int
    model_norm: float = 0.0


class StoppingRule:
    """Decides, after each epoch, whether to stop training."""

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedEpochs(StoppingRule):
    """Stop after exactly ``num_epochs`` epochs."""

    num_epochs: int

    def __post_init__(self) -> None:
        if self.num_epochs <= 0:
            raise ValueError("num_epochs must be positive")

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        return len(history) >= self.num_epochs


@dataclass(frozen=True)
class RelativeImprovement(StoppingRule):
    """Stop when the relative drop in the objective falls below ``tolerance``.

    The classic "relative drop in the loss value" heuristic: stop after an
    epoch whose objective improved by less than ``tolerance`` relative to the
    previous epoch's objective, for ``patience`` consecutive epochs.
    """

    tolerance: float = 1e-4
    patience: int = 1
    min_epochs: int = 2

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.patience <= 0:
            raise ValueError("patience must be positive")

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        if len(history) < max(self.min_epochs, self.patience + 1):
            return False
        lagging = 0
        for previous, current in zip(history[-self.patience - 1:-1], history[-self.patience:]):
            denominator = max(abs(previous.objective), 1e-12)
            improvement = (previous.objective - current.objective) / denominator
            if improvement < self.tolerance:
                lagging += 1
        return lagging >= self.patience


@dataclass(frozen=True)
class ObjectiveThreshold(StoppingRule):
    """Stop as soon as the objective is at or below an absolute target value."""

    target: float

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        return bool(history) and history[-1].objective <= self.target


@dataclass(frozen=True)
class ToleranceToOptimum(StoppingRule):
    """Stop when the objective is within ``tolerance`` (relative) of a known optimum.

    This is the paper's completion criterion: "achieving 0.1% tolerance in the
    objective function value".  ``optimum`` is the reference objective value
    (computed offline by a baseline solver or a long IGD run).
    """

    optimum: float
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def threshold(self) -> float:
        scale = max(abs(self.optimum), 1e-12)
        return self.optimum + self.tolerance * scale

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        return bool(history) and history[-1].objective <= self.threshold()


@dataclass(frozen=True)
class AnyOf(StoppingRule):
    """Stop when any of the member rules says stop (e.g. tolerance OR max epochs)."""

    rules: tuple[StoppingRule, ...]

    def __init__(self, *rules: StoppingRule):
        object.__setattr__(self, "rules", tuple(rules))
        if not self.rules:
            raise ValueError("AnyOf needs at least one rule")

    def should_stop(self, history: Sequence[EpochRecord]) -> bool:
        return any(rule.should_stop(history) for rule in self.rules)


def make_stopping_rule(spec: "StoppingRule | int | dict | None", max_epochs: int = 20) -> StoppingRule:
    """Coerce a user-friendly spec into a stopping rule.

    * None            -> FixedEpochs(max_epochs)
    * an int          -> FixedEpochs(int)
    * a StoppingRule  -> unchanged
    * a dict          -> {"kind": "relative", "tolerance": 1e-4}, etc.
    """
    if spec is None:
        return FixedEpochs(max_epochs)
    if isinstance(spec, StoppingRule):
        return spec
    if isinstance(spec, int):
        return FixedEpochs(spec)
    if isinstance(spec, dict):
        spec = dict(spec)
        kind = spec.pop("kind", "fixed")
        kinds = {
            "fixed": lambda **kw: FixedEpochs(kw.get("num_epochs", max_epochs)),
            "relative": lambda **kw: RelativeImprovement(**kw),
            "threshold": lambda **kw: ObjectiveThreshold(**kw),
            "tolerance": lambda **kw: ToleranceToOptimum(**kw),
        }
        try:
            return kinds[kind](**spec)
        except KeyError:
            raise ValueError(f"unknown stopping rule kind {kind!r}") from None
    raise TypeError(f"cannot build a stopping rule from {spec!r}")
