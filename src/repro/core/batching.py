"""Epoch-adaptive mini-batch schedules.

The batch-GD baselines take one step per full pass; exact IGD takes one step
per tuple.  Between the two sits a classical schedule: start with small
mini-batches (fast early progress, like IGD) and grow them geometrically as
the iterate approaches the optimum (variance reduction, like batch GD).  A
:class:`BatchSchedule` maps an epoch index to the mini-batch size the IGD
aggregate uses for that epoch; ``IGDConfig.batch_size`` accepts one anywhere
it accepts an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Ceiling for uncapped geometric growth: one mini-batch is never larger than
#: a table anyway, so saturating here only guards the arithmetic.
_SATURATED_BATCH = 2 ** 31


@dataclass(frozen=True)
class BatchSchedule:
    """Mini-batch size per epoch: ``B_e = min(cap, round(initial * growth**e))``.

    ``growth == 1.0`` is the constant schedule (every epoch uses ``initial``,
    exactly like a plain int ``batch_size``); ``growth > 1.0`` grows the
    batch geometrically, which is the epoch-adaptive schedule the batch-GD
    comparison probes.  ``cap`` bounds the growth (``None`` leaves it
    unbounded — the aggregate itself never exceeds one chunk per step).
    """

    initial: int = 1
    growth: float = 1.0
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("initial batch size must be positive")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1.0 (batches never shrink)")
        if self.cap is not None and self.cap < self.initial:
            raise ValueError("cap must be >= the initial batch size")

    def batch_size(self, epoch: int) -> int:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        # Uncapped geometric growth exceeds float range long before any real
        # epoch count (float pow raises OverflowError); saturate instead.
        try:
            value = self.initial * self.growth ** epoch
        except OverflowError:
            value = math.inf
        if not math.isfinite(value) or value >= _SATURATED_BATCH:
            size = _SATURATED_BATCH
        else:
            size = max(int(round(value)), 1)
        if self.cap is not None:
            size = min(size, self.cap)
        return size

    def max_batch_size(self, max_epochs: int) -> int:
        """Largest batch the schedule can reach within ``max_epochs`` epochs."""
        if max_epochs <= 0:
            return self.initial
        return self.batch_size(max_epochs - 1)


def make_batch_schedule(spec: "BatchSchedule | int | dict") -> BatchSchedule:
    """Coerce a user-friendly spec into a schedule.

    * an int becomes the constant schedule;
    * a dict like ``{"initial": 4, "growth": 2.0, "cap": 256}`` builds one;
    * an existing schedule passes through.
    """
    if isinstance(spec, BatchSchedule):
        return spec
    if isinstance(spec, bool):
        raise TypeError("batch_size cannot be a bool")
    if isinstance(spec, int):
        return BatchSchedule(initial=spec)
    if isinstance(spec, dict):
        return BatchSchedule(**spec)
    raise TypeError(f"cannot build a batch schedule from {spec!r}")

