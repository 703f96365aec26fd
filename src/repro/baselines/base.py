"""Common result type and helpers for the baseline ("native tool") trainers.

The baselines stand in for the native analytics tools the paper compares
against (MADlib over PostgreSQL, the built-in tools of DBMS A and DBMS B, and
in-memory tools like CRF++/Mallet).  Each baseline reports the same per-
iteration history Bismarck reports so the Figure-7 style comparisons can
measure time-to-tolerance uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.convergence import EpochRecord
from ..core.model import Model


@dataclass
class BaselineResult:
    """Outcome of a baseline training run."""

    model: Model
    history: list[EpochRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    name: str = "baseline"

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_objective(self) -> float:
        return self.history[-1].objective if self.history else float("nan")

    def objective_trace(self) -> list[float]:
        return [record.objective for record in self.history]

    def time_trace(self) -> list[float]:
        cumulative = 0.0
        trace = []
        for record in self.history:
            cumulative += record.elapsed_seconds
            trace.append(cumulative)
        return trace

    def time_to_reach(self, target_objective: float) -> float | None:
        cumulative = 0.0
        for record in self.history:
            cumulative += record.elapsed_seconds
            if record.objective <= target_objective:
                return cumulative
        return None
