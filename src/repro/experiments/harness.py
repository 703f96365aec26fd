"""Shared utilities for the experiment harness.

Every experiment module in this package regenerates one table or figure of
the paper's evaluation section and returns a plain dataclass whose fields are
the rows/series the paper reports.  The benchmarks under ``benchmarks/`` call
these functions and print the rendered tables, and ``EXPERIMENTS.md`` records
the measured shapes against the paper's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.convergence import EpochRecord


def evaluate_model(
    database,
    table_name: str,
    task,
    model,
    *,
    kind: str = "loss",
    workers: int = 1,
    backend: str = "in_process",
    include_penalty: bool = False,
):
    """Run one evaluation pass (loss or accuracy) through the pass-plan layer.

    This is the harness's counterpart of the driver's objective pass: the
    model is scored by the same :class:`~repro.core.uda.LossAggregate` /
    :class:`~repro.core.uda.AccuracyAggregate` UDAs, compiled to a
    :class:`~repro.db.pass_plan.PassPlan` and executed on the serial backend
    or — with ``backend="process"`` — fanned out over the engine's forked
    worker pool, so experiment evaluations scale with the same machinery as
    training.  ``include_penalty`` adds the task's proximal penalty (the full
    objective the driver records).
    """
    from ..core.uda import AccuracyAggregate, LossAggregate
    from ..db.parallel import SegmentedDatabase
    from ..db.pass_plan import ProcessBackend, SerialBackend, compile_pass

    engine = database.master if isinstance(database, SegmentedDatabase) else database
    if kind == "loss":
        factory = lambda: LossAggregate(task, model)  # noqa: E731 - tiny closure
    elif kind == "accuracy":
        factory = lambda: AccuracyAggregate(task, model)  # noqa: E731 - tiny closure
    else:
        raise ValueError(f"unknown evaluation kind {kind!r}; expected 'loss' or 'accuracy'")
    plan = compile_pass(kind, engine.table(table_name), factory, workers=workers)
    if backend == "process":
        value = ProcessBackend(engine).run(plan)
    else:
        value = SerialBackend(engine).run(plan)
    if kind == "loss" and include_penalty:
        return float(value) + task.proximal.penalty(model)
    return value


@dataclass(frozen=True)
class ExperimentScale:
    """Knob controlling how large the generated workloads are.

    ``small`` keeps every experiment to a few seconds (used by the test suite
    and the default benchmark runs); ``full`` approaches the largest sizes that
    are still reasonable on a laptop.
    """

    name: str = "small"
    dense_examples: int = 800
    dense_dimension: int = 54
    sparse_examples: int = 400
    sparse_dimension: int = 2000
    sparse_nonzeros: int = 15
    rating_rows: int = 120
    rating_cols: int = 80
    num_ratings: int = 2000
    num_sequences: int = 30
    sequence_labels: int = 3
    scalability_examples: int = 8000
    max_epochs: int = 10

    @classmethod
    def small(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def medium(cls) -> "ExperimentScale":
        return cls(
            name="medium",
            dense_examples=4000,
            sparse_examples=1500,
            sparse_dimension=8000,
            sparse_nonzeros=20,
            rating_rows=300,
            rating_cols=200,
            num_ratings=8000,
            num_sequences=60,
            scalability_examples=20000,
            max_epochs=20,
        )

    @classmethod
    def full(cls) -> "ExperimentScale":
        return cls(
            name="full",
            dense_examples=20000,
            sparse_examples=5000,
            sparse_dimension=40000,
            sparse_nonzeros=25,
            rating_rows=1000,
            rating_cols=700,
            num_ratings=50000,
            num_sequences=200,
            sequence_labels=4,
            scalability_examples=100000,
            max_epochs=30,
        )


def resolve_scale(scale: "ExperimentScale | str | None") -> ExperimentScale:
    """Coerce a scale name ('small' / 'medium' / 'full') into a scale object."""
    if scale is None:
        return ExperimentScale.small()
    if isinstance(scale, ExperimentScale):
        return scale
    factories = {
        "small": ExperimentScale.small,
        "medium": ExperimentScale.medium,
        "full": ExperimentScale.full,
    }
    try:
        return factories[scale.lower()]()
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(factories)}") from None


@dataclass
class TimingSample:
    """Repeated wall-clock measurements of one operation."""

    label: str
    seconds: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.seconds)) if self.seconds else 0.0

    @property
    def minimum(self) -> float:
        return float(np.min(self.seconds)) if self.seconds else 0.0


def time_callable(func: Callable[[], object], *, repeats: int = 3, label: str = "") -> TimingSample:
    """Time a zero-argument callable ``repeats`` times (warm runs, like the paper)."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    sample = TimingSample(label=label or getattr(func, "__name__", "operation"))
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        sample.seconds.append(time.perf_counter() - start)
    return sample


def overhead_percent(baseline_seconds: float, measured_seconds: float) -> float:
    """Overhead of ``measured`` over ``baseline`` as a percentage (Table 2/3)."""
    if baseline_seconds <= 0:
        return float("inf")
    return 100.0 * (measured_seconds - baseline_seconds) / baseline_seconds


def tolerance_target(optimum: float, tolerance: float = 1e-3) -> float:
    """Objective value corresponding to a relative tolerance above the optimum."""
    return optimum + tolerance * max(abs(optimum), 1e-12)


def time_to_tolerance(
    history: Sequence[EpochRecord], optimum: float, *, tolerance: float = 1e-3
) -> float | None:
    """Cumulative seconds until the objective reaches the tolerance band."""
    target = tolerance_target(optimum, tolerance)
    cumulative = 0.0
    for record in history:
        cumulative += record.elapsed_seconds
        if record.objective <= target:
            return cumulative
    return None


def epochs_to_tolerance(
    history: Sequence[EpochRecord], optimum: float, *, tolerance: float = 1e-3
) -> int | None:
    """Number of epochs until the objective reaches the tolerance band (1-based)."""
    target = tolerance_target(optimum, tolerance)
    for record in history:
        if record.objective <= target:
            return record.epoch + 1
    return None
