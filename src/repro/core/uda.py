"""The Bismarck IGD user-defined aggregate.

This is the central piece of the paper's architecture: incremental gradient
descent expressed through the standard UDA contract.

* ``initialize``  — load the model (zeros on the first epoch, the previous
  epoch's model afterwards);
* ``transition``  — convert the tuple into an example, take one gradient step
  with the scheduled step size, apply the proximal operator;
* ``merge``       — average models trained on different data segments
  (the Zinkevich-style shared-nothing parallelisation);
* ``terminate``   — return the model, annotated with step counts.

The aggregate is task-agnostic: all task-specific logic lives in the
:class:`~repro.tasks.base.Task` passed in, exactly as Figure 4 of the paper
shows for the C implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..db.aggregates import UserDefinedAggregate
from ..db.types import Row
from ..tasks.base import ExampleBatch, Task
from .model import Model
from .proximal import ProximalOperator
from .stepsize import StepSizeSchedule, make_schedule


@dataclass
class IGDState:
    """Aggregation state carried through one epoch of the IGD aggregate."""

    model: Model
    gradient_steps: int = 0
    #: Gradient-step index of the first step taken by this aggregate run;
    #: lets diminishing step-size schedules continue across epochs.
    step_offset: int = 0
    epoch: int = 0


class IGDAggregate(UserDefinedAggregate):
    """One epoch of incremental gradient descent as a user-defined aggregate."""

    wants_row = True
    supports_merge = True
    accepts_visits = True

    def __init__(
        self,
        task: Task,
        step_size: StepSizeSchedule | float | dict = 0.1,
        *,
        initial_model: Model | None = None,
        proximal: ProximalOperator | None = None,
        epoch: int = 0,
        step_offset: int = 0,
    ):
        self.task = task
        self.schedule = make_schedule(step_size)
        self.initial_model = initial_model
        self.proximal = proximal if proximal is not None else task.proximal
        self.epoch = epoch
        self.step_offset = step_offset

    @property
    def supports_chunks(self) -> bool:
        return self.task.supports_batches

    @property
    def chunk_decoder(self) -> Task:
        return self.task

    # ---------------------------------------------------------- UDA contract
    def initialize(self) -> IGDState:
        if self.initial_model is not None:
            model = self.initial_model.copy()
        else:
            model = self.task.initial_model()
        return IGDState(
            model=model, gradient_steps=0, step_offset=self.step_offset, epoch=self.epoch
        )

    def transition(self, state: IGDState, row: Row | Any) -> IGDState:
        example = self._to_example(row)
        step_index = state.step_offset + state.gradient_steps
        alpha = self.schedule.step_size(step_index, state.epoch)
        self.task.gradient_step(state.model, example, alpha)
        self.proximal.apply(state.model, alpha)
        state.gradient_steps += 1
        return state

    def transition_chunk(self, state: IGDState, batch: ExampleBatch) -> IGDState:
        """One chunk of gradient steps over cached, pre-decoded examples.

        Runs the task's sequential exact-IGD kernel with a precomputed
        per-step ``alpha`` array over a batch or a walked ``Visits`` window —
        bit-for-bit the models the per-tuple path produces.
        """
        n = len(batch)
        if n == 0:
            return state
        start_index = state.step_offset + state.gradient_steps
        alphas = self.schedule.step_sizes(start_index, n, state.epoch)
        self.task.igd_chunk(state.model, batch, alphas, self.proximal)
        state.gradient_steps += n
        return state

    def merge(self, state_a: IGDState, state_b: IGDState) -> IGDState:
        """Model averaging, weighted by the number of gradient steps taken.

        Averaging partially trained models is the "essentially algebraic"
        property the paper leans on to reuse the shared-nothing parallel UDA
        machinery (Section 3.3, citing Zinkevich et al.).
        """
        total_steps = state_a.gradient_steps + state_b.gradient_steps
        if total_steps == 0:
            weights = [1.0, 1.0]
        else:
            weights = [state_a.gradient_steps, state_b.gradient_steps]
        merged_model = Model.average([state_a.model, state_b.model], weights=weights)
        return IGDState(
            model=merged_model,
            gradient_steps=total_steps,
            step_offset=min(state_a.step_offset, state_b.step_offset),
            epoch=state_a.epoch,
        )

    def terminate(self, state: IGDState) -> Model:
        model = state.model
        model.metadata["gradient_steps"] = state.step_offset + state.gradient_steps
        model.metadata["epoch"] = state.epoch
        return model

    # -------------------------------------------------------------- internals
    def _to_example(self, row: Row | Any) -> Any:
        """Rows coming from the engine are converted; raw examples pass through."""
        if isinstance(row, Row):
            return self.task.example_from_row(row)
        return row


class LossAggregate(UserDefinedAggregate):
    """A UDA computing the data term of the objective for a fixed model.

    The paper notes the loss needed by the stopping condition "can also be
    implemented as a UDA (or piggybacked onto the IGD UDA)"; this is that UDA.
    """

    wants_row = True
    supports_merge = True
    # Scalar reduction: whole chunks may be dealt to parallel workers and the
    # (total, count) partials merged exactly, left-to-right.
    chunk_partitionable = True

    def __init__(self, task: Task, model: Model):
        self.task = task
        self.model = model

    @property
    def supports_chunks(self) -> bool:
        return self.task.supports_batches

    @property
    def chunk_decoder(self) -> Task:
        return self.task

    def initialize(self) -> tuple[float, int]:
        return (0.0, 0)

    def transition(self, state: tuple[float, int], row: Row | Any) -> tuple[float, int]:
        example = row if not isinstance(row, Row) else self.task.example_from_row(row)
        total, count = state
        return (total + self.task.loss(self.model, example), count + 1)

    def transition_chunk(self, state: tuple[float, int], batch: ExampleBatch) -> tuple[float, int]:
        total, count = state
        return (total + self.task.batch_loss(self.model, batch), count + len(batch))

    def merge(self, state_a: tuple[float, int], state_b: tuple[float, int]) -> tuple[float, int]:
        return (state_a[0] + state_b[0], state_a[1] + state_b[1])

    def terminate(self, state: tuple[float, int]) -> float:
        total, _ = state
        return total


class AccuracyAggregate(UserDefinedAggregate):
    """A UDA computing classification accuracy of a fixed model (error rates).

    Mirrors the paper's remark that the UDA mechanism is also used "to test for
    convergence and compute information, e.g., error rates".  Only meaningful
    for tasks exposing ``classify``.
    """

    wants_row = True
    supports_merge = True
    # Integer-counter reduction: chunk partitioning is not just reproducible
    # but exactly equal to any serial order (integer sums are associative).
    chunk_partitionable = True

    def __init__(self, task: Task, model: Model):
        if not hasattr(task, "classify"):
            raise TypeError(f"task {task.describe()} does not support classification")
        self.task = task
        self.model = model

    @property
    def supports_chunks(self) -> bool:
        return self.task.supports_batches

    @property
    def chunk_decoder(self) -> Task:
        return self.task

    def initialize(self) -> tuple[int, int]:
        return (0, 0)

    def transition(self, state: tuple[int, int], row: Row | Any) -> tuple[int, int]:
        example = row if not isinstance(row, Row) else self.task.example_from_row(row)
        correct, total = state
        predicted = self.task.classify(self.model, example)  # type: ignore[attr-defined]
        if predicted == (1 if example.label > 0 else -1):
            correct += 1
        return (correct, total + 1)

    def transition_chunk(self, state: tuple[int, int], batch: ExampleBatch) -> tuple[int, int]:
        correct, total = state
        return (correct + self.task.batch_correct(self.model, batch), total + len(batch))

    def merge(self, state_a: tuple[int, int], state_b: tuple[int, int]) -> tuple[int, int]:
        return (state_a[0] + state_b[0], state_a[1] + state_b[1])

    def terminate(self, state: tuple[int, int]) -> float:
        correct, total = state
        if total == 0:
            return 0.0
        return correct / total
