"""Parallelising the IGD aggregate (Section 3.3).

Two mechanisms, both built from features every RDBMS offers:

* **Pure UDA** — shared-nothing parallelism: each data segment trains its own
  model and the engine combines them with the aggregate's ``merge`` function
  (model averaging).  This is handled by
  :class:`repro.db.parallel.SegmentedDatabase` together with
  :meth:`repro.core.uda.IGDAggregate.merge`; the spec class here simply
  requests it.

* **Shared-memory UDA** — the model lives in the database's shared-memory
  arena and is updated concurrently by workers scanning different portions of
  the data.  The arena and the spec live in :mod:`repro.db.shared_memory`;
  this module re-exports the spec beside the pure-UDA one.

Both consume the same cached chunk plane as the serial executor
(:mod:`repro.db.chunk_plan`): the segmented engine runs ``transition_chunk``
over each segment's ordinals of the one cached chunk list, and the simulated
shared-memory epoch is serial IGD over the workers' round-robin window
interleave of the visit order
(:func:`~repro.db.chunk_plan.interleave_round_robin`).  The *convergence*
behaviour (what Figure 9A measures) depends only on the update schedule and
is reproduced faithfully; the *wall-clock speed-up* (Figure 9B) is measured
on the forked process backend (:mod:`repro.db.process_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.shared_memory import (
    SHARED_MEMORY_SCHEMES,
    SharedMemoryArena,
    SharedMemoryParallelism,
)

__all__ = [
    "SHARED_MEMORY_SCHEMES",
    "PureUDAParallelism",
    "SharedMemoryArena",
    "SharedMemoryParallelism",
]


@dataclass(frozen=True)
class PureUDAParallelism:
    """Request shared-nothing (merge-based) parallelism.

    ``segments`` of None means "use the database's segment count".
    ``backend="process"`` runs each segment in its own OS worker process
    (:mod:`repro.db.process_backend`) instead of sequentially in this one;
    for a fixed seed and segment count the two backends are bit-for-bit
    identical (same partitions, same float operations, same merge order).
    """

    segments: int | None = None
    backend: str = "in_process"
    name: str = "pure_uda"

    def __post_init__(self) -> None:
        if self.backend not in ("in_process", "process"):
            raise ValueError(
                f"unknown pure-UDA backend {self.backend!r}; "
                "expected 'in_process' or 'process'"
            )


ParallelismSpec = "PureUDAParallelism | SharedMemoryParallelism | None"

