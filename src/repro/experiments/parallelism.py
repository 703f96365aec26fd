"""Experiments E9/E10 — Figure 9: parallelising the IGD aggregate.

Figure 9(A): objective vs. epochs for the pure-UDA (model-averaging) scheme
against the shared-memory schemes (Lock, AIG, NoLock) on the CRF workload with
8 workers/segments.  The expected shape: model averaging converges worse per
epoch; Lock, AIG and NoLock are nearly identical.  This experiment keeps the
deterministic cooperative simulation — it is about *convergence*, and the
simulated interleaving makes the traces reproducible.

Figure 9(B): speed-up of the per-epoch gradient computation against the
number of workers, on the scalability classification dataset.  This is
**measured** wall-clock: each scheme runs real epochs on the multi-process
backend (:mod:`repro.db.process_backend` — worker processes racing on the
mmap-shared model for lock/AIG/NoLock, real per-segment processes merged by
model averaging for the pure UDA) and the speed-up is the ratio of measured
per-epoch times.  The result records how many cores the host offered: one
core cannot exhibit multicore scaling, and the paper's shape
(NoLock >= AIG >> pure UDA > Lock ~1x) needs an epoch that outweighs the
pool's dispatch + merge cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.driver import IGDConfig, train
from ..core.parallel import PureUDAParallelism, SharedMemoryParallelism
from ..db.engine import Database
from ..db.parallel import SegmentedDatabase
from ..db.process_backend import available_cores
from ..data import (
    load_classification_table,
    load_sequences_table,
    make_scalability_classification,
    make_sequences,
)
from ..tasks.crf import ConditionalRandomFieldTask
from ..tasks.logistic_regression import LogisticRegressionTask
from .harness import ExperimentScale, evaluate_model, resolve_scale
from .reporting import render_series, render_table

SCHEMES = ("pure_uda", "lock", "aig", "nolock")


@dataclass
class ParallelConvergenceResult:
    """Figure 9(A): per-scheme objective traces."""

    traces: dict[str, list[float]] = field(default_factory=dict)
    workers: int = 8

    def render(self) -> str:
        lines = [f"Figure 9A (reproduction): parallel IGD convergence ({self.workers} workers)"]
        for scheme, trace in self.traces.items():
            lines.append(render_series(scheme, list(range(1, len(trace) + 1)), trace))
        return "\n".join(lines)

    def final_objective(self, scheme: str) -> float:
        return self.traces[scheme][-1]


def run_parallel_convergence(
    scale: ExperimentScale | str | None = None,
    *,
    workers: int = 8,
    max_epochs: int | None = None,
) -> ParallelConvergenceResult:
    """Regenerate Figure 9(A) on the CRF (CoNLL-like) workload."""
    scale = resolve_scale(scale)
    epochs = max_epochs or max(6, scale.max_epochs // 2)
    corpus = make_sequences(scale.num_sequences, num_labels=scale.sequence_labels, seed=5)
    step_size = {"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9}

    result = ParallelConvergenceResult(workers=workers)

    # Pure UDA: shared-nothing segments merged by model averaging.
    segmented = SegmentedDatabase(workers, seed=0)
    load_sequences_table(segmented, "conll_like", corpus.examples)
    task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
    pure = train(
        task,
        segmented,
        "conll_like",
        config=IGDConfig(
            step_size=step_size,
            max_epochs=epochs,
            ordering="shuffle_once",
            parallelism=PureUDAParallelism(),
            seed=0,
        ),
    )
    result.traces["pure_uda"] = pure.objective_trace()

    # Shared-memory variants.
    for scheme in ("lock", "aig", "nolock"):
        database = Database("postgres", seed=0)
        load_sequences_table(database, "conll_like", corpus.examples)
        run = train(
            ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels),
            database,
            "conll_like",
            config=IGDConfig(
                step_size=step_size,
                max_epochs=epochs,
                ordering="shuffle_once",
                parallelism=SharedMemoryParallelism(scheme=scheme, workers=workers),
                seed=0,
            ),
        )
        result.traces[scheme] = run.objective_trace()
    return result


# ---------------------------------------------------------------------------
# Figure 9(B): speed-up vs number of workers
# ---------------------------------------------------------------------------
@dataclass
class SpeedupResult:
    """Figure 9(B): measured per-scheme speed-up per worker count.

    Every number is a real multi-process wall-clock ratio from the process
    backend; ``cores`` records how many CPUs the host offered.
    """

    serial_epoch_seconds: float
    worker_counts: list[int] = field(default_factory=list)
    speedups: dict[str, list[float]] = field(default_factory=dict)
    cores: int = 1
    dataset: str = "classify_large"
    #: Measured per-epoch seconds per scheme.
    epoch_seconds: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Workers"] + list(self.speedups)
        rows = []
        for i, workers in enumerate(self.worker_counts):
            rows.append(
                [workers] + [f"{self.speedups[s][i]:.2f}x" for s in self.speedups]
            )
        return render_table(
            headers,
            rows,
            title=(
                "Figure 9B (reproduction): per-epoch speed-up vs workers "
                f"(measured wall-clock, {self.cores} core(s); serial epoch = "
                f"{self.serial_epoch_seconds:.3f}s on {self.dataset})"
            ),
        )


def _measured_worker_counts(max_workers: int) -> list[int]:
    counts = [1]
    while counts[-1] * 2 <= max_workers:
        counts.append(counts[-1] * 2)
    if counts[-1] != max_workers:
        counts.append(max_workers)
    return counts


def _best_epoch_seconds(history, *, skip_first: bool = True) -> float:
    """Steady-state per-epoch time: the best epoch after warm-up.

    The first epoch pays one-off costs (decode, payload shipping to workers)
    that the per-epoch speed-up of Figure 9B is explicitly not about.
    """
    records = history[1:] if skip_first and len(history) > 1 else history
    return min(record.elapsed_seconds for record in records)


def run_speedup_experiment(
    scale: ExperimentScale | str | None = None,
    *,
    max_workers: int = 8,
    epochs_per_point: int = 2,
    seed: int = 0,
) -> SpeedupResult:
    """Regenerate Figure 9(B) on the scalability classification dataset.

    The serial per-epoch gradient time is measured on the substrate; each
    scheme then runs ``epochs_per_point`` timed epochs per worker count on
    the process backend and reports wall-clock ratios.
    """
    scale = resolve_scale(scale)
    dataset = make_scalability_classification(scale.scalability_examples, seed=7)
    task = LogisticRegressionTask(dataset.dimension)
    step_size = 0.05
    epochs = epochs_per_point + 1  # first epoch is warm-up (decode/shipping)

    def serial_database() -> Database:
        database = Database("postgres", seed=seed)
        load_classification_table(database, "classify_large", dataset.examples)
        return database

    serial_run = train(
        task,
        serial_database(),
        "classify_large",
        config=IGDConfig(
            step_size=step_size, max_epochs=epochs, ordering="clustered",
            seed=seed, compute_objective=False,
        ),
    )
    serial_seconds = _best_epoch_seconds(serial_run.history)

    result = SpeedupResult(
        serial_epoch_seconds=serial_seconds,
        cores=available_cores(),
        dataset=dataset.name,
        worker_counts=_measured_worker_counts(max_workers),
    )
    for scheme in SCHEMES:
        result.speedups[scheme] = []
        result.epoch_seconds[scheme] = []
        for workers in result.worker_counts:
            if scheme == "pure_uda":
                database: Database | SegmentedDatabase = SegmentedDatabase(
                    workers, "postgres", seed=seed
                )
                load_classification_table(database, "classify_large", dataset.examples)
                parallelism = PureUDAParallelism(backend="process")
            else:
                database = serial_database()
                parallelism = SharedMemoryParallelism(
                    scheme=scheme, workers=workers, backend="process"
                )
            with database:
                run = train(
                    task,
                    database,
                    "classify_large",
                    config=IGDConfig(
                        step_size=step_size, max_epochs=epochs, ordering="clustered",
                        seed=seed, compute_objective=False, parallelism=parallelism,
                    ),
                )
            epoch_seconds = _best_epoch_seconds(run.history)
            result.epoch_seconds[scheme].append(epoch_seconds)
            result.speedups[scheme].append(serial_seconds / epoch_seconds)
    return result


# ---------------------------------------------------------------------------
# Whole-loop parallelisation: gradient + loss passes on the worker pool
# ---------------------------------------------------------------------------
@dataclass
class WholeLoopResult:
    """End-to-end comparison of whole-loop vs gradient-only parallelisation.

    ``serial`` trains with no parallelism; ``gradient_only`` runs the PR-4
    shape (process-backed gradient epochs, serial loss passes:
    ``parallel_evaluation=False``); ``whole_loop`` routes the loss pass
    through the same worker pool (``parallel_evaluation=True``).  All three
    compute the objective every epoch, so the loss pass is a real share of
    the loop — on the CRF workload the forward-algorithm loss costs about as
    much as the gradient epoch itself, which is exactly the regime where
    gradient-only parallelism hits Amdahl's wall.  ``steady_seconds``
    excludes the first epoch (decode + payload shipping, which the per-epoch
    figures are explicitly not about).
    """

    workers: int
    cores: int
    epochs: int
    scheme: str = "nolock"
    dataset: str = "conll_like"
    total_seconds: dict[str, float] = field(default_factory=dict)
    steady_seconds: dict[str, float] = field(default_factory=dict)
    final_objectives: dict[str, float] = field(default_factory=dict)
    #: Final-model objective re-evaluated through the harness's evaluation
    #: pass (process-backed for the parallel modes — the same pass-plan
    #: machinery and worker pool the training loop uses).
    final_eval: dict[str, float] = field(default_factory=dict)

    def speedup_vs_gradient_only(self) -> float:
        """Steady-state whole-loop speed-up over the gradient-only shape."""
        whole = self.steady_seconds["whole_loop"]
        if whole <= 0:
            return float("nan")
        return self.steady_seconds["gradient_only"] / whole

    def render(self) -> str:
        rows = [
            (
                mode,
                f"{self.total_seconds[mode]:.3f}s",
                f"{self.steady_seconds[mode]:.3f}s",
                f"{self.final_objectives[mode]:.4f}",
                f"{self.final_eval[mode]:.4f}",
            )
            for mode in self.total_seconds
        ]
        return render_table(
            ["Mode", "Total", "Steady", "Final objective", "Re-evaluated"],
            rows,
            title=(
                f"Whole-loop parallelisation ({self.scheme} x{self.workers}, "
                f"{self.cores} cores, {self.epochs} epochs on {self.dataset}; "
                f"whole-loop vs gradient-only: {self.speedup_vs_gradient_only():.2f}x)"
            ),
        )


def run_whole_loop_experiment(
    scale: ExperimentScale | str | None = None,
    *,
    workers: int | None = None,
    scheme: str = "nolock",
    epochs: int = 4,
    seed: int = 0,
) -> WholeLoopResult:
    """Measure what parallelising the loss pass buys on top of the gradient pass.

    Uses the Figure 9A CRF workload, whose per-epoch loss (one forward
    algorithm per sequence) costs about as much as the gradient pass — so
    once the gradient epochs run on worker processes, the serial loss pass
    dominates and gradient-only parallelism stops scaling.  Every run
    computes the objective after every epoch.  On a single-core host the
    numbers still record honestly — the ``cores`` field labels them — but
    only a >= 2-core host can show genuine whole-loop wins.
    """
    scale = resolve_scale(scale)
    cores = available_cores()
    workers = workers or min(4, max(2, cores))
    corpus = make_sequences(
        scale.num_sequences * 2, num_labels=scale.sequence_labels, seed=7
    )
    num_sequences = len(corpus.examples)
    step_size = {"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9}
    result = WholeLoopResult(workers=workers, cores=cores, epochs=epochs, scheme=scheme)

    def build() -> Database:
        database = Database("postgres", seed=seed)
        load_sequences_table(database, "conll_like", corpus.examples)
        # Several chunks per worker, so the chunk-partitioned loss pass has
        # real parallel slack to deal out (the corpus is one chunk at the
        # default chunk size).
        database.executor.chunk_size = max(1, num_sequences // (workers * 4))
        return database

    def make_task() -> ConditionalRandomFieldTask:
        return ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)

    configs = {
        "serial": IGDConfig(
            step_size=step_size, max_epochs=epochs, ordering="clustered", seed=seed
        ),
        "gradient_only": IGDConfig(
            step_size=step_size, max_epochs=epochs, ordering="clustered", seed=seed,
            parallelism=SharedMemoryParallelism(scheme=scheme, workers=workers, backend="process"),
            parallel_evaluation=False,
        ),
        "whole_loop": IGDConfig(
            step_size=step_size, max_epochs=epochs, ordering="clustered", seed=seed,
            parallelism=SharedMemoryParallelism(scheme=scheme, workers=workers, backend="process"),
            parallel_evaluation=True,
        ),
    }
    for mode, config in configs.items():
        task = make_task()
        with build() as database:
            run = train(task, database, "conll_like", config=config)
            result.total_seconds[mode] = run.total_seconds
            steady = [record.elapsed_seconds for record in run.history[1:]] or [
                record.elapsed_seconds for record in run.history
            ]
            result.steady_seconds[mode] = float(sum(steady))
            result.final_objectives[mode] = run.final_objective
            # The final-model evaluation pass rides the same pass-plan
            # machinery (and, when parallel, the same worker pool) as training.
            result.final_eval[mode] = evaluate_model(
                database, "conll_like", task, run.model,
                kind="loss", include_penalty=True,
                workers=workers if mode != "serial" else 1,
                backend="process" if mode != "serial" else "in_process",
            )
    return result
