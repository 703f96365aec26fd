"""Experiment harness: one module per table/figure of the paper's evaluation."""

from .comparison import (
    BenchmarkComparisonResult,
    ComparisonRow,
    CRFComparisonResult,
    run_benchmark_comparison,
    run_crf_comparison,
)
from .datasets_table import DatasetsTableResult, build_benchmark_datasets, run_datasets_table
from .harness import (
    ExperimentScale,
    epochs_to_tolerance,
    evaluate_model,
    overhead_percent,
    resolve_scale,
    time_callable,
    time_to_tolerance,
    tolerance_target,
)
from .mrs import (
    BufferSizeResult,
    MRSConvergenceResult,
    run_buffer_size_experiment,
    run_mrs_convergence,
)
from .ordering import (
    CATXResult,
    DataOrderingResult,
    run_catx_experiment,
    run_data_ordering_experiment,
)
from .crash_recovery import CrashRecoveryResult, run_crash_recovery_experiment
from .fault_tolerance import FaultRecoveryResult, run_fault_recovery_experiment
from .overhead import OverheadRow, OverheadTableResult, run_overhead_table
from .parallelism import (
    ParallelConvergenceResult,
    SpeedupResult,
    WholeLoopResult,
    run_parallel_convergence,
    run_speedup_experiment,
    run_whole_loop_experiment,
)
from .reporting import render_series, render_table
from .scalability import ScalabilityResult, ScalabilityRow, run_scalability_experiment
from .streaming import (
    StreamingIngestResult,
    StreamingRound,
    run_streaming_ingest_experiment,
)

__all__ = [
    "BenchmarkComparisonResult",
    "BufferSizeResult",
    "CATXResult",
    "CRFComparisonResult",
    "ComparisonRow",
    "CrashRecoveryResult",
    "DataOrderingResult",
    "DatasetsTableResult",
    "ExperimentScale",
    "FaultRecoveryResult",
    "MRSConvergenceResult",
    "OverheadRow",
    "OverheadTableResult",
    "ParallelConvergenceResult",
    "ScalabilityResult",
    "ScalabilityRow",
    "SpeedupResult",
    "StreamingIngestResult",
    "StreamingRound",
    "WholeLoopResult",
    "build_benchmark_datasets",
    "epochs_to_tolerance",
    "evaluate_model",
    "overhead_percent",
    "render_series",
    "render_table",
    "resolve_scale",
    "run_benchmark_comparison",
    "run_buffer_size_experiment",
    "run_catx_experiment",
    "run_crash_recovery_experiment",
    "run_crf_comparison",
    "run_data_ordering_experiment",
    "run_fault_recovery_experiment",
    "run_datasets_table",
    "run_mrs_convergence",
    "run_overhead_table",
    "run_parallel_convergence",
    "run_scalability_experiment",
    "run_speedup_experiment",
    "run_streaming_ingest_experiment",
    "run_whole_loop_experiment",
    "time_callable",
    "time_to_tolerance",
    "tolerance_target",
]
