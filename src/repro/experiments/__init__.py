"""Experiment harness: one module per table/figure of the paper's evaluation."""

from .comparison import run_benchmark_comparison, run_crf_comparison
from .datasets_table import run_datasets_table
from .harness import (
    ExperimentScale,
    evaluate_model,
    overhead_percent,
    resolve_scale,
    time_callable,
    tolerance_target,
)
from .mrs import run_buffer_size_experiment, run_mrs_convergence
from .ordering import run_catx_experiment, run_data_ordering_experiment
from .overhead import run_overhead_table
from .parallelism import (
    run_parallel_convergence,
    run_speedup_experiment,
    run_whole_loop_experiment,
)
from .reporting import render_series, render_table
from .scalability import run_scalability_experiment

__all__ = [
    "ExperimentScale",
    "evaluate_model",
    "overhead_percent",
    "render_series",
    "render_table",
    "resolve_scale",
    "run_benchmark_comparison",
    "run_buffer_size_experiment",
    "run_catx_experiment",
    "run_crf_comparison",
    "run_data_ordering_experiment",
    "run_datasets_table",
    "run_mrs_convergence",
    "run_overhead_table",
    "run_parallel_convergence",
    "run_scalability_experiment",
    "run_speedup_experiment",
    "run_whole_loop_experiment",
    "time_callable",
    "tolerance_target",
]
