"""Smoke tests for the experiment harness: every table/figure function runs at
tiny scale and produces the qualitative shape the paper reports."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro import experiments
from repro.experiments import (
    ExperimentScale,
    overhead_percent,
    render_series,
    render_table,
    resolve_scale,
    run_catx_experiment,
    run_crf_comparison,
    run_data_ordering_experiment,
    run_datasets_table,
    run_buffer_size_experiment,
    run_mrs_convergence,
    run_overhead_table,
    run_parallel_convergence,
    run_speedup_experiment,
    time_callable,
    tolerance_target,
)

TINY = ExperimentScale(
    name="tiny",
    dense_examples=150,
    dense_dimension=10,
    sparse_examples=80,
    sparse_dimension=300,
    sparse_nonzeros=6,
    rating_rows=30,
    rating_cols=20,
    num_ratings=300,
    num_sequences=10,
    sequence_labels=3,
    scalability_examples=500,
    max_epochs=6,
)


class TestHarnessHelpers:
    def test_resolve_scale(self):
        assert resolve_scale(None).name == "small"
        assert resolve_scale("medium").name == "medium"
        assert resolve_scale("full").name == "full"
        assert resolve_scale(TINY) is TINY
        with pytest.raises(ValueError):
            resolve_scale("galactic")

    def test_overhead_percent(self):
        assert overhead_percent(1.0, 2.0) == pytest.approx(100.0)
        assert overhead_percent(0.0, 1.0) == float("inf")

    def test_tolerance_target(self):
        assert tolerance_target(100.0, 0.01) == pytest.approx(101.0)

    def test_time_callable(self):
        sample = time_callable(lambda: sum(range(1000)), repeats=3, label="sum")
        assert len(sample.seconds) == 3
        assert sample.minimum >= 0

    def test_every_exported_experiment_has_a_figure_test(self):
        """An experiment no ``benchmarks/test_*.py`` names reproduces no
        figure; it belongs in ``bench/`` or nowhere."""
        figures = "".join(
            path.read_text()
            for path in (Path(__file__).resolve().parents[1] / "benchmarks").glob("test_*.py")
        )
        runners = [name for name in experiments.__all__ if name.startswith("run_")]
        assert runners
        assert [name for name in runners if name not in figures] == []

    def test_render_table_and_series(self):
        table = render_table(["a", "b"], [(1, 2.5), ("x", None)], title="T")
        assert "T" in table and "a" in table and "x" in table
        series = render_series("s", range(30), [float(i) for i in range(30)])
        assert series.startswith("s:")


class TestDatasetsTable:
    def test_table1_rows(self):
        result = run_datasets_table(TINY)
        assert len(result.rows) == 7
        assert result.by_name("forest_like").num_examples == TINY.dense_examples
        rendered = result.render()
        assert "forest_like" in rendered and "movielens_like" in rendered


class TestCATXFigure5:
    def test_clustered_needs_more_epochs_than_random(self):
        result = run_catx_experiment(n=200, max_epochs=60)
        assert result.random_epochs_to_converge is not None
        assert result.clustered_epochs_to_converge is not None
        assert result.clustered_epochs_to_converge > result.random_epochs_to_converge
        assert "Figure 5" in result.render()

    def test_traces_have_expected_length(self):
        result = run_catx_experiment(n=50, max_epochs=5)
        assert len(result.random_trace) == 5 * 100 + 1
        assert len(result.clustered_trace) == 5 * 100 + 1


class TestOrderingFigure8:
    def test_shuffle_once_beats_clustered(self):
        result = run_data_ordering_experiment(TINY, max_epochs=10)
        assert set(result.runs) == {"shuffle_always", "shuffle_once", "clustered"}
        shuffle_once = result.runs["shuffle_once"]
        clustered = result.runs["clustered"]
        # Clustered either needs more epochs or never reaches the target.
        if clustered.epochs_to_target is not None:
            assert clustered.epochs_to_target >= shuffle_once.epochs_to_target
        assert shuffle_once.epochs_to_target is not None
        assert "Figure 8" in result.render()

    def test_shuffle_always_pays_shuffle_cost_every_epoch(self):
        result = run_data_ordering_experiment(TINY, max_epochs=6)
        assert result.runs["shuffle_always"].shuffle_seconds > result.runs["shuffle_once"].shuffle_seconds
        assert result.runs["clustered"].shuffle_seconds == 0.0


class TestOverheadTables:
    VERDICTS = ("reproduced", "not reproduced here", "not measurable here")

    def test_pure_uda_overhead_rows(self):
        result = run_overhead_table("pure_uda", TINY, repeats=1)
        assert len(result.tasks()) == 5  # LR + SVM on two datasets, LMF on the third
        for task in result.tasks():
            for configuration in ("null", "per_tuple", "chunked", "pure_uda_x8"):
                assert result.row(task, configuration).seconds > 0
        rendered = result.render()
        assert "Table 2" in rendered and "Paper's claim:" in rendered
        assert rendered.splitlines()[-1] == f"Verdict: {result.verdict()}"
        assert result.verdict().startswith(self.VERDICTS)

    def test_shared_memory_rows_count_what_crossed_the_pipe(self):
        result = run_overhead_table("shared_memory", TINY, repeats=1)
        assert len(result.tasks()) == 4  # three LR widths and the LMF shape
        for task in result.tasks():
            uda, nolock = result.row(task, "pure_uda"), result.row(task, "nolock")
            assert uda.seconds > 0 and nolock.seconds > 0
            assert uda.pipe_bytes >= 2 * uda.model_bytes > 0
            assert 0 < nolock.pipe_bytes < 2 * 1024
        rendered = result.render()
        assert "Table 3" in rendered and "Paper's claim:" in rendered
        assert rendered.splitlines()[-1] == f"Verdict: {result.verdict()}"
        assert result.verdict().startswith(self.VERDICTS)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            run_overhead_table("mystery", TINY)


class TestParallelismFigure9:
    def test_model_averaging_converges_worse_than_shared_memory(self):
        result = run_parallel_convergence(TINY, workers=4, max_epochs=3)
        assert set(result.traces) == {"pure_uda", "lock", "aig", "nolock"}
        assert result.final_objective("pure_uda") > result.final_objective("nolock")
        assert "Figure 9A" in result.render()

    def test_lock_aig_nolock_similar(self):
        result = run_parallel_convergence(TINY, workers=4, max_epochs=3)
        lock = result.final_objective("lock")
        assert result.final_objective("aig") == pytest.approx(lock, rel=0.25)
        assert result.final_objective("nolock") == pytest.approx(lock, rel=0.25)

    def test_speedup_reports_what_it_measured(self):
        """Structure and provenance only: wall-clock ordering is the bench
        gate's business, not tier-1's."""
        result = run_speedup_experiment(TINY, max_workers=8)
        assert result.worker_counts == [1, 2, 4, 8]
        assert set(result.speedups) == {"pure_uda", "lock", "aig", "nolock"}
        for series in result.speedups.values():
            assert len(series) == 4
            assert all(math.isfinite(value) and value > 0 for value in series)
        assert result.cores >= 1
        rendered = result.render()
        assert "Figure 9B" in rendered and "measured" in rendered


class TestMRSFigure10:
    def test_mrs_beats_subsampling_and_clustered(self):
        result = run_mrs_convergence(TINY, buffer_fraction=0.1, epochs=8)
        assert result.final_objective("mrs") < result.final_objective("subsampling")
        assert result.final_objective("mrs") < result.final_objective("clustered")
        assert "Figure 10A" in result.render()

    def test_buffer_sweep_decodes_once_and_times_by_the_epoch_loop(self, monkeypatch):
        """The Figure 10B sweep is visit orders over one stable table version:
        one decode serves every (scheme, buffer) run, and the reported times
        are the epoch loop's own stopwatch (milliseconds at this scale, not
        host uptime)."""
        from repro.experiments import mrs as mrs_module

        databases = []
        load = mrs_module._load_workload

        def recording_load(dataset):
            databases.append(load(dataset))
            return databases[-1]

        monkeypatch.setattr(mrs_module, "_load_workload", recording_load)
        result = run_buffer_size_experiment(TINY, buffer_fractions=(0.1, 0.25, 0.5), epochs=6)
        (database,) = databases
        assert database.executor.example_cache.misses == 1
        assert len(result.rows) == 6
        reached = [row for row in result.rows if row.seconds_to_target is not None]
        assert reached and all(0.0 < row.seconds_to_target < 10.0 for row in reached)
        assert "Figure 10B" in result.render()


class TestCRFFigure7B:
    def test_bismarck_matches_batch_tool_quality(self):
        result = run_crf_comparison(TINY, max_epochs=4)
        assert result.bismarck_objectives[-1] <= result.baseline_objectives[0]
        assert result.bismarck_final_accuracy > 0.5
        assert "Figure 7B" in result.render()
