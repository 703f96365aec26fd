"""Benchmark E3 — Table 3: state down the pipe vs model in shared pages."""

from __future__ import annotations

from conftest import report

from repro.experiments import run_overhead_table


def test_table3_shared_memory_overhead(benchmark, scale):
    result = benchmark.pedantic(
        run_overhead_table, args=("shared_memory", scale), kwargs={"repeats": 2},
        iterations=1, rounds=1,
    )
    rendered = result.render()
    report("Table 3 — pooled pure-UDA epoch vs pooled NoLock epoch (measured)", rendered)

    models = result.tasks()
    assert models[:3] == ["LR d=54", "LR d=2000", "LR d=100000"] and models[3].startswith("LMF")
    assert len(result.rows) == 4 * 2
    # The state-passing claim by count, never by wall-clock: every pure-UDA
    # part's message holds the model, a NoLock worker's stays a KB-scale
    # header at every swept dimension while the model grows to 800 KB.
    for model in models:
        uda, nolock = result.row(model, "pure_uda"), result.row(model, "nolock")
        assert uda.seconds > 0 and nolock.seconds > 0
        assert uda.pipe_bytes >= 2 * uda.model_bytes
        assert 0 < nolock.pipe_bytes < 2 * 1024
    assert result.model_copies_per_worker("pure_uda") >= 1.0
    assert result.model_copies_per_worker("nolock") < 0.01
    assert "Paper's claim:" in rendered
    assert f"Verdict: {result.verdict()}" == rendered.splitlines()[-1]
    assert result.verdict().startswith(("reproduced", "not reproduced here", "not measurable here"))
