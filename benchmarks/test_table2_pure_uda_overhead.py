"""Benchmark E2 — Table 2: one IGD epoch as a UDA vs the NULL aggregate."""

from __future__ import annotations

from conftest import report

from repro.experiments import run_overhead_table


def test_table2_pure_uda_overhead(benchmark, scale):
    result = benchmark.pedantic(
        run_overhead_table, args=("pure_uda", scale), kwargs={"repeats": 2},
        iterations=1, rounds=1,
    )
    rendered = result.render()
    report("Table 2 — IGD as a UDA vs the NULL aggregate (measured)", rendered)

    # Structure only: which side of the paper's claim the timings fall on is
    # the rendered verdict's business (and this host's), not an assertion.
    assert result.tasks() == [
        "forest_like LR", "forest_like SVM", "dblife_like LR", "dblife_like SVM",
        "movielens_like LMF",
    ]
    for task in result.tasks():
        for configuration in ("null", "per_tuple", "chunked", "pure_uda_x8"):
            assert result.row(task, configuration).seconds > 0
    assert len(result.rows) == 5 * 4
    assert "Paper's claim:" in rendered
    assert f"Verdict: {result.verdict()}" == rendered.splitlines()[-1]
    assert result.verdict().startswith(("reproduced", "not reproduced here", "not measurable here"))
