"""Benchmark E10 — Figure 9(B): per-epoch speed-up vs number of workers.

The experiment reports *measured* multi-process wall-clock speed-ups (process
backend) and records how many cores produced them.  Tier-1 pins structure and
provenance only: whether a scheme beats serial depends on the host's cores
and on an epoch outweighing pool dispatch + merge, so wall-clock ordering
belongs to the bench gate, not to an assertion here.
"""

from __future__ import annotations

import math

from conftest import report

from repro.experiments import run_speedup_experiment


def test_fig9b_speedup_vs_workers(benchmark, scale):
    result = benchmark.pedantic(
        run_speedup_experiment, args=(scale,), kwargs={"max_workers": 8}, iterations=1, rounds=1
    )
    rendered = result.render()
    report("Figure 9B — speed-up of the per-epoch gradient computation", rendered)

    assert result.worker_counts == [1, 2, 4, 8]
    assert set(result.speedups) == {"pure_uda", "lock", "aig", "nolock"}
    for series in result.speedups.values():
        assert len(series) == len(result.worker_counts)
        assert all(math.isfinite(value) and value > 0 for value in series)
    assert result.cores >= 1
    assert "Figure 9B" in rendered and "measured" in rendered
