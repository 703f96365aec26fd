"""Shared configuration for the paper-figure smoke tests.

Every ``test_*.py`` here regenerates one table or figure of the paper through
``repro.experiments`` at the scale given by the ``REPRO_BENCH_SCALE``
environment variable (``small`` by default, ``medium`` / ``full`` for longer,
more faithful runs) and asserts its qualitative shape.  Rendered tables/series
are printed (``pytest -s``) so a run doubles as a report.  Performance is
measured elsewhere: ``bench/run.py`` is the repo's one benchmark.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentScale, resolve_scale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return resolve_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))


def report(title: str, text: str) -> None:
    """Print a rendered experiment artefact under a visible banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")
