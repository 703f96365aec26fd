"""Engine memory during and after training, as ratios of the decoded data.

``tracemalloc`` measures what the engine allocates from just before
``train()``: the decoded chunk list is one copy of the user's data (the
ratio's denominator).  A ``shuffle_always`` run walks every fresh order over
that one copy, so its peak stays near it; a ``shuffle_once`` run gathers its
reused order once, and that copy is freed with the run's ordering policy
when ``train()`` returns.  These are allocation ratios, not wall-clock.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import Database
from repro.tasks import LogisticRegressionTask

ARRAYS = ("X", "y", "indptr", "indices", "data")


def _loaded(sparse: bool, rows: int = 3000):
    if sparse:
        data = make_sparse_classification(rows, 2000, nonzeros_per_example=25, seed=3)
    else:
        data = make_dense_classification(rows, 54, seed=3)
    database = Database("postgres", seed=0)
    # Decoding holds one chunk's per-row views at a time: keep that small
    # beside the table, as the default 4096-row chunks are beside big ones.
    database.executor.chunk_size = 250
    table = load_classification_table(database, "points", data.examples, sparse=sparse)
    return database, table, LogisticRegressionTask(data.dimension)


def _traced_train(sparse: bool, ordering: str) -> tuple[float, float]:
    """(peak inside ``train()``, bytes still held after it) over the decoded bytes."""
    config = IGDConfig(step_size=0.05, max_epochs=3, ordering=ordering, seed=1)
    # A first run on a small table does the lazy imports outside the trace.
    warm, _, task = _loaded(sparse, rows=50)
    train(task, warm, "points", config=config)
    database, table, task = _loaded(sparse)
    tracemalloc.start()
    try:
        train(task, database, "points", config=config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cache = database.executor.example_cache
    batches = cache.batches_for(table, task, database.executor.chunk_size)
    user = sum(
        getattr(batch, name).nbytes for batch in batches for name in ARRAYS
        if isinstance(getattr(batch, name), np.ndarray)
    )
    return peak / user, held / user


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_shuffle_always_peaks_at_one_copy_of_the_data(sparse):
    peak, _ = _traced_train(sparse, "shuffle_always")
    assert peak <= 1.25


def test_shuffle_once_frees_its_gathered_copy_when_train_returns():
    _, held = _traced_train(False, "shuffle_once")
    assert held <= 1.05
