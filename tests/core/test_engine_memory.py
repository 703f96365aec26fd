"""Engine memory during and after training, as ratios of the decoded data.

``tracemalloc`` measures what the engine allocates from just before
``train()``: the decoded chunk list is one copy of the user's data (the
ratio's denominator).  A ``shuffle_always`` run walks every fresh order over
that one copy, so its peak stays near it; a ``shuffle_once`` run gathers its
reused order once, and that copy is freed with the run's ordering policy
when ``train()`` returns.  A table loaded from the rows of one matrix
decodes to views of that matrix, so its decoded chunk list allocates next to
nothing; per-row arrays still decode to a copy.  These are allocation
ratios, not wall-clock.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.core.uda import IGDAggregate
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import Database
from repro.tasks import LogisticRegressionTask
from repro.tasks.base import SupervisedExample

ARRAYS = ("X", "y", "indptr", "indices", "data")


def _loaded(sparse: bool, rows: int = 3000, one_matrix: bool = False):
    if sparse:
        data = make_sparse_classification(rows, 2000, nonzeros_per_example=25, seed=3)
    else:
        data = make_dense_classification(rows, 54, seed=3)
    examples = data.examples
    if one_matrix:
        X = np.stack([example.features for example in examples])
        examples = [SupervisedExample(x, example.label) for x, example in zip(X, examples)]
    database = Database("postgres", seed=0)
    # Decoding holds one chunk's per-row views at a time: keep that small
    # beside the table, as the default 4096-row chunks are beside big ones.
    database.executor.chunk_size = 250
    table = load_classification_table(database, "points", examples, sparse=sparse)
    return database, table, LogisticRegressionTask(data.dimension)


def _traced_train(sparse: bool, ordering: str, one_matrix: bool = False) -> tuple[float, float]:
    """(peak inside ``train()``, bytes still held after it) over the decoded bytes."""
    config = IGDConfig(step_size=0.05, max_epochs=3, ordering=ordering, seed=1)
    # A first run on a small table does the lazy imports outside the trace.
    warm, _, task = _loaded(sparse, rows=50, one_matrix=one_matrix)
    train(task, warm, "points", config=config)
    database, table, task = _loaded(sparse, one_matrix=one_matrix)
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


def test_rows_of_one_matrix_decode_to_views_of_it():
    peak, held = _traced_train(False, "clustered", one_matrix=True)
    assert peak <= 0.5
    assert held <= 0.05


def test_close_frees_the_decoded_batches_without_a_collection():
    database, table, task = _loaded(False, rows=300)
    train(task, database, "points", config=IGDConfig(max_epochs=2, ordering="shuffle_once"))
    cache = database.executor.example_cache
    batches = cache.batches_for(table, task, database.executor.chunk_size)
    # An order still alive at close: its second pass kept a gathered copy.
    order = np.arange(len(table))[::-1].copy()
    for _ in range(2):
        plan = database.executor.chunk_plan(table, IGDAggregate(task, 0.1), row_order=order)
    labels = [weakref.ref(batches[0].y), weakref.ref(plan.batches[0].y)]
    counters = (cache.hits, cache.misses, cache.decoded_rows)
    del batches, plan
    gc.disable()
    try:
        database.close()
        assert [label() for label in labels] == [None, None]
    finally:
        gc.enable()
    assert (cache.hits, cache.misses, cache.decoded_rows) == counters
    assert len(cache) == 0
