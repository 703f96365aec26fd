"""A walked pass is bit-for-bit its gathered reference.

The chunk plane walks a visit order the first time it sees it — the IGD
kernels step its ordinals over the cached chunks in ``Visits`` windows —
and gathers it only when the same order comes back.  The generated property
below pins that both run the same float operations in the same order: for
six tasks, chunk sizes {1, 3, 7, 4096}, orders with repeats, a WHERE filter
and an appended tail, a walked pass, the same order's kept gathered copy,
the pool worker's fold and the shared-memory ``lock`` windows (both run in
this process) all reproduce the model of folding the gathered chunks.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.uda import IGDAggregate
from repro.data import (
    load_classification_table,
    load_ratings_table,
    load_returns_table,
    load_sequences_table,
    make_dense_classification,
    make_portfolio_returns,
    make_ratings,
    make_sequences,
    make_sparse_classification,
)
from repro.db import Database
from repro.db.chunk_plan import ChunkPlan, gather_batches, resolve_ordinals
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.process_backend import (
    _run_shmem_epoch,
    _run_uda_state,
    batches_payload_key,
)
from repro.db.shared_memory import SharedMemoryArena
from repro.tasks import (
    ConditionalRandomFieldTask,
    LogisticRegressionTask,
    LowRankMatrixFactorizationTask,
    PortfolioOptimizationTask,
    SVMTask,
)
from repro.tasks.least_squares import LinearRegressionTask

pytestmark = pytest.mark.backends

STEP = 0.01


def _classification(task_cls):
    def setup(rows, sparse, seed):
        data = (
            make_sparse_classification(rows, 12, nonzeros_per_example=3, seed=seed) if sparse
            else make_dense_classification(rows, 4, seed=seed)
        )
        load = lambda db, examples: load_classification_table(  # noqa: E731
            db, "t", examples, sparse=sparse
        )
        return data.examples, load, task_cls(data.dimension), "id"
    return setup


def _ratings(rows, sparse, seed):
    data = make_ratings(8, 6, rows, rank=2, seed=seed)
    task = LowRankMatrixFactorizationTask(data.num_rows, data.num_cols, rank=2, mu=0.01)
    return data.examples, lambda db, examples: load_ratings_table(db, "t", examples), task, "row_id"


def _sequences(rows, sparse, seed):
    corpus = make_sequences(rows, num_labels=3, mean_length=4, seed=seed)
    task = ConditionalRandomFieldTask(corpus.num_features, corpus.num_labels)
    return corpus.examples, lambda db, examples: load_sequences_table(db, "t", examples), task, "id"


def _returns(rows, sparse, seed):
    data = make_portfolio_returns(4, rows, seed=seed)
    task = PortfolioOptimizationTask(data.num_assets, data.expected_returns, num_samples=rows)
    return data.examples, lambda db, examples: load_returns_table(db, "t", examples), task, "id"


SETUPS = {
    "lr": _classification(LogisticRegressionTask),
    "svm": _classification(SVMTask),
    "least_squares": _classification(LinearRegressionTask),
    "lmf": _ratings,
    "crf": _sequences,
    "portfolio": _returns,
}


@st.composite
def walked_passes(draw):
    """(task, sparse, rows, rows appended after the decode, order, WHERE
    threshold, chunk size, lock window)."""
    rows = draw(st.integers(4, 24))
    appended = draw(st.integers(0, rows // 2))
    order = draw(st.none() | st.lists(st.integers(0, rows - 1), max_size=2 * rows))  # repeats
    threshold = draw(st.none() | st.integers(0, rows))
    return (
        draw(st.sampled_from(sorted(SETUPS))), draw(st.booleans()), rows, appended, order,
        threshold, draw(st.sampled_from([1, 3, 7, 4096])), draw(st.integers(1, 5)),
    )


def _flat(model) -> np.ndarray:
    return model.as_flat_vector()


@settings(max_examples=40, deadline=None)
@given(walked_passes())
def test_walked_passes_are_bit_for_bit_the_gathered_reference(drawn):
    name, sparse, rows, appended, order, threshold, chunk_size, window = drawn
    examples, load, task, where_column = SETUPS[name](rows, sparse, rows)
    full = load(Database("postgres", seed=0), examples)
    database = Database("postgres", seed=0)
    database.executor.chunk_size = chunk_size
    table = load(database, examples[:rows - appended])
    cache = database.executor.example_cache
    cache.batches_for(table, task, chunk_size)  # decoded before the append: the tail extends
    database.insert("t", full.tail_values(rows - appended))
    where = None if threshold is None else BinaryOp(
        "<", ColumnRef(where_column), Literal(threshold)
    )
    initial = task.initial_model(np.random.default_rng(0))
    make = lambda: IGDAggregate(task, STEP, initial_model=initial)  # noqa: E731

    # The reference: fold the gathered copy of the resolved ordinals.
    batches = cache.batches_for(table, task, chunk_size)
    ordinals = resolve_ordinals(table, cache, database.executor.functions, where, order)
    reference = make()
    state = reference.initialize()
    for batch in gather_batches(batches, ordinals, chunk_size):
        state = reference.transition_chunk(state, batch)
    expected = _flat(reference.terminate(state))

    # In process: first sight walks, the same order object again reads its
    # gathered copy.
    row_order = None if order is None else np.array(order, dtype=np.intp)
    ordered = not (order is None and where is None)
    for walked in (ordered, False):
        plan = ChunkPlan.resolve(
            table, task, cache, chunk_size, where=where, row_order=row_order,
            functions=database.executor.functions, walks=True,
        )
        assert (plan.ordinals is not None) == walked
        aggregate = make()
        state = aggregate.initialize()
        for batch in plan:
            state = aggregate.transition_chunk(state, batch)
        assert np.array_equal(_flat(aggregate.terminate(state)), expected)
    fresh = None if order is None else np.array(order, dtype=np.intp)
    model = database.run_aggregate("t", make(), where=where, row_order=fresh)
    assert np.array_equal(_flat(model), expected)

    # A pool worker's fold, by value: new ordinals walk, an equal repeat gathers.
    key = batches_payload_key(table, task, chunk_size)
    payloads = {key: list(batches)}
    sent = lambda: np.array(ordinals, dtype=np.intp)  # noqa: E731 - what the pipe delivers
    for _ in range(2):
        worker = _run_uda_state(payloads, ("uda_state", key, make(), sent()))
        assert np.array_equal(_flat(worker.model), expected)

    # One shared-memory worker under ``lock``: its staleness windows are
    # Visits sub-windows, stepped on the model segment's pages in turn (a
    # fresh worker: the first epoch walks, the second reads the kept copy).
    payloads = {key: list(batches)}
    arena = SharedMemoryArena()
    try:
        for _ in range(2):
            segment = arena.allocate_from("model", _flat(initial))
            steps = _run_shmem_epoch(payloads, threading.Lock(), {
                "key": key, "task": task, "os_name": segment.os_name, "shape": segment.shape,
                "scheme": "lock", "global_ordinals": range(len(ordinals)),
                "example_ordinals": sent(), "schedule": reference.schedule,
                "proximal": reference.proximal, "epoch": 0, "step_offset": 0,
                "staleness": window,
                "model_shapes": {c: initial[c].shape for c in initial.component_names()},
            })
            assert steps == len(ordinals)
            assert np.array_equal(segment.array, expected)
            arena.free("model")
    finally:
        arena.free_all()


def test_chunk_plan_repr_names_how_the_pass_reads():
    data = make_dense_classification(20, 3, seed=1)
    database = Database("postgres", seed=0)
    table = load_classification_table(database, "t", data.examples, sparse=False)
    task = LogisticRegressionTask(data.dimension)
    cache = database.executor.example_cache
    order = np.arange(20)[::-1].copy()
    plans = [
        ChunkPlan.resolve(table, task, cache, 8),
        ChunkPlan.resolve(table, task, cache, 8, row_order=order[:5]),
        ChunkPlan.resolve(table, task, cache, 8, row_order=order),
        ChunkPlan.resolve(table, task, cache, 8, row_order=order),
    ]
    assert [repr(plan) for plan in plans] == [
        "ChunkPlan(table='t', examples=20, walked=False)",  # heap order
        "ChunkPlan(table='t', examples=5, walked=True)",    # first sight of a subset
        "ChunkPlan(table='t', examples=20, walked=True)",   # first sight of the order
        "ChunkPlan(table='t', examples=20, walked=False)",  # its kept gathered copy
    ]
