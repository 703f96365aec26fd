"""Experiments E2/E3 — Tables 2 and 3: the UDA call boundary and state passing.

The paper's Table 2 says one epoch of IGD written as a user-defined aggregate
costs little more than a strawman NULL aggregate that scans the same tuples;
its Table 3 says keeping the model in shared memory removes the cost of
passing it across the function-call boundary.  This engine has both
mechanisms for real, so the tables time those (mechanisms, not engines):

* Table 2, per task: the NULL aggregate and the IGD aggregate over the
  ``per_tuple`` protocol (row formation + one ``transition`` call per tuple),
  with the ``chunked`` path and a pure-UDA pass over 8 in-process parts
  beside them.
* Table 3, per model shape: a pooled pure-UDA epoch (each part's message
  carries the pickled state down the pipe, and the reply brings it back)
  against a pooled ``nolock`` epoch (the model stays in mmap'd pages) at
  equal workers — in seconds and in the op-message bytes the pool counted
  (``transport_stats["op_bytes_shipped"]``, the outbound half).

Every timing is the best of ``repeats`` warm epochs; each rendered table ends
with the paper's claim and a verdict computed from the rows above it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.uda import IGDAggregate
from ..db.aggregates import NullAggregate
from ..db.engine import Database
from ..db.pass_plan import run_partitioned
from ..db.process_backend import available_cores, run_process_shared_memory_epoch
from ..db.shared_memory import SharedMemoryParallelism
from ..data import (
    load_classification_table,
    load_ratings_table,
    make_dense_classification,
    make_ratings,
    make_sparse_classification,
)
from ..tasks.logistic_regression import LogisticRegressionTask
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask
from ..tasks.svm import SVMTask
from .harness import ExperimentScale, overhead_percent, resolve_scale, time_callable
from .reporting import render_table

STEP_SIZE = 0.05
#: Table 3's pool width, the same for both mechanisms.
POOL_WORKERS = 2
#: Table 3's model-dimension sweep: one sparse table, LR models of these widths.
MODEL_DIMENSIONS = (54, 2_000, 100_000)
#: The paper's worst Table 2 row (LMF) costs about this much over NULL.
PAPER_WORST_OVERHEAD_PCT = 250.0


@dataclass(frozen=True)
class OverheadRow:
    """One (task, configuration) measurement."""

    task: str
    configuration: str
    seconds: float
    #: Table 3 only: op-message bytes sent per epoch, and the model's size.
    pipe_bytes: int = 0
    model_bytes: int = 0


@dataclass
class OverheadTableResult:
    """All rows of Table 2 (``pure_uda``) or Table 3 (``shared_memory``)."""

    variant: str
    rows: list[OverheadRow]

    def tasks(self) -> list[str]:
        return list(dict.fromkeys(row.task for row in self.rows))

    def row(self, task: str, configuration: str) -> OverheadRow:
        return next(r for r in self.rows if (r.task, r.configuration) == (task, configuration))

    def overhead_pct(self, task: str) -> float:
        """Table 2: per-tuple IGD over the per-tuple NULL aggregate."""
        return overhead_percent(
            self.row(task, "null").seconds, self.row(task, "per_tuple").seconds
        )

    def model_copies_per_worker(self, configuration: str) -> float:
        """Table 3: pipe-byte growth per worker over model-byte growth, across the sweep."""
        low, high = (
            self.row(f"LR d={d}", configuration)
            for d in (MODEL_DIMENSIONS[0], MODEL_DIMENSIONS[-1])
        )
        grown = (high.pipe_bytes - low.pipe_bytes) / POOL_WORKERS
        return grown / (high.model_bytes - low.model_bytes)

    def verdict(self) -> str:
        """reproduced / not reproduced here / not measurable here, from the rows."""
        if self.variant == "pure_uda":
            worst = max(self.overhead_pct(task) for task in self.tasks())
            held = worst <= PAPER_WORST_OVERHEAD_PCT
            detail = f"worst per-tuple overhead over NULL {worst:.0f}%"
        elif available_cores() < POOL_WORKERS:
            return f"not measurable here ({POOL_WORKERS} workers share {available_cores()} core)"
        else:
            copies = {name: self.model_copies_per_worker(name) for name in ("pure_uda", "nolock")}
            widest = f"LR d={MODEL_DIMENSIONS[-1]}"
            seconds = {name: self.row(widest, name).seconds for name in copies}
            held = (
                copies["nolock"] < 0.01 and copies["pure_uda"] >= 1.0
                and seconds["nolock"] <= seconds["pure_uda"]
            )
            detail = (
                f"model copies on the pipe per worker per epoch, by pipe-byte growth over "
                f"model-byte growth: pure UDA {copies['pure_uda']:.2f}, NoLock "
                f"{copies['nolock']:.2f}; at {widest} NoLock takes "
                f"{seconds['nolock'] / seconds['pure_uda']:.2f}x the pure-UDA epoch"
            )
        return f"{'reproduced' if held else 'not reproduced here'} ({detail})"

    def render(self) -> str:
        table2 = self.variant == "pure_uda"
        configurations = list(dict.fromkeys(row.configuration for row in self.rows))
        body = []
        for task in self.tasks():
            measured = [self.row(task, name) for name in configurations]
            cells = [f"{row.seconds * 1000:.2f}ms" for row in measured]
            if table2:
                cells.append(f"{self.overhead_pct(task):.1f}%")
            else:
                cells += [measured[0].model_bytes, *(row.pipe_bytes for row in measured)]
            body.append([task, *cells])
        if table2:
            headers = ["Task", *configurations, "per_tuple over null"]
            title = "Table 2 (measured): one IGD epoch as a UDA vs the NULL aggregate"
            claim = "IGD as a UDA costs little over a NULL aggregate scanning the same tuples."
        else:
            headers = ["Model", *configurations, "model B"]
            headers += [f"{name} pipe B" for name in configurations]
            title = (
                f"Table 3 (measured): one pooled epoch on {POOL_WORKERS} workers, state "
                "down the pipe vs model in shared pages"
            )
            claim = "a model kept in shared memory is not passed across the function-call boundary."
        table = render_table(headers, body, title=title)
        return f"{table}\nPaper's claim: {claim}\nVerdict: {self.verdict()}"


def _measure(task: str, epochs: dict, repeats: int, pool=None, model_bytes: int = 0) -> list:
    """Best of ``repeats`` warm runs per epoch; with ``pool``, its op bytes per run too."""
    stats = pool.transport_stats if pool is not None else {"op_bytes_shipped": 0}
    rows = []
    for name, epoch in epochs.items():
        before = stats["op_bytes_shipped"]
        epoch()  # warm: decode cache, pool fork and payload publication happen once
        seconds = time_callable(epoch, repeats=repeats).minimum
        # Every run (the warm one included) sends the same messages.
        shipped = (stats["op_bytes_shipped"] - before) // (repeats + 1)
        rows.append(OverheadRow(task, name, seconds, shipped, model_bytes))
    return rows


def _table2_rows(database: Database, scale: ExperimentScale, repeats: int) -> list[OverheadRow]:
    dense = make_dense_classification(scale.dense_examples, scale.dense_dimension, seed=0)
    sparse = make_sparse_classification(
        scale.sparse_examples, scale.sparse_dimension,
        nonzeros_per_example=scale.sparse_nonzeros, seed=1,
    )
    ratings = make_ratings(scale.rating_rows, scale.rating_cols, scale.num_ratings, rank=5, seed=2)
    load_classification_table(database, "forest_like", dense.examples, sparse=False)
    load_classification_table(database, "dblife_like", sparse.examples, sparse=True)
    load_ratings_table(database, "movielens_like", ratings.examples)
    workloads = [
        ("forest_like", "LR", LogisticRegressionTask(dense.dimension)),
        ("forest_like", "SVM", SVMTask(dense.dimension)),
        ("dblife_like", "LR", LogisticRegressionTask(sparse.dimension)),
        ("dblife_like", "SVM", SVMTask(sparse.dimension)),
        ("movielens_like", "LMF",
         LowRankMatrixFactorizationTask(ratings.num_rows, ratings.num_cols, rank=5, mu=0.01)),
    ]
    rows = []
    for table_name, task_name, task in workloads:
        table = database.table(table_name)
        epochs = {
            "null": lambda: database.run_aggregate(table_name, NullAggregate()),
            "per_tuple": lambda: database.run_aggregate(
                table_name, IGDAggregate(task, STEP_SIZE), per_tuple=True
            ),
            "chunked": lambda: database.run_aggregate(table_name, IGDAggregate(task, STEP_SIZE)),
            # The paper's DBMS B ran 8 segments.
            "pure_uda_x8": lambda: run_partitioned(
                database, table, IGDAggregate(task, STEP_SIZE), workers=8
            ),
        }
        rows += _measure(f"{table_name} {task_name}", epochs, repeats)
    return rows


def _table3_rows(database: Database, scale: ExperimentScale, repeats: int) -> list[OverheadRow]:
    sparse = make_sparse_classification(
        scale.sparse_examples, MODEL_DIMENSIONS[0],
        nonzeros_per_example=scale.sparse_nonzeros, seed=1,
    )
    ratings = make_ratings(scale.rating_rows, scale.rating_cols, scale.num_ratings, rank=5, seed=2)
    load_classification_table(database, "dblife_like", sparse.examples, sparse=True)
    load_ratings_table(database, "movielens_like", ratings.examples)
    lmf = LowRankMatrixFactorizationTask(ratings.num_rows, ratings.num_cols, rank=5, mu=0.01)
    workloads = [
        ("dblife_like", f"LR d={d}", LogisticRegressionTask(d)) for d in MODEL_DIMENSIONS
    ] + [("movielens_like", f"LMF {ratings.num_rows}x{ratings.num_cols} r5", lmf)]
    pool = database.process_pool(POOL_WORKERS)
    spec = SharedMemoryParallelism(scheme="nolock", workers=POOL_WORKERS, backend="process")
    rows = []
    for table_name, label, task in workloads:
        table = database.table(table_name)
        model = task.initial_model()
        epochs = {
            # What a pure-UDA training epoch sends: the aggregate holds the state.
            "pure_uda": lambda: run_partitioned(
                database, table, IGDAggregate(task, STEP_SIZE, initial_model=model),
                workers=POOL_WORKERS, on_pool=True,
            ),
            "nolock": lambda: run_process_shared_memory_epoch(
                table, task, model, STEP_SIZE, spec=spec, pool=pool,
                arena=database.shared_memory, executor=database.executor,
            ),
        }
        rows += _measure(label, epochs, repeats, pool, 8 * model.num_parameters)
    return rows


def run_overhead_table(
    variant: str = "pure_uda",
    scale: ExperimentScale | str | None = None,
    *,
    repeats: int = 2,
) -> OverheadTableResult:
    """Measure Table 2 (``variant='pure_uda'``) or Table 3 (``'shared_memory'``)."""
    if variant not in ("pure_uda", "shared_memory"):
        raise ValueError("variant must be 'pure_uda' or 'shared_memory'")
    measure = _table2_rows if variant == "pure_uda" else _table3_rows
    with Database("overhead", seed=0) as database:
        return OverheadTableResult(variant, measure(database, resolve_scale(scale), repeats))
