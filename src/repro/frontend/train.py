"""MADlib-mimicking SQL training functions.

Section 2.1 of the paper shows the end-user interface::

    SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label');

:func:`install_frontend` registers that family of scalar functions
(``SVMTrain``, ``LRTrain``, ``LassoTrain``, ``LMFTrain``, ``CRFTrain``) on a
database so exactly that query works.  Each function infers the model
dimensions from the data, trains with the Bismarck runner (shuffle-once,
shared defaults), persists the model as a user table, and returns a short
summary string — mirroring how MADlib's training functions behave.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from ..core.driver import BismarckRunner, IGDConfig
from ..db.engine import Database
from ..db.parallel import SegmentedDatabase
from ..db.types import SparseVector
from ..tasks.crf import ConditionalRandomFieldTask
from ..tasks.lasso import LassoTask
from ..tasks.logistic_regression import LogisticRegressionTask
from ..tasks.matrix_factorization import LowRankMatrixFactorizationTask
from ..tasks.svm import SVMTask
from .models import load_model, model_exists, save_model, trained_source

DEFAULT_EPOCHS = 10
DEFAULT_STEP_SIZE = {"kind": "epoch_decay", "alpha0": 0.1, "decay": 0.95}
#: During incremental continuation, run one pass over the whole table every
#: this many delta epochs so old rows keep influencing the refreshed model.
DEFAULT_FULL_PASS_EVERY = 4


def _catalog(database) -> Database:
    return database.master if isinstance(database, SegmentedDatabase) else database


def _infer_feature_dimension(table, feature_column: str, memo: "dict | None" = None) -> int:
    """Dimensionality of the feature column: array length or max sparse index + 1.

    ``memo`` remembers ``(table, version, dimension)`` per column, so a call
    after an append-only delta reads only the appended rows; a rewrite, or a
    new table under an old name, rescans.
    """
    index = table.schema.index_of(feature_column)
    key = (table.name.lower(), feature_column)
    dimension, start = 0, 0
    known = memo.get(key) if memo is not None else None
    if known is not None and known[0]() is table:
        delta = table.classify_delta(known[1])
        if delta.is_same or delta.is_append:
            dimension, start = known[2], delta.base_rows
    for values in table.tail_values(start):
        features = values[index]
        # Stored sparse values and arrays never reach the ABC check, most of a row's cost.
        if type(features) is SparseVector:
            if features:
                dimension = max(dimension, int(features.indices.max()) + 1)
        elif not isinstance(features, np.ndarray) and isinstance(features, Mapping):
            if features:
                dimension = max(dimension, max(features) + 1)
        else:
            dimension = max(dimension, len(features))
    if dimension == 0:
        raise ValueError(f"could not infer a feature dimension from column {feature_column!r}")
    if memo is not None:
        memo[key] = (weakref.ref(table), table.version, dimension)
    return dimension


def _warm_start(database, task, table_name: str, model_name: str):
    """A ``(model, since_version)`` continuation point, or ``None``.

    Retraining an existing model over the same (possibly grown) table
    continues from the persisted watermark instead of starting cold — the
    driver's :meth:`~repro.core.driver.BismarckRunner.partial_fit` then
    decides, from the table's ledger, whether the delta is append-only
    (incremental epochs) or a rewrite (full retrain).  A dimension change
    (e.g. appended rows widened the feature space) disqualifies the warm
    model: its arrays no longer match the task.
    """
    catalog = _catalog(database)
    if not model_exists(catalog, model_name):
        return None
    source = trained_source(catalog, model_name)
    if source is None or source[0] != table_name.lower():
        return None
    model = load_model(catalog, model_name)
    probe = task.initial_model(np.random.default_rng(0))
    if model.component_names() != probe.component_names() or any(
        model[name].shape != probe[name].shape for name in probe.component_names()
    ):
        return None
    return model, source[1]


def _train_and_persist(database, task, table_name: str, model_name: str, config: IGDConfig) -> str:
    catalog = _catalog(database)
    if getattr(catalog, "durable", False) and config.checkpoint_every <= 0:
        # Durable engines get crash-safe training for free: log the training
        # state every epoch under the model's name, so an interrupted SQL
        # train resumes instead of restarting.
        config = replace(
            config, checkpoint_every=1, checkpoint_name=model_name.lower()
        )
    state_name = (config.checkpoint_name or model_name).lower()
    runner = BismarckRunner(database, task, config)

    state = catalog.training_state(state_name)
    if (
        state is not None
        and state.task == task.describe()
        and state.table_name == table_name.lower()
    ):
        # A crash interrupted this exact training run mid-way: continue it
        # from the recovered TrainingState (bit-for-bit for deterministic
        # schemes) rather than warm-starting from the last *persisted* model.
        result = runner.partial_fit(table_name, resume_from=state)
        mode = "resumed"
    else:
        warm = _warm_start(database, task, table_name, model_name)
        if warm is not None:
            result = runner.partial_fit(
                table_name,
                initial_model=warm[0],
                since_version=warm[1],
                full_pass_every=DEFAULT_FULL_PASS_EVERY,
            )
            mode = "continued" if result.ordering_name.startswith("delta") else "retrained"
        else:
            result = runner.train(table_name)
            mode = "trained"
    save_model(
        database, model_name, result.model,
        source_table=table_name, table_version=result.table_version,
    )
    # Only after the model is durably persisted (its tables went through the
    # WAL) may the in-flight training state be forgotten: a crash between
    # training and save_model must still resume.  The clearing is logged too,
    # so a cleared state does not come back after a crash.
    catalog.clear_training_state(state_name)
    return (
        f"model '{model_name}' {mode} with {task.name}: "
        f"epochs={result.epochs_run}, objective={result.final_objective:.6g}"
    )


def _config(step_size: Any = None, epochs: int | None = None, **overrides) -> IGDConfig:
    return IGDConfig(
        step_size=step_size if step_size is not None else dict(DEFAULT_STEP_SIZE),
        max_epochs=int(epochs) if epochs is not None else DEFAULT_EPOCHS,
        ordering="shuffle_once",
        **overrides,
    )


def install_frontend(database: Database | SegmentedDatabase) -> None:
    """Register the training and prediction SQL functions on ``database``."""
    catalog = _catalog(database)

    # The example cache keys decoded entries on the task *instance*, so a
    # retrain must reuse the exact task object to extend cached chunks
    # incrementally instead of re-decoding the table.  Memoise tasks on
    # their full parameterisation — a dimension change (appended rows
    # widened the feature space) naturally maps to a fresh task.
    task_cache: dict[tuple, Any] = {}
    # What ``_infer_feature_dimension`` last saw per (table, feature column).
    dimension_memo: dict[tuple, tuple] = {}

    def _cached_task(key: tuple, build):
        task = task_cache.get(key)
        if task is None:
            task = task_cache[key] = build()
        return task

    def lr_train(model_name: str, table_name: str, feature_column: str, label_column: str,
                 step_size: float | None = None, epochs: int | None = None,
                 mu: float = 0.0) -> str:
        table = catalog.table(table_name)
        dimension = _infer_feature_dimension(table, feature_column, dimension_memo)
        task = _cached_task(
            ("lr", dimension, mu, feature_column, label_column),
            lambda: LogisticRegressionTask(
                dimension, mu=mu, feature_column=feature_column, label_column=label_column
            ),
        )
        return _train_and_persist(database, task, table_name, model_name, _config(step_size, epochs))

    def svm_train(model_name: str, table_name: str, feature_column: str, label_column: str,
                  step_size: float | None = None, epochs: int | None = None,
                  mu: float = 0.0) -> str:
        table = catalog.table(table_name)
        dimension = _infer_feature_dimension(table, feature_column, dimension_memo)
        task = _cached_task(
            ("svm", dimension, mu, feature_column, label_column),
            lambda: SVMTask(
                dimension, mu=mu, feature_column=feature_column, label_column=label_column
            ),
        )
        return _train_and_persist(database, task, table_name, model_name, _config(step_size, epochs))

    def lasso_train(model_name: str, table_name: str, feature_column: str, label_column: str,
                    mu: float = 0.1, step_size: float | None = None,
                    epochs: int | None = None) -> str:
        table = catalog.table(table_name)
        dimension = _infer_feature_dimension(table, feature_column, dimension_memo)
        task = _cached_task(
            ("lasso", dimension, mu, feature_column, label_column),
            lambda: LassoTask(
                dimension, mu=mu, feature_column=feature_column, label_column=label_column
            ),
        )
        return _train_and_persist(database, task, table_name, model_name, _config(step_size, epochs))

    def lmf_train(model_name: str, table_name: str, row_column: str = "row_id",
                  col_column: str = "col_id", value_column: str = "rating",
                  rank: int = 10, step_size: float | None = None,
                  epochs: int | None = None, mu: float = 0.01) -> str:
        table = catalog.table(table_name)
        row_index, col_index = table.schema.index_of(row_column), table.schema.index_of(col_column)
        cells = [(int(v[row_index]), int(v[col_index])) for v in table.tail_values(0)]
        num_rows, num_cols = (max(ids) + 1 for ids in zip(*cells))
        task = _cached_task(
            ("lmf", num_rows, num_cols, int(rank), mu, row_column, col_column, value_column),
            lambda: LowRankMatrixFactorizationTask(
                num_rows,
                num_cols,
                rank=int(rank),
                mu=mu,
                row_column=row_column,
                col_column=col_column,
                value_column=value_column,
            ),
        )
        effective_step = step_size if step_size is not None else 0.05
        return _train_and_persist(
            database, task, table_name, model_name, _config(effective_step, epochs)
        )

    def crf_train(model_name: str, table_name: str, tokens_column: str = "tokens",
                  labels_column: str = "labels", step_size: float | None = None,
                  epochs: int | None = None) -> str:
        table = catalog.table(table_name)
        probe_task = ConditionalRandomFieldTask(
            1_000_000, 2, features_column=tokens_column, labels_column=labels_column
        )
        max_feature = 0
        max_label = 1
        for row in table.scan():
            example = probe_task.example_from_row(row)
            for features in example.token_features:
                if features:
                    max_feature = max(max_feature, max(features))
            max_label = max(max_label, max(example.labels))
        task = _cached_task(
            ("crf", max_feature + 1, max_label + 1, tokens_column, labels_column),
            lambda: ConditionalRandomFieldTask(
                max_feature + 1,
                max_label + 1,
                features_column=tokens_column,
                labels_column=labels_column,
            ),
        )
        return _train_and_persist(database, task, table_name, model_name, _config(step_size, epochs))

    catalog.register_function("lrtrain", lr_train)
    catalog.register_function("svmtrain", svm_train)
    catalog.register_function("lassotrain", lasso_train)
    catalog.register_function("lmftrain", lmf_train)
    catalog.register_function("crftrain", crf_train)

    # Prediction functions are registered alongside training so one install
    # call wires up the whole MADlib-style surface.
    from .predict import install_prediction_functions

    install_prediction_functions(database)
