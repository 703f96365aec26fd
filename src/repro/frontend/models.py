"""Persisted model tables: save and load trained models as relations.

Following Section 2.1 of the paper, a trained model "is then persisted as a
user table" named by the caller (e.g. ``myModel``).  We store every model as a
generic long-format relation ``(component, idx, value)`` where ``idx`` is the
flattened index inside the component array, plus a companion ``<name>_meta``
table describing component shapes so the model can be reconstructed exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.model import Model
from ..db.engine import Database
from ..db.parallel import SegmentedDatabase
from ..db.types import ColumnType

DatabaseLike = "Database | SegmentedDatabase"


def _catalog(database) -> Database:
    return database.master if isinstance(database, SegmentedDatabase) else database


#: Meta-table component name recording which table (and at which version) the
#: model was trained over.  ``__``-prefixed names are reserved bookkeeping
#: rows, never model components.
SOURCE_COMPONENT = "__source__"


def save_model(
    database,
    model_name: str,
    model: Model,
    *,
    source_table: str | None = None,
    table_version: int | None = None,
) -> None:
    """Persist a model into ``model_name`` (+ ``model_name_meta``).

    When ``source_table``/``table_version`` are given, the meta table also
    records the training watermark — which table the model absorbed, at which
    ledger version — so a later retrain can continue incrementally over just
    the rows appended since (see :func:`trained_source`).

    Model tables are ordinary catalog tables, so on a durable engine their
    creation and rows flow through the WAL like any other DDL/DML — a crash
    right after ``save_model`` returns loses nothing.
    """
    catalog = _catalog(database)
    for table_name in (model_name, f"{model_name}_meta"):
        if catalog.has_table(table_name):
            catalog.drop_table(table_name)

    values_table = catalog.create_table(
        model_name,
        [("component", ColumnType.TEXT), ("idx", ColumnType.INTEGER), ("value", ColumnType.FLOAT)],
    )
    meta_table = catalog.create_table(
        f"{model_name}_meta",
        [("component", ColumnType.TEXT), ("shape", ColumnType.TEXT)],
    )
    for component_name, array in model.items():
        meta_table.insert((component_name, ",".join(str(s) for s in array.shape)))
        flat = array.ravel()
        values_table.insert_many(
            (component_name, int(index), float(value)) for index, value in enumerate(flat)
        )
    if source_table is not None and table_version is not None and table_version >= 0:
        meta_table.insert((SOURCE_COMPONENT, f"{source_table.lower()}@{table_version}"))


def load_model(database, model_name: str) -> Model:
    """Reconstruct a model previously stored by :func:`save_model`."""
    catalog = _catalog(database)
    values_table = catalog.table(model_name)
    meta_table = catalog.table(f"{model_name}_meta")

    shapes: dict[str, tuple[int, ...]] = {}
    for row in meta_table.scan():
        if row["component"].startswith("__"):  # reserved bookkeeping rows
            continue
        shape = tuple(int(part) for part in row["shape"].split(",") if part != "")
        shapes[row["component"]] = shape or (1,)

    arrays = {name: np.zeros(int(np.prod(shape))) for name, shape in shapes.items()}
    for row in values_table.scan():
        if row["component"] in arrays:
            arrays[row["component"]][row["idx"]] = row["value"]
    return Model({name: arrays[name].reshape(shapes[name]) for name in shapes})


def trained_source(database, model_name: str) -> tuple[str, int] | None:
    """The ``(table_name, table_version)`` watermark a model was trained at.

    ``None`` when the model predates watermarking (or was saved without one)
    — callers must then fall back to full retraining.
    """
    catalog = _catalog(database)
    if not catalog.has_table(f"{model_name}_meta"):
        return None
    for row in catalog.table(f"{model_name}_meta").scan():
        if row["component"] == SOURCE_COMPONENT:
            name, _, version = row["shape"].rpartition("@")
            try:
                return name, int(version)
            except ValueError:
                return None
    return None


def model_exists(database, model_name: str) -> bool:
    catalog = _catalog(database)
    return catalog.has_table(model_name) and catalog.has_table(f"{model_name}_meta")
