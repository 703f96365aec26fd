"""Quickstart: train an SVM inside the database, exactly like Section 2.1.

Creates an in-memory database, loads a LabeledPapers-style table, installs the
MADlib-mimicking front end and runs

    SELECT SVMTrain('myModel', 'labeledpapers', 'vec', 'label');

then evaluates the persisted model with a second SQL call.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.data import load_classification_table, make_dense_classification
from repro.db import Database
from repro.frontend import install_frontend, load_model


def main() -> None:
    # 1. Stand up a database ("postgres" is a display label, nothing more) and load data.
    database = Database("postgres", seed=0)
    dataset = make_dense_classification(num_examples=1000, dimension=54, seed=0)
    load_classification_table(database, "labeledpapers", dataset.examples, sparse=False)
    print(f"Loaded {len(dataset)} labelled examples into table 'labeledpapers'.")

    # 2. Install the SQL front end (SVMTrain / LRTrain / ... / predictors).
    install_frontend(database)

    # 3. Train with one SQL statement — the query from the paper.
    message = database.execute(
        "SELECT SVMTrain('myModel', 'labeledpapers', 'vec', 'label')"
    ).scalar()
    print(message)

    # 4. The model is persisted as an ordinary table; query it like any other.
    coefficients = load_model(database, "myModel")["w"]
    print(f"Model has {coefficients.shape[0]} coefficients; "
          f"largest magnitude = {abs(coefficients).max():.3f}")

    # 5. Apply the model with SQL as well.
    accuracy = database.execute(
        "SELECT ClassifyAccuracy('myModel', 'labeledpapers', 'vec', 'label')"
    ).scalar()
    print(f"Training-set accuracy: {accuracy:.3f}")

    # 6. And score new rows into an output table.
    print(database.execute(
        "SELECT SVMPredict('myModel', 'labeledpapers', 'vec', 'paper_scores')"
    ).scalar())
    print(f"Scores table holds {len(database.table('paper_scores'))} rows.")


if __name__ == "__main__":
    main()
