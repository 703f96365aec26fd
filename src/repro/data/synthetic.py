"""Synthetic classification datasets standing in for Forest and DBLife.

The paper's dense benchmark (Forest CoverType: 581k examples x 54 features)
and sparse benchmark (DBLife: 16k examples x 41k features) are replaced by
generators that reproduce their *shape* at laptop scale: a dense
low-dimensional linearly-separable-ish problem and a sparse high-dimensional
one, both binarised to labels in {-1, +1}, optionally stored clustered by
label (the pathological in-RDBMS ordering the paper studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tasks.base import SupervisedExample


@dataclass(frozen=True)
class ClassificationDataset:
    """A generated classification dataset plus its generation metadata."""

    examples: list[SupervisedExample]
    dimension: int
    sparse: bool
    name: str = "synthetic"

    def __len__(self) -> int:
        return len(self.examples)

    def clustered_by_label(self) -> "ClassificationDataset":
        """A copy whose examples are sorted by label (positives first)."""
        ordered = sorted(self.examples, key=lambda example: -example.label)
        return ClassificationDataset(
            examples=ordered, dimension=self.dimension, sparse=self.sparse, name=self.name
        )

    def shuffled(self, seed: int | None = 0) -> "ClassificationDataset":
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(len(self.examples))
        return ClassificationDataset(
            examples=[self.examples[i] for i in permutation],
            dimension=self.dimension,
            sparse=self.sparse,
            name=self.name,
        )

    def approximate_bytes(self) -> int:
        """Rough on-disk size estimate (for the Table-1 style statistics)."""
        if self.sparse:
            nnz = sum(
                len(example.features) for example in self.examples
            )
            return nnz * 12 + len(self.examples) * 8
        return len(self.examples) * (self.dimension * 8 + 8)


def make_dense_classification(
    num_examples: int = 2000,
    dimension: int = 54,
    *,
    separation: float = 1.5,
    noise: float = 1.0,
    seed: int | None = 0,
    name: str = "forest_like",
) -> ClassificationDataset:
    """Dense, low-dimensional binary classification (Forest CoverType analogue).

    Two Gaussian clouds separated along a random direction; labels in {-1, +1}.
    """
    if num_examples <= 1:
        raise ValueError("need at least two examples")
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    examples: list[SupervisedExample] = []
    for i in range(num_examples):
        label = 1.0 if i % 2 == 0 else -1.0
        center = separation * label * direction
        features = center + noise * rng.normal(size=dimension)
        examples.append(SupervisedExample(features, label))
    dataset = ClassificationDataset(
        examples=examples, dimension=dimension, sparse=False, name=name
    )
    return dataset.shuffled(seed)


def make_sparse_classification(
    num_examples: int = 1000,
    dimension: int = 5000,
    *,
    nonzeros_per_example: int = 20,
    common_features: int = 5,
    separation: float = 1.0,
    seed: int | None = 0,
    name: str = "dblife_like",
) -> ClassificationDataset:
    """Sparse, high-dimensional binary classification (DBLife analogue).

    Each example activates a small random subset of features; a hidden weight
    vector determines the label, so the problem is learnable but not trivially
    separable.  Features are stored as index->value mappings (the sparse-vector
    format of the paper's datasets).

    ``common_features`` features (indices 0..common_features-1) fire in every
    example, like stop-word features in a bag-of-words corpus.  They are what
    makes a label-clustered storage order pathological for IGD: during the
    positive block those weights are dragged one way, during the negative
    block the other — the high-dimensional analogue of the CA-TX example.
    """
    if num_examples <= 1:
        raise ValueError("need at least two examples")
    if nonzeros_per_example <= 0 or nonzeros_per_example > dimension:
        raise ValueError("nonzeros_per_example must be in [1, dimension]")
    if not 0 <= common_features < dimension:
        raise ValueError("common_features must be in [0, dimension)")
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=dimension)
    hidden[:common_features] = 0.0  # common features carry no label signal
    examples: list[SupervisedExample] = []
    rare_dimension = dimension - common_features
    for _ in range(num_examples):
        indices = common_features + rng.choice(
            rare_dimension, size=nonzeros_per_example, replace=False
        )
        values = rng.normal(loc=separation, scale=1.0, size=nonzeros_per_example)
        features = {int(index): float(value) for index, value in zip(indices, values)}
        for common in range(common_features):
            features[common] = 1.0
        score = sum(hidden[index] * value for index, value in features.items())
        noise = rng.normal(scale=0.5)
        label = 1.0 if score + noise > 0 else -1.0
        examples.append(SupervisedExample(features, label))
    return ClassificationDataset(
        examples=examples, dimension=dimension, sparse=True, name=name
    )


def make_scalability_classification(
    num_examples: int = 20000,
    dimension: int = 50,
    *,
    seed: int | None = 7,
    name: str = "classify_large",
) -> ClassificationDataset:
    """Scaled-down analogue of Classify300M (dense, 50 features).

    The paper's scalability dataset has 300M rows / 135GB; we keep its shape
    (dense, 50-dimensional, binary) at a size a laptop handles, and the
    scalability experiment reports per-epoch throughput instead of absolute
    hours.
    """
    return make_dense_classification(
        num_examples=num_examples,
        dimension=dimension,
        separation=1.0,
        noise=1.5,
        seed=seed,
        name=name,
    )
