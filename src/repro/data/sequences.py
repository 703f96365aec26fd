"""Token-sequence datasets standing in for CoNLL-2000 (text chunking) and DBLP.

The CRF benchmark in the paper labels token sequences (CoNLL text chunking:
~9k sentences, 7.4M features).  We generate sequences from a small hidden
Markov model: each hidden label emits a characteristic subset of sparse token
features plus a few noisy ones, and labels follow a sticky transition matrix —
the structure a linear-chain CRF is designed to recover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tasks.crf import SequenceExample


@dataclass(frozen=True)
class SequenceDataset:
    """A corpus of labelled token sequences plus its generation metadata."""

    examples: list[SequenceExample]
    num_features: int
    num_labels: int
    name: str = "conll_like"

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def num_tokens(self) -> int:
        return sum(len(example) for example in self.examples)

    def approximate_bytes(self) -> int:
        return sum(
            sum(len(features) for features in example.token_features) * 8 + len(example) * 4
            for example in self.examples
        )


def make_sequences(
    num_sequences: int = 60,
    *,
    mean_length: int = 12,
    num_labels: int = 4,
    features_per_label: int = 8,
    noise_features: int = 20,
    stickiness: float = 0.7,
    seed: int | None = 0,
    name: str = "conll_like",
) -> SequenceDataset:
    """Generate labelled token sequences from a sticky HMM.

    The feature space is partitioned into ``num_labels`` blocks of
    ``features_per_label`` label-specific features plus ``noise_features``
    shared noise features; each token activates a couple of features from its
    gold label's block and one noise feature.
    """
    if num_sequences <= 0:
        raise ValueError("num_sequences must be positive")
    if num_labels <= 1:
        raise ValueError("need at least two labels")
    if not 0 <= stickiness < 1:
        raise ValueError("stickiness must be in [0, 1)")
    rng = np.random.default_rng(seed)
    num_features = num_labels * features_per_label + noise_features

    # Sticky transition matrix: stay with probability `stickiness`, otherwise
    # move uniformly to another label.
    transition = np.full((num_labels, num_labels), (1.0 - stickiness) / (num_labels - 1))
    np.fill_diagonal(transition, stickiness)

    examples: list[SequenceExample] = []
    for _ in range(num_sequences):
        length = max(2, int(rng.poisson(mean_length)))
        labels: list[int] = [int(rng.integers(0, num_labels))]
        for _ in range(length - 1):
            labels.append(int(rng.choice(num_labels, p=transition[labels[-1]])))
        token_features: list[tuple[int, ...]] = []
        for label in labels:
            block_start = label * features_per_label
            label_features = rng.choice(features_per_label, size=2, replace=False) + block_start
            noise = num_labels * features_per_label + int(rng.integers(0, noise_features))
            token_features.append(tuple(int(f) for f in label_features) + (noise,))
        examples.append(
            SequenceExample(token_features=tuple(token_features), labels=tuple(labels))
        )
    return SequenceDataset(
        examples=examples, num_features=num_features, num_labels=num_labels, name=name
    )


def make_large_sequences(
    num_sequences: int = 400,
    *,
    mean_length: int = 15,
    num_labels: int = 6,
    seed: int | None = 3,
) -> SequenceDataset:
    """Scaled-down analogue of the DBLP CRF scalability dataset."""
    return make_sequences(
        num_sequences=num_sequences,
        mean_length=mean_length,
        num_labels=num_labels,
        features_per_label=10,
        noise_features=40,
        seed=seed,
        name="dblp_like",
    )


def encode_sequence_for_storage(example: SequenceExample) -> tuple[str, str]:
    """Encode a sequence as the (tokens, labels) TEXT pair used by the CRF task."""
    tokens = "|".join(",".join(str(f) for f in features) for features in example.token_features)
    labels = " ".join(str(label) for label in example.labels)
    return tokens, labels
