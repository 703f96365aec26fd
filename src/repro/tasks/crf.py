"""Linear-chain conditional random field labelling (the "CRF" task).

Objective (Figure 1B): maximise ``sum_k [ sum_j w_j F_j(y_k, x_k) - log Z(x_k) ]``
over label sequences; we minimise the negative log-likelihood.  Each training
example is one token sequence (a database tuple holding the token feature
indices and the gold labels), so — as with every other task — IGD touches one
tuple per gradient step.

The model has two components:

* ``emission``  — shape (num_features, num_labels); weight of feature f firing
  with label y on a token;
* ``transition`` — shape (num_labels, num_labels); weight of label bigram
  (y_prev, y_curr).

Gradients are computed with the standard forward–backward algorithm in log
space (empirical feature counts minus expected counts under the model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.model import Model
from ..core.proximal import IdentityProximal, ProximalOperator
from ..db.chunk_plan import visit_rows
from ..db.types import Row
from .base import DecodedExampleBatch, PerExampleChunkTask


@dataclass(frozen=True)
class SequenceExample:
    """A token sequence: per-token active feature indices plus gold labels."""

    token_features: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.token_features) != len(self.labels):
            raise ValueError(
                f"sequence has {len(self.token_features)} tokens but "
                f"{len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.labels)


def _log_sum_exp(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    # Array methods instead of np.* wrappers: this runs O(T) times per
    # forward-backward pass, where the wrapper dispatch overhead is measurable.
    # The reductions are the same ufuncs, so results are bit-identical.
    maximum = values.max(axis=axis, keepdims=True)
    result = maximum + np.log(np.exp(values - maximum).sum(axis=axis, keepdims=True))
    if axis is None:
        return result.reshape(())
    return np.squeeze(result, axis=axis)


def _flatten_features(example: SequenceExample) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a sequence's per-token features into (indices, token offsets)."""
    counts = np.fromiter(
        (len(features) for features in example.token_features),
        dtype=np.intp,
        count=len(example),
    )
    offsets = np.zeros(len(example) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    flat = np.fromiter(
        (f for features in example.token_features for f in features),
        dtype=np.intp,
        count=int(offsets[-1]),
    )
    return flat, offsets


class SequenceBatch(DecodedExampleBatch):
    """Cached decoded sequences plus flattened per-token feature arrays.

    Decoding a sequence row means parsing its TEXT payload — by far the most
    expensive per-tuple cost of the CRF task — so the chunk cache alone is a
    large win.  On top of it, each example's active features are flattened
    into one index array with token offsets so the chunked kernels skip even
    the per-epoch flattening the per-tuple scoring kernel performs; both paths
    then run the identical ``reduceat`` gather, keeping them bit-for-bit.
    """

    __slots__ = ("flat_features", "token_offsets")

    def __init__(
        self,
        examples: list[SequenceExample],
        *,
        flat_features: list[np.ndarray] | None = None,
        token_offsets: list[np.ndarray] | None = None,
    ):
        super().__init__(examples)
        if flat_features is not None and token_offsets is not None:
            # Gathered/concatenated batches reuse the already-flattened
            # arrays; re-flattening would re-pay the decode the cache saved.
            self.flat_features = flat_features
            self.token_offsets = token_offsets
            return
        self.flat_features: list[np.ndarray] = []
        self.token_offsets: list[np.ndarray] = []
        for example in examples:
            flat, offsets = _flatten_features(example)
            self.flat_features.append(flat)
            self.token_offsets.append(offsets)

    def take(self, indices) -> "SequenceBatch":
        """Sequence gather preserving the cached flattened feature arrays."""
        ordinals = [int(i) for i in indices]
        return SequenceBatch(
            [self.examples[i] for i in ordinals],
            flat_features=[self.flat_features[i] for i in ordinals],
            token_offsets=[self.token_offsets[i] for i in ordinals],
        )

    @classmethod
    def concat(cls, batches: "list[SequenceBatch]") -> "SequenceBatch":
        if len(batches) == 1:
            return batches[0]
        return cls(
            [example for batch in batches for example in batch.examples],
            flat_features=[f for batch in batches for f in batch.flat_features],
            token_offsets=[t for batch in batches for t in batch.token_offsets],
        )


class ConditionalRandomFieldTask(PerExampleChunkTask):
    """Linear-chain CRF trained by incremental gradient descent."""

    name = "crf"

    def __init__(
        self,
        num_features: int,
        num_labels: int,
        *,
        mu: float = 0.0,
        features_column: str = "tokens",
        labels_column: str = "labels",
        proximal: ProximalOperator | None = None,
    ):
        super().__init__(proximal)
        if num_features <= 0 or num_labels <= 1:
            raise ValueError("need at least one feature and two labels")
        self.num_features = num_features
        self.num_labels = num_labels
        self.mu = mu
        self.features_column = features_column
        self.labels_column = labels_column

    # -------------------------------------------------------------- interface
    def initial_model(self, rng: np.random.Generator | None = None) -> Model:
        return Model(
            {
                "emission": np.zeros((self.num_features, self.num_labels)),
                "transition": np.zeros((self.num_labels, self.num_labels)),
            }
        )

    def example_from_row(self, row: Row | Mapping[str, Any]) -> SequenceExample:
        """Rows store sequences as encoded text: ``"1,2|4"`` tokens, ``"0 1"`` labels.

        Token features are ``|``-separated tokens each holding a
        comma-separated list of feature indices; labels are space-separated
        integers.  (This keeps the sequences inside plain TEXT columns, the
        same trick in-RDBMS CRF implementations use.)
        """
        raw_tokens = row[self.features_column]
        raw_labels = row[self.labels_column]
        if isinstance(raw_tokens, str):
            token_features = tuple(
                tuple(int(f) for f in token.split(",") if f != "")
                for token in raw_tokens.split("|")
            )
        else:
            token_features = tuple(tuple(int(f) for f in token) for token in raw_tokens)
        if isinstance(raw_labels, str):
            labels = tuple(int(label) for label in raw_labels.split())
        else:
            labels = tuple(int(label) for label in raw_labels)
        return SequenceExample(token_features=token_features, labels=labels)

    # --------------------------------------------------------------- internals
    def _token_scores(self, model: Model, example: SequenceExample) -> np.ndarray:
        """Per-token emission scores, shape (T, num_labels)."""
        flat, offsets = _flatten_features(example)
        return self._token_scores_cached(model["emission"], flat, offsets, len(example))

    def _token_scores_cached(
        self, emission: np.ndarray, flat: np.ndarray, offsets: np.ndarray, length: int
    ) -> np.ndarray:
        """Per-token scores from flattened feature arrays.

        This is the single scoring kernel for both execution paths: the
        per-tuple path flattens each example's features on the fly, the
        chunked path reuses the arrays cached in its :class:`SequenceBatch`.
        Sharing one kernel is what keeps the two paths bit-for-bit identical —
        ``reduceat``'s reduction order over multiple segments is not the
        left-to-right loop order, so a loop-based path could not match it.
        """
        scores = np.zeros((length, self.num_labels))
        if flat.size:
            gathered = emission[flat]
            counts = np.diff(offsets)
            # Zero-width reduceat segments misbehave (repeated starts), so
            # reduce over non-empty tokens only: their starts are strictly
            # increasing and each segment runs to the next non-empty start,
            # which is exactly that token's features.
            nonempty = counts > 0
            scores[nonempty] = np.add.reduceat(gathered, offsets[:-1][nonempty], axis=0)
        return scores

    def _forward_backward(
        self, model: Model, example: SequenceExample, scores: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
        """Return (alpha, beta, log_Z, scores, transition) in log space.

        The transition weights are read **once**, into the returned copy,
        and :meth:`_apply_gradient` takes its marginals from that copy too: a
        model on shared pages moves under a racing worker, and the forward
        pass, backward pass and pairwise marginals must all see one model.
        """
        transition = model["transition"].copy()
        if scores is None:
            scores = self._token_scores(model, example)
        length = len(example)
        alpha = np.zeros((length, self.num_labels))
        beta = np.zeros((length, self.num_labels))
        alpha[0] = scores[0]
        # The log-sum-exps are inlined (same ufunc reductions as
        # :func:`_log_sum_exp`, bit-identical results): these two recursions
        # run O(T) times per tuple and dominate the task's wall-clock, so the
        # per-call wrapper/keepdims/squeeze overhead is worth removing.
        for t in range(1, length):
            # alpha[t, y] = score[t, y] + logsumexp_y'( alpha[t-1, y'] + T[y', y] )
            combined = alpha[t - 1][:, None] + transition
            maximum = combined.max(axis=0)
            alpha[t] = scores[t] + (
                maximum + np.log(np.exp(combined - maximum).sum(axis=0))
            )
        beta[length - 1] = 0.0
        for t in range(length - 2, -1, -1):
            combined = transition + scores[t + 1][None, :] + beta[t + 1][None, :]
            maximum = combined.max(axis=1)
            beta[t] = maximum + np.log(
                np.exp(combined - maximum[:, None]).sum(axis=1)
            )
        log_z = float(_log_sum_exp(alpha[length - 1]))
        return alpha, beta, log_z, scores, transition

    # -------------------------------------------------------------- interface
    def loss(self, model: Model, example: SequenceExample) -> float:
        """Negative log-likelihood of the gold label sequence."""
        return self._loss_with_scores(model, example, None)

    def _loss_with_scores(
        self, model: Model, example: SequenceExample, token_scores: np.ndarray | None
    ) -> float:
        _, _, log_z, scores, transition = self._forward_backward(model, example, token_scores)
        labels = np.asarray(example.labels, dtype=np.intp)
        gold_score = float(scores[np.arange(len(labels)), labels].sum())
        if labels.size > 1:
            gold_score += float(transition[labels[:-1], labels[1:]].sum())
        return log_z - gold_score

    def gradient_step(self, model: Model, example: SequenceExample, alpha: float) -> None:
        """One IGD step: add ``alpha * (empirical - expected)`` feature counts."""
        flat, offsets = _flatten_features(example)
        scores = self._token_scores_cached(model["emission"], flat, offsets, len(example))
        forward_backward = self._forward_backward(model, example, scores=scores)
        self._apply_gradient(
            model, example, alpha, forward_backward, flat=flat, offsets=offsets
        )

    def _apply_gradient(
        self,
        model: Model,
        example: SequenceExample,
        alpha: float,
        forward_backward: tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray],
        flat: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        """Apply ``alpha * (empirical - expected)`` counts from one F-B pass.

        ``flat`` / ``offsets`` optionally reuse a :class:`SequenceBatch`'s
        cached flattened feature arrays; the per-tuple path flattens on the
        fly.  Both execution paths run this single vectorized implementation,
        which is what keeps them bit-for-bit identical.
        """
        emission = model["emission"]
        transition = model["transition"]
        alphas, betas, log_z, scores, scored_transition = forward_backward
        length = len(example)
        if flat is None:
            flat, offsets = _flatten_features(example)
        labels = np.asarray(example.labels, dtype=np.intp)

        # Unary marginals p(y_t = y | x), shape (T, num_labels).
        unary = np.exp(alphas + betas - log_z)

        # Emission updates: empirical minus expected, scaled by the step
        # size.  ``add.at``/``subtract.at`` accumulate repeated feature
        # indices, matching the per-feature loop they replace.
        if flat.size:
            token_of_feature = np.repeat(
                np.arange(length, dtype=np.intp), np.diff(offsets)
            )
            np.add.at(emission, (flat, labels[token_of_feature]), alpha)
            np.subtract.at(emission, flat, alpha * unary[token_of_feature])

        # Pairwise marginals and transition updates.  All marginals are
        # computed against the pre-update transition weights (the same ones
        # the forward/backward pass used) before any update lands.
        if length > 1:
            pairwise_log = (
                alphas[:-1, :, None]
                + scored_transition[None, :, :]
                + scores[1:, None, :]
                + betas[1:, None, :]
                - log_z
            )
            expected = np.exp(pairwise_log).sum(axis=0)
            np.add.at(transition, (labels[:-1], labels[1:]), alpha)
            transition -= alpha * expected

        if self.mu > 0:
            emission -= alpha * self.mu * emission
            transition -= alpha * self.mu * transition

    # ----------------------------------------------------------- batched API
    def batch_from_chunk(self, chunk) -> SequenceBatch | None:
        """Decode a chunk of TEXT-encoded sequences once, with flat feature arrays."""
        decoded = super().batch_from_chunk(chunk)
        if decoded is None:
            return None
        return SequenceBatch(decoded.examples)

    def igd_chunk(
        self,
        model: Model,
        batch: SequenceBatch,
        alphas: np.ndarray,
        proximal: ProximalOperator,
    ) -> None:
        """Sequential IGD over cached decoded sequences.

        The forward–backward pass runs on token scores gathered from the
        batch's flattened feature arrays; gradients and updates are the exact
        per-tuple operations, so the models are bit-for-bit identical.
        """
        apply_proximal = not isinstance(proximal, IdentityProximal)
        for alpha, (source, i) in zip(alphas, visit_rows(batch)):
            example = source.examples[i]
            flat, offsets = source.flat_features[i], source.token_offsets[i]
            scores = self._token_scores_cached(model["emission"], flat, offsets, len(example))
            forward_backward = self._forward_backward(model, example, scores=scores)
            self._apply_gradient(
                model, example, alpha, forward_backward, flat=flat, offsets=offsets
            )
            if apply_proximal:
                proximal.apply(model, alpha)

    def batch_loss(self, model: Model, batch: SequenceBatch) -> float:
        emission = model["emission"]
        total = 0.0
        for i, example in enumerate(batch.examples):
            scores = self._token_scores_cached(
                emission, batch.flat_features[i], batch.token_offsets[i], len(example)
            )
            total += self._loss_with_scores(model, example, scores)
        return total

    def predict(self, model: Model, example: SequenceExample) -> list[int]:
        """Viterbi decoding of the most likely label sequence."""
        transition = model["transition"]
        scores = self._token_scores(model, example)
        length = len(example)
        viterbi = np.zeros((length, self.num_labels))
        backpointer = np.zeros((length, self.num_labels), dtype=np.int64)
        viterbi[0] = scores[0]
        for t in range(1, length):
            candidate = viterbi[t - 1][:, None] + transition
            backpointer[t] = np.argmax(candidate, axis=0)
            viterbi[t] = scores[t] + np.max(candidate, axis=0)
        labels = [int(np.argmax(viterbi[length - 1]))]
        for t in range(length - 1, 0, -1):
            labels.append(int(backpointer[t, labels[-1]]))
        labels.reverse()
        return labels

    def predict_batch(self, model: Model, batch: SequenceBatch) -> list[list[int]]:
        """Viterbi decoding of every sequence in a batch, in lockstep.

        Inference used to loop per token per sequence; here the whole corpus
        decodes together.  Token emission scores for *all* sequences are
        gathered with a single ``reduceat`` over the batch's cached flattened
        feature arrays, then the Viterbi recursion advances one time step at
        a time across every still-active sequence at once (sequences are
        processed in descending length order, so the active set is always a
        prefix).  ``argmax``/``max`` run over the same candidate matrices as
        :meth:`predict`, with identical tie-breaking, so the decoded labels
        are exactly the per-sequence results.
        """
        examples = batch.examples
        num_sequences = len(examples)
        if num_sequences == 0:
            return []
        transition = model["transition"]
        emission = model["emission"]
        lengths = np.fromiter((len(e) for e in examples), dtype=np.intp, count=num_sequences)

        # Longest first: the t-th Viterbi step then touches rows [0, active).
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        max_length = int(sorted_lengths[0])
        token_starts = np.zeros(num_sequences + 1, dtype=np.intp)
        np.cumsum(sorted_lengths, out=token_starts[1:])

        # One scoring pass for every token of every sequence: concatenate the
        # cached flattened feature arrays and run the shared reduceat kernel.
        flat_all = np.concatenate([batch.flat_features[i] for i in order])
        counts_all = np.concatenate([np.diff(batch.token_offsets[i]) for i in order])
        offsets_all = np.zeros(int(token_starts[-1]) + 1, dtype=np.intp)
        np.cumsum(counts_all, out=offsets_all[1:])
        scores_all = self._token_scores_cached(
            emission, flat_all, offsets_all, int(token_starts[-1])
        )

        viterbi = scores_all[token_starts[:-1]].copy()  # (S, L): each row's t=0 scores
        backpointer = np.zeros((num_sequences, max_length, self.num_labels), dtype=np.int64)
        for t in range(1, max_length):
            # Sequences still running at step t form the prefix [0, active).
            active = int(np.searchsorted(-sorted_lengths, -t, side="left"))
            candidate = viterbi[:active, :, None] + transition[None, :, :]
            backpointer[:active, t] = np.argmax(candidate, axis=1)
            viterbi[:active] = scores_all[token_starts[:active] + t] + np.max(candidate, axis=1)

        labels = np.zeros((num_sequences, max_length), dtype=np.int64)
        labels[np.arange(num_sequences), sorted_lengths - 1] = np.argmax(viterbi, axis=1)
        for t in range(max_length - 1, 0, -1):
            active = int(np.searchsorted(-sorted_lengths, -t, side="left"))
            rows = np.arange(active)
            labels[rows, t - 1] = backpointer[rows, t, labels[rows, t]]

        results: list[list[int]] = [[] for _ in range(num_sequences)]
        for sorted_index, original_index in enumerate(order):
            results[int(original_index)] = labels[
                sorted_index, : sorted_lengths[sorted_index]
            ].tolist()
        return results

    def token_accuracy(
        self, model: Model, examples: "Sequence[SequenceExample] | SequenceBatch"
    ) -> float:
        """Fraction of tokens whose Viterbi label matches the gold label.

        Decodes the whole corpus with the batched Viterbi kernel; passing a
        cached :class:`SequenceBatch` reuses its flattened feature arrays,
        and a plain sequence of examples is flattened once here.
        """
        batch = examples if isinstance(examples, SequenceBatch) else SequenceBatch(list(examples))
        predictions = self.predict_batch(model, batch)
        correct = 0
        total = 0
        for example, predicted in zip(batch.examples, predictions):
            correct += sum(1 for p, g in zip(predicted, example.labels) if p == g)
            total += len(example)
        return correct / total if total else 0.0
