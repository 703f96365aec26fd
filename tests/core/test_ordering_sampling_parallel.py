"""Tests for ordering policies, reservoir/MRS sampling and parallel schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ClusteredOrder,
    Model,
    PureUDAParallelism,
    ReservoirSampler,
    SharedMemoryParallelism,
    ShuffleAlways,
    ShuffleOnce,
    make_ordering,
    ordering_names,
    partition_round_robin,
    run_clustered_no_shuffle,
    run_multiplexed_reservoir_sampling,
    run_shared_memory_epoch,
    run_subsampling,
)
from repro.data import make_dense_classification
from repro.db import ColumnType, Schema, Table
from repro.tasks import LogisticRegressionTask, SupervisedExample


@pytest.fixture
def label_table():
    schema = Schema.of(("id", ColumnType.INTEGER), ("label", ColumnType.FLOAT))
    table = Table("t", schema)
    table.insert_many((i, 1.0 if i < 10 else -1.0) for i in range(20))
    return table


class TestOrderingPolicies:
    def test_clustered_is_noop_without_column(self, label_table):
        policy = ClusteredOrder()
        before = label_table.column_values("id")
        policy.prepare(label_table, np.random.default_rng(0))
        policy.before_epoch(label_table, 0, np.random.default_rng(0))
        assert label_table.column_values("id") == before
        assert policy.shuffle_count == 0

    def test_clustered_with_column_sorts(self, label_table):
        label_table.shuffle(seed=1)
        policy = ClusteredOrder(cluster_column="label", descending=True)
        policy.prepare(label_table, np.random.default_rng(0))
        labels = label_table.column_values("label")
        assert labels == sorted(labels, reverse=True)

    def test_physical_shuffle_once_only_prepares(self, label_table):
        policy = ShuffleOnce(mode="physical")
        rng = np.random.default_rng(0)
        policy.prepare(label_table, rng)
        after_prepare = label_table.column_values("id")
        policy.before_epoch(label_table, 0, rng)
        policy.before_epoch(label_table, 1, rng)
        assert label_table.column_values("id") == after_prepare
        assert policy.shuffle_count == 1
        assert policy.shuffle_seconds >= 0.0

    def test_physical_shuffle_always_reshuffles_each_epoch(self, label_table):
        policy = ShuffleAlways(mode="physical")
        rng = np.random.default_rng(0)
        policy.prepare(label_table, rng)
        policy.before_epoch(label_table, 0, rng)
        first = label_table.column_values("id")
        policy.before_epoch(label_table, 1, rng)
        second = label_table.column_values("id")
        assert policy.shuffle_count == 2
        assert first != second

    def test_make_ordering_coercion(self):
        assert isinstance(make_ordering(None), ShuffleOnce)
        assert isinstance(make_ordering("clustered"), ClusteredOrder)
        policy = ShuffleAlways()
        assert make_ordering(policy) is policy
        with pytest.raises(ValueError):
            make_ordering("alphabetical")
        physical = make_ordering("shuffle_always", mode="physical")
        assert isinstance(physical, ShuffleAlways) and not physical.logical

    def test_ordering_names(self):
        assert set(ordering_names()) == {"clustered", "shuffle_always", "shuffle_once"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ShuffleOnce(mode="virtual")

    def test_mode_kwarg_forwards_uniformly(self):
        """make_ordering(name, mode="physical") works for every policy name."""
        for name in ordering_names():
            policy = make_ordering(name, mode="physical")
            assert not policy.logical
        with pytest.raises(ValueError):
            make_ordering("clustered", mode="logical")


class TestLogicalOrdering:
    """Logical shuffles permute a stable table version — the heap never moves."""

    def test_shuffle_is_logical_by_default(self):
        assert ShuffleOnce().logical
        assert ShuffleAlways().logical
        assert not ClusteredOrder().logical

    def test_logical_shuffle_once_never_touches_the_table(self, label_table):
        policy = ShuffleOnce()
        rng = np.random.default_rng(0)
        before_ids = label_table.column_values("id")
        version = label_table.version
        policy.prepare(label_table, rng)
        first = policy.epoch_row_order(len(label_table), 0, rng)
        policy.before_epoch(label_table, 1, rng)
        second = policy.epoch_row_order(len(label_table), 1, rng)
        assert label_table.column_values("id") == before_ids
        assert label_table.version == version
        assert first is second  # one permutation, reused every epoch
        assert policy.shuffle_count == 1
        assert sorted(first.tolist()) == list(range(len(label_table)))

    def test_logical_shuffle_always_fresh_permutation_per_epoch(self, label_table):
        policy = ShuffleAlways()
        rng = np.random.default_rng(0)
        version = label_table.version
        policy.prepare(label_table, rng)
        first = policy.epoch_row_order(len(label_table), 0, rng)
        # same epoch, same length -> same permutation (loss pass and training
        # pass of one epoch must agree)
        assert policy.epoch_row_order(len(label_table), 0, rng) is first
        second = policy.epoch_row_order(len(label_table), 1, rng)
        assert label_table.version == version
        assert first.tolist() != second.tolist()
        assert policy.shuffle_count == 2

    def test_logical_orders_generated_per_row_count(self, label_table):
        """Segmented backends ask per segment length; each gets its own perm."""
        policy = ShuffleAlways()
        rng = np.random.default_rng(0)
        whole = policy.epoch_row_order(20, 0, rng)
        segment = policy.epoch_row_order(7, 0, rng)
        assert sorted(whole.tolist()) == list(range(20))
        assert sorted(segment.tolist()) == list(range(7))

    @pytest.mark.parametrize("policy_cls", [ShuffleOnce, ShuffleAlways])
    def test_equal_length_partitions_draw_independent_permutations(self, policy_cls):
        """Equal-length segments must not share one permutation: each
        partition index is its own segment-local ORDER BY RANDOM()."""
        policy = policy_cls()
        rng = np.random.default_rng(0)
        first = policy.epoch_row_order(30, 0, rng, partition=0)
        second = policy.epoch_row_order(30, 0, rng, partition=1)
        assert first is not second
        assert first.tolist() != second.tolist()
        # ...but re-asking for the same partition in the same epoch is stable
        assert policy.epoch_row_order(30, 0, rng, partition=1) is second

    def test_prepare_resets_logical_state_for_runner_reuse(self, label_table):
        policy = ShuffleOnce()
        rng = np.random.default_rng(0)
        policy.prepare(label_table, rng)
        first = policy.epoch_row_order(20, 0, rng)
        policy.prepare(label_table, rng)  # a second training run
        second = policy.epoch_row_order(20, 0, rng)
        assert first is not second

    def test_physical_policies_return_no_row_order(self, label_table):
        rng = np.random.default_rng(0)
        for policy in (ShuffleOnce(mode="physical"), ShuffleAlways(mode="physical"), ClusteredOrder()):
            assert policy.epoch_row_order(20, 0, rng) is None


class TestReservoirSampler:
    def test_fill_phase_drops_nothing(self):
        sampler = ReservoirSampler(5, np.random.default_rng(0))
        dropped = [sampler.offer(i) for i in range(5)]
        assert dropped == [None] * 5
        assert sampler.is_full
        assert sorted(sampler.sample()) == [0, 1, 2, 3, 4]

    def test_post_fill_always_drops_exactly_one(self):
        sampler = ReservoirSampler(5, np.random.default_rng(0))
        for i in range(5):
            sampler.offer(i)
        for i in range(5, 50):
            dropped = sampler.offer(i)
            assert dropped is not None
        assert len(sampler) == 5

    def test_items_conserved(self):
        sampler = ReservoirSampler(10, np.random.default_rng(3))
        dropped = []
        items = list(range(100))
        for item in items:
            out = sampler.offer(item)
            if out is not None:
                dropped.append(out)
        assert sorted(dropped + sampler.sample()) == items

    def test_uniformity_rough(self):
        # Each of the 20 items should land in a capacity-10 reservoir about
        # half the time; verify the inclusion frequencies are not degenerate.
        counts = np.zeros(20)
        for seed in range(300):
            sampler = ReservoirSampler(10, np.random.default_rng(seed))
            for i in range(20):
                sampler.offer(i)
            for kept in sampler.sample():
                counts[kept] += 1
        frequencies = counts / 300
        assert frequencies.min() > 0.3
        assert frequencies.max() < 0.7

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)


class TestSamplingRunners:
    @pytest.fixture
    def clustered_examples(self):
        dataset = make_dense_classification(120, 6, seed=5).clustered_by_label()
        return dataset.examples, LogisticRegressionTask(6)

    def test_subsampling_trains_only_on_buffer(self, clustered_examples):
        examples, task = clustered_examples
        result = run_subsampling(examples, task, buffer_size=20, epochs=4, step_size=0.1, seed=0)
        assert result.scheme == "subsampling"
        assert result.buffer_size == 20
        assert len(result.history) == 4
        assert result.history[0].gradient_steps == 20

    def test_mrs_converges_better_than_subsampling(self, clustered_examples):
        examples, task = clustered_examples
        subsampling = run_subsampling(
            examples, task, buffer_size=12, epochs=6, step_size=0.1, seed=0
        )
        mrs = run_multiplexed_reservoir_sampling(
            examples, task, buffer_size=12, epochs=6, step_size=0.1, seed=0
        )
        assert mrs.final_objective < subsampling.final_objective

    def test_mrs_uses_more_gradient_steps_per_epoch(self, clustered_examples):
        examples, task = clustered_examples
        mrs = run_multiplexed_reservoir_sampling(
            examples, task, buffer_size=12, epochs=2, step_size=0.1, seed=0
        )
        # I/O worker steps on dropped tuples plus memory-worker steps.
        assert mrs.history[-1].gradient_steps > len(examples)

    def test_clustered_runner_matches_epoch_count(self, clustered_examples):
        examples, task = clustered_examples
        result = run_clustered_no_shuffle(examples, task, epochs=3, step_size=0.1, seed=0)
        assert len(result.history) == 3
        assert result.history[-1].gradient_steps == 3 * len(examples)

    def test_epochs_to_reach(self, clustered_examples):
        examples, task = clustered_examples
        result = run_clustered_no_shuffle(examples, task, epochs=5, step_size=0.1, seed=0)
        trace = result.objective_trace()
        assert result.epochs_to_reach(trace[-1]) <= 5
        assert result.epochs_to_reach(-1.0) is None

    @pytest.mark.parametrize("extra", [0, 5])
    def test_subsampling_full_buffer_degenerates_to_clustered(self, clustered_examples, extra):
        """buffer_size >= n keeps every tuple in stored order: the Figure 10B
        sweep at fraction 1.0 is plain IGD over the clustered data."""
        examples, task = clustered_examples
        full = run_subsampling(
            examples, task, buffer_size=len(examples) + extra, epochs=3,
            step_size=0.1, seed=0,
        )
        reference = run_clustered_no_shuffle(examples, task, epochs=3, step_size=0.1, seed=0)
        assert full.buffer_size == len(examples)
        assert np.array_equal(full.model["w"], reference.model["w"])
        assert full.objective_trace() == reference.objective_trace()

    @pytest.mark.parametrize("extra", [0, 5])
    def test_mrs_full_buffer_caps_at_n_minus_one(self, clustered_examples, extra):
        """MRS caps the reservoir at n - 1 so the I/O worker — which trains on
        *dropped* tuples only — always takes at least one step per pass."""
        examples, task = clustered_examples
        result = run_multiplexed_reservoir_sampling(
            examples, task, buffer_size=len(examples) + extra, epochs=3,
            step_size=0.1, seed=0,
        )
        assert result.buffer_size == len(examples) - 1
        # Epoch 0: the memory buffer is still empty, so the single dropped
        # tuple of the fill pass is the only gradient step.
        assert result.history[0].gradient_steps == 1
        # Later epochs interleave the full swapped buffer: progress resumes.
        assert result.history[-1].gradient_steps > len(examples)


@pytest.mark.backends
class TestSharedMemoryEpoch:
    @pytest.fixture
    def workload(self):
        dataset = make_dense_classification(100, 5, seed=2)
        return dataset.examples, LogisticRegressionTask(5)

    @pytest.mark.parametrize("scheme", ["lock", "aig", "nolock"])
    def test_all_schemes_make_progress(self, workload, scheme):
        examples, task = workload
        model = task.initial_model()
        before = task.total_loss(model, examples)
        updated, steps = run_shared_memory_epoch(
            examples, task, model, 0.1,
            spec=SharedMemoryParallelism(scheme=scheme, workers=4),
        )
        after = task.total_loss(updated, examples)
        assert steps == len(examples)
        assert after < before

    def test_lock_scheme_matches_round_robin_serial(self, workload):
        examples, task = workload
        model = task.initial_model()
        updated, _ = run_shared_memory_epoch(
            examples, task, model, 0.1,
            spec=SharedMemoryParallelism(scheme="lock", workers=4),
        )
        # Serial reference following the same round-robin worker interleaving.
        reference = task.initial_model()
        partitions = partition_round_robin(len(examples), 4)
        cursors = [0] * 4
        remaining = len(examples)
        step = 0
        while remaining:
            for worker in range(4):
                if cursors[worker] < len(partitions[worker]):
                    index = partitions[worker][cursors[worker]]
                    task.gradient_step(reference, examples[index], 0.1)
                    cursors[worker] += 1
                    remaining -= 1
                    step += 1
        assert updated.allclose(reference, atol=1e-9)

    def test_empty_input(self, workload):
        _, task = workload
        model = task.initial_model()
        updated, steps = run_shared_memory_epoch(
            [], task, model, 0.1, spec=SharedMemoryParallelism(scheme="nolock", workers=4)
        )
        assert steps == 0

    def test_charge_per_tuple_called(self, workload):
        examples, task = workload
        calls = []
        run_shared_memory_epoch(
            examples, task, task.initial_model(), 0.1,
            spec=SharedMemoryParallelism(scheme="nolock", workers=2),
            charge_per_tuple=lambda: calls.append(1),
        )
        assert len(calls) == len(examples)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SharedMemoryParallelism(scheme="optimistic", workers=4)
        with pytest.raises(ValueError):
            SharedMemoryParallelism(scheme="nolock", workers=0)

    def test_effective_staleness_defaults(self):
        assert SharedMemoryParallelism(scheme="lock", workers=8).effective_staleness() == 1
        assert SharedMemoryParallelism(scheme="nolock", workers=8).effective_staleness() == 8
        assert SharedMemoryParallelism(scheme="nolock", workers=8, staleness=3).effective_staleness() == 3


@pytest.mark.backends
class TestPartitioningContract:
    def test_partition_round_robin(self):
        partitions = partition_round_robin(10, 3)
        assert [len(p) for p in partitions] == [4, 3, 3]
        assert sorted(i for p in partitions for i in p) == list(range(10))

    def test_pure_uda_spec_dataclass(self):
        spec = PureUDAParallelism()
        assert spec.segments is None
        assert spec.name == "pure_uda"
