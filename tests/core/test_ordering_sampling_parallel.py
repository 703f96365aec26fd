"""Tests for visit orders (shuffles, reservoir/MRS sampling) and parallel schemes."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import (
    ClusteredOrder,
    MultiplexedReservoir,
    PureUDAParallelism,
    ReservoirSampler,
    SharedMemoryParallelism,
    ShuffleAlways,
    ShuffleOnce,
    Subsample,
    make_ordering,
    make_schedule,
    partition_round_robin,
    run_shared_memory_epoch,
    train,
)
from repro.data import (
    load_classification_table,
    make_dense_classification,
    make_sparse_classification,
)
from repro.db import ColumnType, Database, Schema, Table
from repro.tasks import LogisticRegressionTask


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
        names = "['clustered', 'mrs', 'shuffle_always', 'shuffle_once', 'subsample']"
        with pytest.raises(ValueError, match=re.escape(names)):
            make_ordering("zigzag")

    def test_sampling_policies_by_name(self):
        policy = make_ordering("mrs", buffer_size=5, memory_steps_per_io=2)
        assert isinstance(policy, MultiplexedReservoir)
        assert (policy.buffer_size, policy.memory_steps_per_io) == (5, 2)
        assert isinstance(make_ordering("subsample", buffer_size=5), Subsample)
        for cls in (Subsample, MultiplexedReservoir):
            assert cls(5).logical
            with pytest.raises(ValueError):
                cls(0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ShuffleOnce(mode="virtual")

    def test_mode_kwarg_forwards_uniformly(self):
        """make_ordering(name, mode="physical") works for every heap order
        (the sampling policies are visit orders only and take no mode)."""
        for name in ("clustered", "shuffle_once", "shuffle_always"):
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


class TestSamplingVisitOrders:
    """A sampling scheme is a visit order: a subset, or a sequence with repeats."""

    def test_subsample_is_one_subset_reused_every_epoch(self, label_table):
        policy = Subsample(6)
        rng = np.random.default_rng(0)
        policy.prepare(label_table, rng)
        first = policy.epoch_row_order(20, 0, rng)
        assert policy.epoch_row_order(20, 3, rng) is first
        assert len(first) == len(set(first.tolist())) == 6
        assert set(first.tolist()) <= set(range(20))
        assert policy.shuffle_count == 1
        # each segment draws its own reservoir; a new run draws afresh
        other = policy.epoch_row_order(20, 0, rng, partition=1)
        assert other is not first and other.tolist() != first.tolist()
        policy.prepare(label_table, rng)
        assert policy.epoch_row_order(20, 0, rng) is not first

    def test_subsample_full_buffer_is_the_stored_order(self):
        order = Subsample(25).epoch_row_order(20, 0, np.random.default_rng(0))
        assert order.tolist() == list(range(20))

    def test_mrs_interleaves_dropped_and_buffered_ordinals(self, label_table):
        policy = MultiplexedReservoir(6, memory_steps_per_io=2)
        rng = np.random.default_rng(0)
        policy.prepare(label_table, rng)
        first = policy.epoch_row_order(20, 0, rng)
        # Epoch 0: the memory buffer is empty — only the 14 dropped ordinals
        # step, and with the 6 kept ones they are the whole table.
        assert policy.epoch_row_order(20, 0, rng) is first
        kept = sorted(set(range(20)) - set(first.tolist()))
        assert len(first) == 14 and len(kept) == 6
        # Epoch 1: 14 fresh drops, each streamed ordinal followed by two
        # picks cycling through the buffer epoch 0 kept.
        second = policy.epoch_row_order(20, 1, rng)
        assert len(second) == 14 + 2 * 20
        memory_steps = [int(v) for v in second if int(v) in kept]
        assert len(memory_steps) >= 40 and set(memory_steps) == set(kept)
        assert policy.shuffle_count == 2

    @pytest.mark.parametrize("extra", [0, 5])
    def test_mrs_full_buffer_caps_at_n_minus_one(self, extra):
        """MRS caps the reservoir at n - 1 so the I/O worker — which trains on
        *dropped* ordinals only — always takes at least one step per pass."""
        policy = MultiplexedReservoir(20 + extra)
        rng = np.random.default_rng(0)
        assert len(policy.epoch_row_order(20, 0, rng)) == 1
        later = policy.epoch_row_order(20, 1, rng)
        assert len(later) == 1 + 20
        assert len(set(later.tolist())) >= 19  # the whole 19-ordinal buffer cycles


def reference_sampling_run(examples, task, policy, *, epochs, step_size, seed):
    """The per-example loop the sampling policies must reproduce through
    ``train``: reservoir -> interleave -> ``gradient_step`` + ``proximal.apply``."""
    rng = np.random.default_rng(seed)
    schedule = make_schedule(step_size)
    model = task.initial_model(rng)
    n = len(examples)
    steps = 0
    step_counts = []

    def step(index, epoch):
        nonlocal steps
        alpha = schedule.step_size(steps, epoch)
        task.gradient_step(model, examples[index], alpha)
        task.proximal.apply(model, alpha)
        steps += 1

    memory: list[int] = []
    buffer = None
    for epoch in range(epochs):
        if isinstance(policy, Subsample):
            if buffer is None:
                sampler = ReservoirSampler(min(policy.buffer_size, n), rng)
                for index in range(n):
                    sampler.offer(index)
                buffer = sampler.sample()
            for index in buffer:
                step(index, epoch)
        else:
            sampler = ReservoirSampler(min(policy.buffer_size, n - 1), rng)
            cursor = 0
            for index in range(n):
                dropped = sampler.offer(index)
                if dropped is not None:
                    step(dropped, epoch)
                for _ in range(policy.memory_steps_per_io if memory else 0):
                    step(memory[cursor % len(memory)], epoch)
                    cursor += 1
            memory = sampler.sample()
        step_counts.append(steps)
    return model, step_counts


class TestSamplingOnTheEpochLoop:
    STEP = {"kind": "epoch_decay", "alpha0": 0.1, "decay": 0.9}

    @pytest.fixture(params=[False, True], ids=["dense", "sparse"])
    def workload(self, request):
        sparse = request.param
        if sparse:
            dataset = make_sparse_classification(140, 70, nonzeros_per_example=6, seed=3)
        else:
            dataset = make_dense_classification(120, 6, seed=5)
        dataset = dataset.clustered_by_label()
        database = Database("postgres", seed=0)
        load_classification_table(database, "pts", dataset.examples, sparse=sparse)
        return database, dataset.examples, LogisticRegressionTask(dataset.dimension)

    def run(self, workload, ordering, **overrides):
        database, _examples, task = workload
        options = dict(ordering=ordering, step_size=self.STEP, max_epochs=4, seed=0)
        return train(task, database, "pts", **{**options, **overrides})

    @pytest.mark.parametrize("rows", [True, False], ids=["per_tuple", "chunked"])
    @pytest.mark.parametrize(
        "make_policy",
        [lambda: Subsample(30), lambda: MultiplexedReservoir(30),
         lambda: MultiplexedReservoir(12, memory_steps_per_io=3)],
        ids=["subsample", "mrs", "mrs_x3"],
    )
    def test_train_matches_per_example_reference_bit_for_bit(
        self, workload, make_policy, rows
    ):
        database, examples, task = workload
        if rows:  # a non-batching twin: the engine folds it per tuple
            task = type("Rows", (type(task),), {"supports_batches": False})(task.dimension)
        result = self.run((database, examples, task), make_policy())
        reference, step_counts = reference_sampling_run(
            examples, task, make_policy(), epochs=4, step_size=self.STEP, seed=0
        )
        assert np.array_equal(result.model["w"], reference["w"])
        assert [r.gradient_steps for r in result.history] == step_counts

    @pytest.mark.parametrize("extra", [0, 5])
    def test_subsample_full_buffer_degenerates_to_clustered(self, workload, extra):
        """buffer_size >= n keeps every tuple in stored order: the Figure 10B
        sweep at fraction 1.0 is plain IGD over the clustered data."""
        n = len(workload[1])
        full = self.run(workload, Subsample(n + extra))
        clustered = self.run(workload, "clustered")
        assert np.array_equal(full.model["w"], clustered.model["w"])
        assert full.objective_trace() == clustered.objective_trace()

    def test_mrs_full_buffer_still_steps(self, workload):
        n = len(workload[1])
        result = self.run(workload, MultiplexedReservoir(n + 5))
        assert result.history[0].gradient_steps == 1
        assert result.history[-1].gradient_steps > n

    def test_subsample_trains_only_on_the_buffer(self, workload):
        result = self.run(workload, Subsample(20))
        assert result.ordering_name == "subsample"
        assert [r.gradient_steps for r in result.history] == [20, 40, 60, 80]

    def test_mrs_converges_better_than_subsampling(self, workload):
        subsample = self.run(workload, Subsample(12), max_epochs=6)
        mrs = self.run(workload, MultiplexedReservoir(12), max_epochs=6)
        assert mrs.final_objective < subsample.final_objective
        # I/O worker steps on dropped tuples plus memory-worker steps.
        assert mrs.history[-1].gradient_steps > 6 * len(workload[1]) - 12

    @pytest.mark.parametrize(
        "ordering", [Subsample(30), MultiplexedReservoir(30), "clustered"],
        ids=["subsample", "mrs", "clustered"],
    )
    def test_epoch_stopwatch_is_bounded_by_the_run(self, workload, ordering):
        """Every epoch is timed by the one loop's own stopwatch (the private
        MRS loop once reported host uptime per epoch)."""
        result = self.run(workload, ordering)
        assert sum(r.elapsed_seconds for r in result.history) <= result.total_seconds
        assert result.time_to_reach(result.final_objective) <= result.total_seconds


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
