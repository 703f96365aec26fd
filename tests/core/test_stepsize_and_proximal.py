"""Tests for step-size schedules (Appendix B) and proximal operators (Appendix A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BoxProjection,
    ComposedProximal,
    ConstantStepSize,
    DiminishingStepSize,
    EpochDecayStepSize,
    GeometricStepSize,
    IdentityProximal,
    L1Proximal,
    L2BallProjection,
    L2Proximal,
    Model,
    SimplexProjection,
    make_schedule,
    project_to_simplex,
)


class TestStepSizes:
    def test_constant(self):
        schedule = ConstantStepSize(0.3)
        assert schedule.step_size(0, 0) == schedule.step_size(1000, 7) == 0.3

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantStepSize(0.0)

    def test_diminishing_goes_to_zero_but_diverges_in_sum(self):
        schedule = DiminishingStepSize(alpha0=1.0, power=1.0)
        values = [schedule.step_size(k, 0) for k in range(10000)]
        assert values[-1] < 1e-3
        assert sum(values) > 9.0  # harmonic series grows without bound

    def test_diminishing_power_validation(self):
        with pytest.raises(ValueError):
            DiminishingStepSize(alpha0=1.0, power=1.5)

    def test_geometric_decay(self):
        schedule = GeometricStepSize(alpha0=1.0, rho=0.5)
        assert schedule.step_size(3, 0) == pytest.approx(0.125)

    def test_geometric_rho_validation(self):
        with pytest.raises(ValueError):
            GeometricStepSize(alpha0=1.0, rho=1.0)

    def test_epoch_decay_constant_within_epoch(self):
        schedule = EpochDecayStepSize(alpha0=0.1, decay=0.5)
        assert schedule.step_size(5, 0) == schedule.step_size(900, 0) == pytest.approx(0.1)
        assert schedule.step_size(0, 2) == pytest.approx(0.025)

    @pytest.mark.parametrize("schedule", [
        ConstantStepSize(0.3),
        DiminishingStepSize(alpha0=1.0, power=0.7),
        GeometricStepSize(alpha0=1.0, rho=0.999),
        EpochDecayStepSize(alpha0=0.1, decay=0.5),
    ], ids=lambda s: type(s).__name__)
    def test_strided_step_sizes_are_the_per_step_values(self, schedule):
        # A pool worker's share of an interleaved epoch: positions 1, 4, 7, ...
        strided = schedule.step_sizes(11, 5, 2, stride=3)
        assert strided.tolist() == [schedule.step_size(11 + 3 * i, 2) for i in range(5)]
        assert np.array_equal(schedule.step_sizes(11, 13, 2)[::3], strided)

    def test_make_schedule_from_float_dict_and_passthrough(self):
        assert isinstance(make_schedule(0.1), ConstantStepSize)
        schedule = make_schedule({"kind": "epoch_decay", "alpha0": 0.2, "decay": 0.9})
        assert isinstance(schedule, EpochDecayStepSize)
        assert make_schedule(schedule) is schedule

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("spec", [
        {"kind": "constant"},
        {"kind": "diminishing"},
        {"kind": "geometric", "rho": 0.5},
        {"kind": "epoch_decay"},
    ], ids=lambda spec: spec["kind"])
    def test_non_finite_step_sizes_are_rejected(self, spec, value):
        key = "alpha" if spec["kind"] == "constant" else "alpha0"
        with pytest.raises(ValueError, match="finite"):
            make_schedule({**spec, key: value})

    def test_make_schedule_rejects_a_bool(self):
        with pytest.raises(TypeError, match="bool"):
            make_schedule(True)

    def test_make_schedule_unknown_kind(self):
        with pytest.raises(ValueError):
            make_schedule({"kind": "warp_drive"})

    def test_make_schedule_bad_type(self):
        with pytest.raises(TypeError):
            make_schedule("fast")


class TestProximalOperators:
    def test_identity_is_noop(self):
        model = Model({"w": np.array([1.0, -2.0])})
        IdentityProximal().apply(model, 0.5)
        np.testing.assert_allclose(model["w"], [1.0, -2.0])

    def test_l1_soft_thresholding(self):
        model = Model({"w": np.array([0.5, -0.05, 2.0])})
        L1Proximal(mu=1.0).apply(model, 0.1)
        np.testing.assert_allclose(model["w"], [0.4, 0.0, 1.9])

    def test_l1_penalty_value(self):
        model = Model({"w": np.array([1.0, -2.0])})
        assert L1Proximal(mu=0.5).penalty(model) == pytest.approx(1.5)

    def test_l2_shrinkage(self):
        model = Model({"w": np.array([2.0])})
        L2Proximal(mu=1.0).apply(model, 1.0)
        np.testing.assert_allclose(model["w"], [1.0])

    def test_l2_penalty_value(self):
        model = Model({"w": np.array([3.0, 4.0])})
        assert L2Proximal(mu=2.0).penalty(model) == pytest.approx(25.0)

    def test_box_projection(self):
        model = Model({"w": np.array([-1.0, 0.5, 2.0])})
        BoxProjection(lower=0.0, upper=1.0).apply(model, 1.0)
        np.testing.assert_allclose(model["w"], [0.0, 0.5, 1.0])

    def test_box_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxProjection(lower=1.0, upper=0.0)

    def test_l2_ball_projection(self):
        model = Model({"w": np.array([3.0, 4.0])})
        L2BallProjection(radius=1.0).apply(model, 1.0)
        assert np.linalg.norm(model["w"]) == pytest.approx(1.0)
        inside = Model({"w": np.array([0.1, 0.1])})
        L2BallProjection(radius=1.0).apply(inside, 1.0)
        np.testing.assert_allclose(inside["w"], [0.1, 0.1])

    def test_simplex_projection_properties(self):
        vector = np.array([0.5, -1.0, 2.0, 0.1])
        projected = project_to_simplex(vector)
        assert projected.sum() == pytest.approx(1.0)
        assert np.all(projected >= 0)

    def test_simplex_projection_already_feasible(self):
        vector = np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(project_to_simplex(vector), vector)

    def test_simplex_requires_1d(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.zeros((2, 2)))

    def test_simplex_operator_on_model(self):
        model = Model({"w": np.array([5.0, 1.0, -3.0])})
        SimplexProjection().apply(model, 1.0)
        assert model["w"].sum() == pytest.approx(1.0)

    def test_component_scoping(self):
        model = Model({"w": np.array([10.0]), "b": np.array([10.0])})
        L1Proximal(mu=1.0, component="w").apply(model, 1.0)
        assert model["w"][0] == pytest.approx(9.0)
        assert model["b"][0] == pytest.approx(10.0)

    def test_composed_proximal(self):
        model = Model({"w": np.array([1.5, -0.2])})
        composed = ComposedProximal(L1Proximal(mu=1.0), BoxProjection(lower=0.0, upper=1.0))
        composed.apply(model, 0.1)
        np.testing.assert_allclose(model["w"], [1.0, 0.0])
        assert composed.penalty(model) == pytest.approx(1.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            L1Proximal(mu=-1.0)
        with pytest.raises(ValueError):
            L2Proximal(mu=-0.5)
