"""Tests for the Model state container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Model


class TestConstruction:
    def test_zeros(self):
        model = Model.zeros({"w": 5, "b": (2, 3)})
        assert model["w"].shape == (5,)
        assert model["b"].shape == (2, 3)
        assert model.num_parameters == 11

    def test_unknown_component_raises(self):
        with pytest.raises(KeyError):
            Model.zeros({"w": 3}).component("missing")

    def test_contains_and_names(self):
        model = Model.zeros({"w": 3, "a": 2})
        assert "w" in model and "missing" not in model
        assert model.component_names() == ["a", "w"]

    def test_copy_is_deep(self):
        model = Model.zeros({"w": 3})
        clone = model.copy()
        clone["w"][0] = 5.0
        assert model["w"][0] == 0.0

    def test_metadata_carried_by_copy(self):
        model = Model.zeros({"w": 2}, )
        model.metadata["epoch"] = 3
        assert model.copy().metadata["epoch"] == 3


class TestVectorOps:
    def test_flat_vector_roundtrip(self):
        model = Model({"a": np.arange(4.0).reshape(2, 2), "b": np.array([9.0, 8.0])})
        flat = model.as_flat_vector()
        assert flat.shape == (6,)
        clone = model.zeros_like()
        clone.load_flat_vector(flat)
        assert clone.allclose(model)

    def test_load_flat_vector_wrong_size(self):
        model = Model.zeros({"w": 3})
        with pytest.raises(ValueError):
            model.load_flat_vector(np.zeros(4))

    def test_norm(self):
        assert Model({"w": np.array([3.0, 4.0])}).norm() == pytest.approx(5.0)

    def test_add_scaled(self):
        a = Model({"w": np.array([1.0, 2.0])})
        b = Model({"w": np.array([2.0, -2.0])})
        a.add_scaled(b, 0.5)
        np.testing.assert_allclose(a["w"], [2.0, 1.0])

    def test_incompatible_models_raise(self):
        a = Model({"w": np.zeros(2)})
        b = Model({"v": np.zeros(2)})
        with pytest.raises(ValueError):
            a.add_scaled(b, 1.0)
        c = Model({"w": np.zeros(3)})
        with pytest.raises(ValueError):
            a.add_scaled(c, 1.0)


class TestAverage:
    def test_uniform_average(self):
        a = Model({"w": np.array([1.0, 1.0])})
        b = Model({"w": np.array([3.0, 5.0])})
        avg = Model.average([a, b])
        np.testing.assert_allclose(avg["w"], [2.0, 3.0])

    def test_weighted_average(self):
        a = Model({"w": np.array([0.0])})
        b = Model({"w": np.array([10.0])})
        avg = Model.average([a, b], weights=[3, 1])
        np.testing.assert_allclose(avg["w"], [2.5])

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            Model.average([])

    def test_average_mismatched_weights_raises(self):
        a = Model({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            Model.average([a], weights=[1, 2])

    def test_average_zero_weight_raises(self):
        a = Model({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            Model.average([a, a], weights=[0, 0])

    def test_allclose_detects_difference(self):
        a = Model({"w": np.array([1.0])})
        b = Model({"w": np.array([1.0 + 1e-3])})
        assert not a.allclose(b)
        assert a.allclose(Model({"w": np.array([1.0])}))
