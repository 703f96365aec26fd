"""Model state for Bismarck's IGD aggregate.

A :class:`Model` is the UDA *state*: a small named collection of numpy arrays
(e.g. a single coefficient vector for LR/SVM, two factor matrices for LMF, an
emission and a transition matrix for a CRF).  Models are assumed to fit in
memory — the paper makes the same assumption ("models are typically orders of
magnitude smaller than the data").

The class provides the handful of linear-algebra utilities the rest of the
system needs: copying, averaging (for the pure-UDA merge), flattening to a
single vector (for shared-memory parallelism and convergence norms), and
norms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class Model:
    """A named collection of float64 numpy arrays representing learned state."""

    __slots__ = ("_components", "metadata")

    def __init__(self, components: Mapping[str, np.ndarray], metadata: dict | None = None):
        self._components = {
            name: np.asarray(array, dtype=np.float64) for name, array in components.items()
        }
        #: Free-form metadata carried along with the model (e.g. gradient step
        #: count, the epoch it was produced in).  Not part of equality.
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------- accessors
    def component(self, name: str) -> np.ndarray:
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(
                f"model has no component {name!r}; available: {sorted(self._components)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.component(name)

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def component_names(self) -> list[str]:
        return sorted(self._components)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._components.items())

    @property
    def num_parameters(self) -> int:
        return int(sum(array.size for array in self._components.values()))

    # ------------------------------------------------------------ construction
    @classmethod
    def zeros(cls, shapes: Mapping[str, int | tuple[int, ...]]) -> "Model":
        """Create a model with zero-initialised components of the given shapes."""
        return cls({name: np.zeros(shape) for name, shape in shapes.items()})

    def copy(self) -> "Model":
        return Model(
            {name: array.copy() for name, array in self._components.items()},
            metadata=dict(self.metadata),
        )

    def zeros_like(self) -> "Model":
        return Model({name: np.zeros_like(array) for name, array in self._components.items()})

    # -------------------------------------------------------------- vector ops
    def as_flat_vector(self) -> np.ndarray:
        """Concatenate all components (in sorted name order) into one vector."""
        if not self._components:
            return np.zeros(0)
        return np.concatenate(
            [self._components[name].ravel() for name in sorted(self._components)]
        )

    def load_flat_vector(self, vector: np.ndarray) -> None:
        """Overwrite all components from a flat vector (inverse of as_flat_vector)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self.num_parameters:
            raise ValueError(
                f"flat vector has {vector.size} entries but model has "
                f"{self.num_parameters} parameters"
            )
        offset = 0
        for name in sorted(self._components):
            array = self._components[name]
            count = array.size
            array[...] = vector[offset:offset + count].reshape(array.shape)
            offset += count

    def norm(self) -> float:
        """Euclidean norm over all parameters."""
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self._components.values())))

    def add_scaled(self, other: "Model", scale: float) -> None:
        """In-place ``self += scale * other``."""
        self._check_compatible(other)
        for name, array in self._components.items():
            array += scale * other._components[name]

    def _check_compatible(self, other: "Model") -> None:
        if set(self._components) != set(other._components):
            raise ValueError(
                f"incompatible models: components {sorted(self._components)} vs "
                f"{sorted(other._components)}"
            )
        for name, array in self._components.items():
            if array.shape != other._components[name].shape:
                raise ValueError(
                    f"component {name!r} has shape {array.shape} vs "
                    f"{other._components[name].shape}"
                )

    # ------------------------------------------------------------- aggregation
    @staticmethod
    def average(models: Iterable["Model"], weights: Sequence[float] | None = None) -> "Model":
        """(Weighted) average of models — the pure-UDA ``merge`` of the paper.

        Model averaging is exactly the Zinkevich-style parallelisation that the
        parallel UDA uses: each segment trains its own model and the merge
        function averages them.
        """
        models = list(models)
        if not models:
            raise ValueError("cannot average zero models")
        if weights is None:
            weights = [1.0] * len(models)
        weights = np.asarray(list(weights), dtype=np.float64)
        if len(weights) != len(models):
            raise ValueError("weights and models must have the same length")
        total_weight = float(weights.sum())
        if total_weight <= 0:
            raise ValueError("total weight must be positive")
        result = models[0].zeros_like()
        for model, weight in zip(models, weights):
            result.add_scaled(model, float(weight) / total_weight)
        return result

    # -------------------------------------------------------------- dunder etc
    def allclose(self, other: "Model", *, atol: float = 1e-10, rtol: float = 1e-8) -> bool:
        try:
            self._check_compatible(other)
        except ValueError:
            return False
        return all(
            np.allclose(array, other._components[name], atol=atol, rtol=rtol)
            for name, array in self._components.items()
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={array.shape}" for name, array in sorted(self._components.items())
        )
        return f"Model({parts})"
