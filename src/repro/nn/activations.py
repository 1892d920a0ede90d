"""Activation functions and their derivatives.

The paper uses ReLU almost everywhere ("limits outputs to be positive, ...
useful when predicting throughput") and a linear output head on several
models; sigmoid/tanh are needed internally by LSTM/GRU gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class Activation:
    """An activation function paired with its derivative.

    ``backward`` receives the *pre-activation* input ``x`` and the cached
    forward output ``y`` and returns dY/dX elementwise, as any array the
    upstream gradient can be multiplied by (ReLU's is a boolean mask).
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    backward: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_backward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The boolean mask itself: a float array times it equals the array
    # times the mask's 0.0/1.0 copy, bit for bit, without the copy.
    return x > 0.0


def _linear_forward(x: np.ndarray) -> np.ndarray:
    return x


def _linear_backward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    # Numerically stable piecewise formulation.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_backward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_backward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


relu = Activation("relu", _relu_forward, _relu_backward)
linear = Activation("linear", _linear_forward, _linear_backward)
sigmoid = Activation("sigmoid", _sigmoid_forward, _sigmoid_backward)
tanh = Activation("tanh", _tanh_forward, _tanh_backward)

_REGISTRY: dict[str, Activation] = {
    a.name: a for a in (relu, linear, sigmoid, tanh)
}


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name (``"relu"``, ``"linear"``, ...)."""
    if isinstance(name, Activation):
        return name
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown activation {name!r}; known: {known}") from None
