"""Trainable layers: the :class:`Layer` protocol and :class:`Dense`.

Shapes follow the Keras convention the paper's models use:

* ``Dense`` consumes ``(batch, features)`` and produces ``(batch, units)``.
* Recurrent layers (see :mod:`repro.nn.recurrent`) consume
  ``(batch, timesteps, features)`` and produce the last hidden state
  ``(batch, units)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn.activations import Activation, get_activation, linear, relu
from repro.nn.initializers import glorot_uniform, zeros


class Layer:
    """Base class for trainable layers.

    Subclasses implement ``build`` (allocate parameters once the input
    dimension is known), ``forward`` and ``backward``.  Parameters and their
    gradients live in the ``params`` / ``grads`` dicts so optimizers can
    treat all layers uniformly.
    """

    #: rank of the input array this layer expects (2 for Dense, 3 for RNNs)
    input_rank: int = 2

    def __init__(self, units: int, activation: str | Activation = "linear") -> None:
        if units <= 0:
            raise ShapeError(f"units must be positive, got {units}")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self._cache: dict[str, np.ndarray] = {}

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter grads and return the gradient w.r.t. input.

        With ``need_input_grad=False`` (the first layer of a network,
        whose input is the data) the input gradient is not computed and
        ``None`` is returned.
        """
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    @property
    def output_dim(self) -> int:
        return self.units

    def parameter_count(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        for name, p in self.params.items():
            self.grads[name] = np.zeros_like(p)

    def _require_built(self) -> None:
        if not self.built:
            raise ModelError(f"{type(self).__name__} used before build()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(units={self.units}, "
            f"activation={self.activation.name!r})"
        )


class Dense(Layer):
    """Fully connected layer: ``y = activation(x @ W + b)``."""

    input_rank = 2

    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        if input_dim <= 0:
            raise ShapeError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        self.params = {
            "W": glorot_uniform(rng, input_dim, self.units),
            "b": zeros((self.units,)),
        }
        self.zero_grads()
        self.built = True

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``activation(x @ W + b)``.

        ``out`` (inference only) is a ``(batch, units)`` float64 buffer the
        result is written into, with the bias and activation applied in
        place, so a blocked forward pass allocates nothing per block.  The
        arithmetic is the same as the allocating path, so both give the
        same bits.
        """
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(
                f"Dense expected (batch, {self.input_dim}), got {x.shape}"
            )
        if out is not None:
            if training:
                raise ModelError("out= is inference-only; a training pass caches z")
            np.matmul(x, self.params["W"], out=out)
            out += self.params["b"]
            if self.activation is relu:
                np.maximum(out, 0.0, out=out)
            elif self.activation is not linear:
                out[...] = self.activation(out)
            return out
        z = x @ self.params["W"]
        z += self.params["b"]
        y = self.activation(z)
        if training:
            self._cache = {"x": x, "z": z, "y": y}
        return y

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        self._require_built()
        if not self._cache:
            raise ModelError("backward() called before a training forward pass")
        x, z, y = self._cache["x"], self._cache["z"], self._cache["y"]
        if grad_out.shape != y.shape:
            raise ShapeError(
                f"grad shape {grad_out.shape} does not match output {y.shape}"
            )
        # A linear layer's derivative is all ones: multiplying by it
        # would copy grad_out bit for bit.
        dz = (
            grad_out if self.activation is linear
            else grad_out * self.activation.backward(z, y)
        )
        self.grads["W"] = x.T @ dz
        self.grads["b"] = dz.sum(axis=0)
        return dz @ self.params["W"].T if need_input_grad else None
