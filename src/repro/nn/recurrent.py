"""Recurrent layers: SimpleRNN, LSTM and GRU with full BPTT.

Table I's recurrent models put one recurrent layer first (consuming a window
of telemetry as a ``(batch, timesteps, features)`` array) followed by Dense
layers.  Matching Keras' default, these layers return only the final hidden
state ``(batch, units)``.

The ``activation`` argument is the *cell* activation (the paper writes
"Z (LSTM) ReLU", i.e. ReLU cell activation); gate activations are always
sigmoid, as in Keras.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers import Layer


class _Recurrent(Layer):
    """Shared plumbing for the three recurrent layers."""

    input_rank = 3

    #: number of stacked gate blocks in the combined weight matrices
    n_gates = 1

    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        if input_dim <= 0:
            raise ShapeError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        g = self.n_gates
        self.params = {
            "W": glorot_uniform(rng, input_dim, g * self.units),
            "U": orthogonal(rng, self.units, g * self.units),
            "b": zeros((g * self.units,)),
        }
        self.zero_grads()
        self.built = True

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(
                f"{type(self).__name__} expected (batch, timesteps, "
                f"{self.input_dim}), got {x.shape}"
            )
        return x

    def _gate(self, z: np.ndarray, index: int) -> np.ndarray:
        """Slice gate ``index`` out of a combined pre-activation array."""
        u = self.units
        return z[:, index * u : (index + 1) * u]


class SimpleRNN(_Recurrent):
    """Elman RNN: ``h_t = act(x_t W + h_{t-1} U + b)``."""

    n_gates = 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = self._check_input(x)
        batch, steps, _ = x.shape
        w, u, b = self.params["W"], self.params["U"], self.params["b"]
        h = np.zeros((batch, self.units))
        hs = [h]
        zs = []
        for t in range(steps):
            z = x[:, t, :] @ w + h @ u + b
            h = self.activation(z)
            zs.append(z)
            hs.append(h)
        if training:
            self._cache = {"x": x, "hs": hs, "zs": zs}
        return h

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        self._require_built()
        if not self._cache:
            raise ModelError("backward() called before a training forward pass")
        x, hs, zs = self._cache["x"], self._cache["hs"], self._cache["zs"]
        batch, steps, _ = x.shape
        w, u = self.params["W"], self.params["U"]
        dw = np.zeros_like(w)
        du = np.zeros_like(u)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(x) if need_input_grad else None
        dh = grad_out.copy()
        for t in range(steps - 1, -1, -1):
            dz = dh * self.activation.backward(zs[t], hs[t + 1])
            dw += x[:, t, :].T @ dz
            du += hs[t].T @ dz
            db += dz.sum(axis=0)
            if need_input_grad:
                dx[:, t, :] = dz @ w.T
            dh = dz @ u.T
        self.grads = {"W": dw, "U": du, "b": db}
        return dx


class LSTM(_Recurrent):
    """Long short-term memory (Hochreiter & Schmidhuber).

    Gate order in the combined matrices: input, forget, candidate, output.
    """

    n_gates = 4

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = self._check_input(x)
        batch, steps, _ = x.shape
        w, u, b = self.params["W"], self.params["U"], self.params["b"]
        h = np.zeros((batch, self.units))
        c = np.zeros((batch, self.units))
        cache: list[dict[str, np.ndarray]] = []
        for t in range(steps):
            z = x[:, t, :] @ w + h @ u + b
            zi, zf, zg, zo = (self._gate(z, k) for k in range(4))
            i = sigmoid(zi)
            f = sigmoid(zf)
            g = self.activation(zg)
            o = sigmoid(zo)
            c_prev = c
            c = f * c_prev + i * g
            ac = self.activation(c)
            h_prev = h
            h = o * ac
            if training:
                cache.append(
                    {
                        "xt": x[:, t, :], "h_prev": h_prev, "c_prev": c_prev,
                        "zi": zi, "zf": zf, "zg": zg, "zo": zo,
                        "i": i, "f": f, "g": g, "o": o, "c": c, "ac": ac,
                    }
                )
        if training:
            self._cache = {"x": x, "steps_cache": cache}
        return h

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        self._require_built()
        if not self._cache:
            raise ModelError("backward() called before a training forward pass")
        x = self._cache["x"]
        cache = self._cache["steps_cache"]
        batch, steps, _ = x.shape
        w, u = self.params["W"], self.params["U"]
        dw = np.zeros_like(w)
        du = np.zeros_like(u)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(x) if need_input_grad else None
        dh = grad_out.copy()
        dc = np.zeros((batch, self.units))
        for t in range(steps - 1, -1, -1):
            s = cache[t]
            do = dh * s["ac"]
            dc = dc + dh * s["o"] * self.activation.backward(s["c"], s["ac"])
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dzi = di * s["i"] * (1.0 - s["i"])
            dzf = df * s["f"] * (1.0 - s["f"])
            dzg = dg * self.activation.backward(s["zg"], s["g"])
            dzo = do * s["o"] * (1.0 - s["o"])
            dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
            dw += s["xt"].T @ dz
            du += s["h_prev"].T @ dz
            db += dz.sum(axis=0)
            if need_input_grad:
                dx[:, t, :] = dz @ w.T
            dh = dz @ u.T
            dc = dc * s["f"]
        self.grads = {"W": dw, "U": du, "b": db}
        return dx


class GRU(_Recurrent):
    """Gated recurrent unit (Cho et al.), reset-before-matmul formulation.

    Gate order in the combined matrices: update (z), reset (r), candidate.
    ``h_t = z * h_{t-1} + (1 - z) * h_tilde``.
    """

    n_gates = 3

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = self._check_input(x)
        batch, steps, _ = x.shape
        w, u, b = self.params["W"], self.params["U"], self.params["b"]
        un = self.units
        wz, wr, wh = w[:, :un], w[:, un : 2 * un], w[:, 2 * un :]
        uz, ur, uh = u[:, :un], u[:, un : 2 * un], u[:, 2 * un :]
        bz, br, bh = b[:un], b[un : 2 * un], b[2 * un :]
        h = np.zeros((batch, un))
        cache: list[dict[str, np.ndarray]] = []
        for t in range(steps):
            xt = x[:, t, :]
            zz = xt @ wz + h @ uz + bz
            zr = xt @ wr + h @ ur + br
            z = sigmoid(zz)
            r = sigmoid(zr)
            zh = xt @ wh + (r * h) @ uh + bh
            h_tilde = self.activation(zh)
            h_prev = h
            h = z * h_prev + (1.0 - z) * h_tilde
            if training:
                cache.append(
                    {
                        "xt": xt, "h_prev": h_prev, "z": z, "r": r,
                        "zh": zh, "h_tilde": h_tilde,
                    }
                )
        if training:
            self._cache = {"x": x, "steps_cache": cache}
        return h

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        self._require_built()
        if not self._cache:
            raise ModelError("backward() called before a training forward pass")
        x = self._cache["x"]
        cache = self._cache["steps_cache"]
        batch, steps, _ = x.shape
        w, u = self.params["W"], self.params["U"]
        un = self.units
        wz, wr, wh = w[:, :un], w[:, un : 2 * un], w[:, 2 * un :]
        uz, ur, uh = u[:, :un], u[:, un : 2 * un], u[:, 2 * un :]
        dw = np.zeros_like(w)
        du = np.zeros_like(u)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(x) if need_input_grad else None
        dh = grad_out.copy()
        for t in range(steps - 1, -1, -1):
            s = cache[t]
            dz_gate = dh * (s["h_prev"] - s["h_tilde"])
            dh_tilde = dh * (1.0 - s["z"])
            dzh = dh_tilde * self.activation.backward(s["zh"], s["h_tilde"])
            dzz = dz_gate * s["z"] * (1.0 - s["z"])
            d_rh = dzh @ uh.T
            dr = d_rh * s["h_prev"]
            dzr = dr * s["r"] * (1.0 - s["r"])
            # parameter grads
            dw[:, :un] += s["xt"].T @ dzz
            dw[:, un : 2 * un] += s["xt"].T @ dzr
            dw[:, 2 * un :] += s["xt"].T @ dzh
            du[:, :un] += s["h_prev"].T @ dzz
            du[:, un : 2 * un] += s["h_prev"].T @ dzr
            du[:, 2 * un :] += (s["r"] * s["h_prev"]).T @ dzh
            db[:un] += dzz.sum(axis=0)
            db[un : 2 * un] += dzr.sum(axis=0)
            db[2 * un :] += dzh.sum(axis=0)
            # input grad
            if need_input_grad:
                dx[:, t, :] = dzz @ wz.T + dzr @ wr.T + dzh @ wh.T
            # carry to previous hidden state
            dh = (
                dh * s["z"]
                + dzz @ uz.T
                + dzr @ ur.T
                + d_rh * s["r"]
            )
        self.grads = {"W": dw, "U": du, "b": db}
        return dx
