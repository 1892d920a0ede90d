"""The :class:`Sequential` model container.

Mirrors the slice of the Keras API the paper relies on: stack layers, train
with a loss and an optimizer for N epochs on a chronological 60/20/20
train/validation/test split, then predict.

Recurrent-first models consume ``(batch, timesteps, features)`` windows; a
2-D input is automatically promoted to a single-timestep window so the same
telemetry matrix can be fed to every Table-I architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DivergedError, ModelError, ShapeError
from repro.nn.layers import Dense, Layer
from repro.nn.losses import Loss, get_loss
from repro.nn.metrics import is_diverged
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.observability import get_observability


@dataclass
class TrainingHistory:
    """Per-epoch record of a ``fit`` call."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epochs_run: int = 0
    diverged: bool = False

    @property
    def final_train_loss(self) -> float:
        if not self.train_loss:
            raise ModelError("no epochs were run")
        return self.train_loss[-1]

    @property
    def final_val_loss(self) -> float | None:
        return self.val_loss[-1] if self.val_loss else None


def train_val_test_split(
    x: np.ndarray,
    y: np.ndarray,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> tuple[np.ndarray, ...]:
    """Chronological 60/20/20 split (the paper's protocol, section V-G).

    No shuffling: throughput telemetry is a time series, so the validation
    and test sets are strictly later than the training set.  Returns
    ``(x_train, y_train, x_val, y_val, x_test, y_test)``.
    """
    if len(x) != len(y):
        raise ShapeError(f"x has {len(x)} rows but y has {len(y)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ConfigurationError(f"fractions must be non-negative: {fractions}")
    n = len(x)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return (
        x[:n_train],
        y[:n_train],
        x[n_train : n_train + n_val],
        y[n_train : n_train + n_val],
        x[n_train + n_val :],
        y[n_train + n_val :],
    )


#: Rows per block of an inference forward pass.  A multiple of 4, because
#: OpenBLAS's width-1 output kernel groups rows by 4: blocks then start on
#: the same row groups as one full-height matmul.
PREDICT_BLOCK_ROWS = 2048


def _block_bounds(n: int, block: int) -> list[tuple[int, int]]:
    """``[start, stop)`` row ranges covering ``n`` rows in ``block``-row blocks.

    A trailing one-row block is folded into the block before it: a 1-row
    matmul takes a different BLAS kernel and can change the last bit.
    An empty input is one empty block, so shapes are still checked.
    """
    bounds = [(start, min(start + block, n)) for start in range(0, n, block)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds or [(0, 0)]


class Sequential:
    """A linear stack of layers with fit/predict/evaluate."""

    def __init__(self, layers: list[Layer], *, seed: int | None = None) -> None:
        if not layers:
            raise ModelError("Sequential needs at least one layer")
        self.layers = list(layers)
        self._rng = np.random.default_rng(seed)
        self.built = False
        self.input_dim: int | None = None
        metrics = get_observability().metrics
        self._m_epochs = metrics.counter(
            "repro_nn_epochs_total", "training epochs completed"
        )
        self._m_forward = metrics.counter(
            "repro_nn_forward_rows_total",
            "rows pushed through inference forward passes",
        )

    # -- construction ------------------------------------------------------
    def build(self, input_dim: int) -> None:
        """Allocate all layer parameters for a given feature count."""
        if self.built:
            return
        dim = int(input_dim)
        self.input_dim = dim
        for layer in self.layers:
            layer.build(dim, self._rng)
            dim = layer.output_dim
        self.built = True

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    # -- shape handling ----------------------------------------------------
    def _adapt_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        first = self.layers[0]
        if first.input_rank == 3 and x.ndim == 2:
            # Promote tabular rows to single-timestep windows.
            x = x[:, None, :]
        if x.ndim != first.input_rank:
            raise ShapeError(
                f"{type(first).__name__} expects rank-{first.input_rank} "
                f"input, got shape {x.shape}"
            )
        return x

    @staticmethod
    def _adapt_target(y: np.ndarray, output_dim: int) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or y.shape[1] != output_dim:
            raise ShapeError(
                f"targets must have shape (n, {output_dim}), got {y.shape}"
            )
        return y

    # -- inference ---------------------------------------------------------
    def predict(self, x: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Forward pass; returns ``(n, output_dim)`` predictions.

        The rows are pushed through in blocks of ``batch_size`` rows
        (default :data:`PREDICT_BLOCK_ROWS`), so the working set is one
        block's intermediates rather than a full-height array per layer.
        Each :class:`Dense` layer writes into one ``(block, units)``
        scratch buffer allocated per call and reused for every block;
        recurrent layers run their own ``forward`` per block.
        """
        if batch_size is not None and batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        x = self._adapt_input(x)
        if not self.built:
            self.build(x.shape[-1])
        self._m_forward.inc(len(x))
        bounds = _block_bounds(len(x), batch_size or PREDICT_BLOCK_ROWS)
        height = max(stop - start for start, stop in bounds)
        scratch = [
            np.empty((height, layer.units)) if isinstance(layer, Dense) else None
            for layer in self.layers
        ]
        result = np.empty((len(x), self.output_dim))
        for start, stop in bounds:
            out = x[start:stop]
            for layer, buffer in zip(self.layers, scratch):
                if buffer is None:
                    out = layer.forward(out, training=False)
                else:
                    out = layer.forward(
                        out, training=False, out=buffer[: stop - start]
                    )
            result[start:stop] = out
        return result

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
        # The first layer's input gradient would only flow into the data.
        self.layers[0].backward(grad, need_input_grad=False)

    # -- training ----------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 200,
        batch_size: int = 32,
        loss: str | Loss = "mse",
        optimizer: str | Optimizer = "sgd",
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        shuffle: bool = False,
        stop_on_divergence: bool = True,
        patience: int | None = None,
        sample_weight: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train with mini-batch gradient descent.

        The paper's defaults are 200 epochs and standard (plain) SGD; data is
        chronological so ``shuffle`` defaults off.  When training produces a
        non-finite loss the run stops and the history is flagged
        ``diverged`` (raising :class:`DivergedError` only if
        ``stop_on_divergence`` is False is never useful, so instead we never
        raise here -- Table II needs to *report* divergence, not crash).

        ``patience`` enables early stopping: training halts once the
        validation loss has not improved for that many consecutive epochs
        (requires ``validation_data``).

        ``sample_weight`` supplies per-row loss weights (the prioritized
        replay buffer's importance-sampling correction); the validation
        loss stays unweighted.  ``None`` is exactly the unweighted path.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if patience is not None:
            if patience < 1:
                raise ConfigurationError(
                    f"patience must be >= 1, got {patience}"
                )
            if validation_data is None:
                raise ConfigurationError(
                    "early stopping (patience) requires validation_data"
                )
        x = self._adapt_input(x)
        if not self.built:
            self.build(x.shape[-1])
        y = self._adapt_target(y, self.output_dim)
        if len(x) != len(y):
            raise ShapeError(f"x has {len(x)} rows but y has {len(y)}")
        if len(x) == 0:
            raise ShapeError("cannot fit on an empty dataset")
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=np.float64).ravel()
            if len(sample_weight) != len(x):
                raise ShapeError(
                    f"x has {len(x)} rows but sample_weight has "
                    f"{len(sample_weight)}"
                )
        loss_fn = get_loss(loss)
        opt = get_optimizer(optimizer)
        # Optimizer slot keys, built once: (key, layer, parameter name).
        slots = [
            (f"layer{i}/{name}", layer, name)
            for i, layer in enumerate(self.layers)
            for name in layer.params
        ]
        if validation_data is not None:
            vx, vy = validation_data
            vy = self._adapt_target(vy, self.output_dim)
        history = TrainingHistory()
        if shuffle:
            indices = np.arange(len(x))
        else:
            # In-order batches are contiguous row slices: views of one
            # C-ordered array hold the same rows, in the same layout, as
            # fancy-indexed copies, without the copy.
            x = np.ascontiguousarray(x)
        best_val = np.inf
        stale_epochs = 0
        for _ in range(epochs):
            if shuffle:
                self._rng.shuffle(indices)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(x), batch_size):
                batch = (
                    indices[start : start + batch_size] if shuffle
                    else slice(start, start + batch_size)
                )
                yb = y[batch]
                pred = self._forward(x[batch], training=True)
                value, grad = loss_fn.value_and_gradient(
                    pred, yb,
                    sample_weight[batch] if sample_weight is not None else None,
                )
                epoch_loss += value
                n_batches += 1
                self._backward(grad)
                for key, layer, name in slots:
                    opt.apply(key, layer.params[name], layer.grads[name])
            mean_loss = epoch_loss / n_batches
            history.train_loss.append(mean_loss)
            history.epochs_run += 1
            if validation_data is not None:
                history.val_loss.append(loss_fn.value(self.predict(vx), vy))
            if not np.isfinite(mean_loss):
                history.diverged = True
                if stop_on_divergence:
                    break
            if patience is not None:
                val = history.val_loss[-1]
                if val < best_val - 1e-12:
                    best_val = val
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= patience:
                        break
        self._m_epochs.inc(history.epochs_run)
        return history

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, *, loss: str | Loss = "mse"
    ) -> float:
        """Loss value on a held-out set."""
        pred = self.predict(x)
        return get_loss(loss).value(pred, self._adapt_target(y, self.output_dim))

    def check_divergence(self, x: np.ndarray, y: np.ndarray) -> bool:
        """Paper-style divergence test on held-out data (see Table II)."""
        pred = self.predict(x)
        return is_diverged(pred, self._adapt_target(y, self.output_dim))

    def require_converged(self, x: np.ndarray, y: np.ndarray) -> None:
        """Raise :class:`DivergedError` if the model diverged on ``(x, y)``."""
        if self.check_divergence(x, y):
            raise DivergedError(
                "model predictions are constant or non-finite on held-out data"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"
