"""Loss functions with analytic gradients."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ShapeError


def _check_shapes(y_pred: np.ndarray, y_true: np.ndarray) -> None:
    if y_pred.shape != y_true.shape:
        raise ShapeError(
            f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
        )


def _row_weights(weight: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-row weights shaped to broadcast over the output columns."""
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[0] != y_pred.shape[0]:
        raise ShapeError(
            f"weight has {w.shape[0]} rows but predictions have "
            f"{y_pred.shape[0]}"
        )
    return w


class Loss:
    """Base class: value + gradient w.r.t. predictions.

    ``weight`` optionally carries per-row importance weights (prioritized
    replay's bias correction); ``None`` is the exact unweighted
    computation.
    """

    name = "loss"

    def value(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> float:
        raise NotImplementedError

    def gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Both at once, as a training step needs them."""
        return (
            self.value(y_pred, y_true, weight),
            self.gradient(y_pred, y_true, weight),
        )


class _ResidualLoss(Loss):
    """A loss of the residual ``y_pred - y_true``.

    Subclasses define ``_value`` and ``_gradient`` over the residual and
    the row weights (``None`` when unweighted);
    :meth:`value_and_gradient` computes the residual once for both.
    """

    def _value(self, residual: np.ndarray, w: np.ndarray | None) -> float:
        raise NotImplementedError

    def _gradient(
        self, residual: np.ndarray, w: np.ndarray | None
    ) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _residual(
        y_pred: np.ndarray, y_true: np.ndarray, weight: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        _check_shapes(y_pred, y_true)
        w = None if weight is None else _row_weights(weight, y_pred)
        return y_pred - y_true, w

    def value(self, y_pred, y_true, weight=None) -> float:
        return self._value(*self._residual(y_pred, y_true, weight))

    def gradient(self, y_pred, y_true, weight=None) -> np.ndarray:
        return self._gradient(*self._residual(y_pred, y_true, weight))

    def value_and_gradient(
        self, y_pred, y_true, weight=None
    ) -> tuple[float, np.ndarray]:
        residual, w = self._residual(y_pred, y_true, weight)
        return self._value(residual, w), self._gradient(residual, w)


class MeanSquaredError(_ResidualLoss):
    """0.5-free MSE: ``mean((pred - true)**2)``; grad is ``2*(pred-true)/N``."""

    name = "mse"

    def _value(self, residual: np.ndarray, w: np.ndarray | None) -> float:
        # Divergence (overflow to inf) is a reportable outcome, not a bug:
        # Table II marks diverged models explicitly.
        with np.errstate(over="ignore", invalid="ignore"):
            if w is None:
                return float(np.mean(residual ** 2))
            return float(np.mean(w * residual ** 2))

    def _gradient(
        self, residual: np.ndarray, w: np.ndarray | None
    ) -> np.ndarray:
        if w is None:
            return 2.0 * residual / residual.size
        return 2.0 * w * residual / residual.size


class MeanAbsoluteError(_ResidualLoss):
    """MAE: ``mean(|pred - true|)``; subgradient sign at zero is 0."""

    name = "mae"

    def _value(self, residual: np.ndarray, w: np.ndarray | None) -> float:
        if w is None:
            return float(np.mean(np.abs(residual)))
        return float(np.mean(w * np.abs(residual)))

    def _gradient(
        self, residual: np.ndarray, w: np.ndarray | None
    ) -> np.ndarray:
        if w is None:
            return np.sign(residual) / residual.size
        return w * np.sign(residual) / residual.size


_REGISTRY: dict[str, type[Loss]] = {
    MeanSquaredError.name: MeanSquaredError,
    MeanAbsoluteError.name: MeanAbsoluteError,
}


def get_loss(name: str | Loss) -> Loss:
    """Resolve a loss by name (``"mse"``, ``"mae"``)."""
    if isinstance(name, Loss):
        return name
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown loss {name!r}; known: {known}") from None
