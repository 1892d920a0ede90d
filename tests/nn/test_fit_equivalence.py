"""``Sequential.fit`` against the straightforward training loop it replaced.

``reference_fit`` below is the earlier loop, kept here as the numeric
reference: every batch is a fancy-indexed copy, the loss value and its
gradient are computed separately (with the loss formulas restated
here), every layer (the first included)
computes its input gradient, Dense layers apply the activation
derivative as a float array (ReLU's as an ``astype`` copy, linear's as
ones), and optimizer keys are formatted per step.  The production loop
must train the same weights and history, bit for bit.
"""

import numpy as np
import pytest

from repro.nn.activations import relu
from repro.nn.layers import Dense
from repro.nn.model_zoo import ARCHITECTURES, build_model, is_recurrent
from repro.nn.network import TrainingHistory
from repro.nn.optimizers import SGD, Adam

Z = 3


def _dense_forward(layer, x):
    z = x @ layer.params["W"] + layer.params["b"]
    y = layer.activation(z)
    layer._cache = {"x": x, "z": z, "y": y}
    return y


def _dense_backward(layer, grad_out):
    x, z, y = layer._cache["x"], layer._cache["z"], layer._cache["y"]
    if layer.activation is relu:
        derivative = (z > 0.0).astype(z.dtype)
    else:
        derivative = np.asarray(layer.activation.backward(z, y), dtype=float)
    dz = grad_out * derivative
    layer.grads["W"] = x.T @ dz
    layer.grads["b"] = dz.sum(axis=0)
    return dz @ layer.params["W"].T


def _reference_loss(name, y_pred, y_true, weight):
    """The earlier MSE/MAE value and gradient, each from its own residual."""
    w = None if weight is None else weight[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "mse":
            value = (
                np.mean((y_pred - y_true) ** 2) if w is None
                else np.mean(w * (y_pred - y_true) ** 2)
            )
        else:
            value = (
                np.mean(np.abs(y_pred - y_true)) if w is None
                else np.mean(w * np.abs(y_pred - y_true))
            )
    if name == "mse":
        grad = (
            2.0 * (y_pred - y_true) / y_pred.size if w is None
            else 2.0 * w * (y_pred - y_true) / y_pred.size
        )
    else:
        grad = (
            np.sign(y_pred - y_true) / y_pred.size if w is None
            else w * np.sign(y_pred - y_true) / y_pred.size
        )
    return float(value), grad


def reference_fit(
    model, x, y, *, epochs, batch_size, loss, optimizer,
    validation_data=None, shuffle=False, patience=None, sample_weight=None,
):
    x = model._adapt_input(x)
    if not model.built:
        model.build(x.shape[-1])
    y = model._adapt_target(y, model.output_dim)
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64).ravel()
    history = TrainingHistory()
    indices = np.arange(len(x))
    best_val = np.inf
    stale_epochs = 0
    for _ in range(epochs):
        if shuffle:
            model._rng.shuffle(indices)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(x), batch_size):
            batch_idx = indices[start : start + batch_size]
            xb, yb = x[batch_idx], y[batch_idx]
            wb = sample_weight[batch_idx] if sample_weight is not None else None
            pred = xb
            for layer in model.layers:
                if isinstance(layer, Dense):
                    pred = _dense_forward(layer, pred)
                else:
                    pred = layer.forward(pred, training=True)
            value, grad = _reference_loss(loss, pred, yb, wb)
            epoch_loss += value
            n_batches += 1
            for layer in reversed(model.layers):
                if isinstance(layer, Dense):
                    grad = _dense_backward(layer, grad)
                else:
                    grad = layer.backward(grad)
            for i, layer in enumerate(model.layers):
                for name, param in layer.params.items():
                    optimizer.apply(f"layer{i}/{name}", param, layer.grads[name])
        mean_loss = epoch_loss / n_batches
        history.train_loss.append(mean_loss)
        history.epochs_run += 1
        if validation_data is not None:
            vx, vy = validation_data
            vp = model.predict(vx)
            history.val_loss.append(
                _reference_loss(
                    loss, vp, model._adapt_target(vy, model.output_dim), None
                )[0]
            )
        if not np.isfinite(mean_loss):
            history.diverged = True
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
    return history


def _data(model_number, rows=90, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((rows, Z))
    y = x @ rng.random(Z) + 0.1 * rng.standard_normal(rows)
    if is_recurrent(model_number):
        x = np.stack([x, np.roll(x, 1, axis=0)], axis=1)  # 2 timesteps
    return x, y


def _weights(model):
    return [
        param.tobytes()
        for layer in model.layers
        for _, param in sorted(layer.params.items())
    ]


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


OPTIMIZERS = {
    "sgd": lambda: SGD(learning_rate=0.05),
    "sgd_momentum_clip": lambda: SGD(
        learning_rate=0.05, momentum=0.9, clipnorm=0.5
    ),
    "sgd_diverging": lambda: SGD(learning_rate=1e6),
    "adam": lambda: Adam(learning_rate=0.01),
}


def _compare(model_number, *, optimizer="sgd", **kwargs):
    x, y = _data(model_number)
    fit_kwargs = dict(
        epochs=kwargs.pop("epochs", 3), batch_size=12, loss="mse",
        validation_data=(x[-20:], y[-20:]),
    )
    fit_kwargs.update(kwargs)
    got_model = build_model(model_number, Z, seed=7)
    want_model = build_model(model_number, Z, seed=7)
    got_opt, want_opt = OPTIMIZERS[optimizer](), OPTIMIZERS[optimizer]()
    got = got_model.fit(x[:-20], y[:-20], optimizer=got_opt, **fit_kwargs)
    want = reference_fit(
        want_model, x[:-20], y[:-20], optimizer=want_opt, **fit_kwargs
    )
    # compared as bytes: a diverged history holds NaN, which != itself
    assert _bits(got.train_loss) == _bits(want.train_loss)
    assert _bits(got.val_loss) == _bits(want.val_loss)
    assert (got.epochs_run, got.diverged) == (want.epochs_run, want.diverged)
    assert _weights(got_model) == _weights(want_model)
    got_state, want_state = got_opt.state_dict(), want_opt.state_dict()
    assert sorted(got_state) == sorted(want_state)
    for key in want_state:
        assert got_state[key].tobytes() == want_state[key].tobytes()
    # the RNG stream (shuffling) advanced identically
    assert (
        got_model._rng.bit_generator.state
        == want_model._rng.bit_generator.state
    )


MODELS = sorted(ARCHITECTURES)


def test_all_twenty_three_models_covered():
    assert MODELS == list(range(1, 24))


@pytest.mark.parametrize("model_number", MODELS)
@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
def test_plain_sgd(model_number, shuffle):
    _compare(model_number, shuffle=shuffle)


@pytest.mark.parametrize("model_number", MODELS)
def test_mae_with_sample_weight(model_number):
    rows = len(_data(model_number)[0]) - 20
    weights = np.random.default_rng(5).uniform(0.2, 3.0, rows)
    _compare(model_number, loss="mae", sample_weight=weights)


@pytest.mark.parametrize("model_number", MODELS)
def test_momentum_clipnorm_and_adam(model_number):
    _compare(model_number, optimizer="sgd_momentum_clip", shuffle=True)
    _compare(model_number, optimizer="adam")


@pytest.mark.parametrize("model_number", [1, 6, 12, 17])
def test_weighted_mse_with_patience(model_number):
    rows = len(_data(model_number)[0]) - 20
    weights = np.random.default_rng(6).uniform(0.2, 3.0, rows)
    _compare(
        model_number, epochs=12, patience=1, sample_weight=weights,
        optimizer="adam",
    )


def test_divergence_history_matches():
    _compare(1, epochs=4, optimizer="sgd_diverging")


def test_relu_mask_product_equals_float_mask_product():
    """Multiplying by the boolean mask is the astype copy's product."""
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.standard_normal(200), [0.0, -0.0, np.inf, -np.inf]])
    grad = np.concatenate(
        [rng.standard_normal(200), [-0.0, np.nan, -1.0, np.inf]]
    )
    got = grad * relu.backward(z, relu(z))
    want = grad * (z > 0.0).astype(z.dtype)
    assert got.tobytes() == want.tobytes()
