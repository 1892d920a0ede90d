"""Blocked inference: ``Sequential.predict`` walks its input in row blocks.

The reference is the unblocked forward pass, ``_forward(_adapt_input(x))``,
which pushes the whole input through every layer in one shot.  Blocked
and unblocked predictions are compared with ``rtol=1e-12`` rather than for
exact equality: with one BLAS thread the two are bit-identical, but a
multi-threaded BLAS splits a matmul's rows across threads by height, so
the unblocked pass's own last bit already depends on the input height.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.nn.activations import get_activation
from repro.nn.layers import Dense
from repro.nn.model_zoo import MODEL_NUMBERS, build_model
from repro.nn.network import PREDICT_BLOCK_ROWS, Sequential, _block_bounds

B = PREDICT_BLOCK_ROWS

#: one row, block edges, a one-row tail, and a ragged multi-block tail
HEIGHTS = (1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7)


def probe(rows: int, z: int = 6, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, z)) * 4.0 - 1.0


def test_block_is_multiple_of_four():
    assert B % 4 == 0


@pytest.mark.parametrize("model_number", MODEL_NUMBERS)
def test_blocked_predict_matches_unblocked(model_number):
    net = build_model(model_number, 6, seed=model_number)
    for rows in HEIGHTS:
        x = probe(rows, seed=rows)
        blocked = net.predict(x)
        unblocked = net._forward(net._adapt_input(x), training=False)
        assert blocked.shape == (rows, net.output_dim)
        np.testing.assert_allclose(blocked, unblocked, rtol=1e-12, atol=0)


class TestBlockBounds:
    def test_exact_multiple(self):
        assert _block_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_ragged_tail_kept(self):
        assert _block_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_one_row_tail_folds_into_previous_block(self):
        assert _block_bounds(9, 4) == [(0, 4), (4, 9)]
        assert _block_bounds(B + 1, B) == [(0, B + 1)]

    def test_single_row_input_is_one_block(self):
        assert _block_bounds(1, 4) == [(0, 1)]

    def test_empty_input_is_one_empty_block(self):
        assert _block_bounds(0, 4) == [(0, 0)]


class TestDenseCalls:
    """``predict`` calls ``Dense.forward`` once per layer per block.

    Per-layer inference timing wraps ``Dense.forward`` and attributes each
    call to its layer, so every Dense layer must see all ``n`` rows through
    its own ``forward``, in inference mode, writing into one buffer.
    """

    def record_calls(self, monkeypatch):
        calls = []
        original = Dense.forward

        def spy(layer, x, training=False, *, out=None):
            calls.append((layer, len(x), training, out))
            return original(layer, x, training, out=out)

        monkeypatch.setattr(Dense, "forward", spy)
        return calls

    @pytest.mark.parametrize("model_number", [1, 6, 17])
    def test_every_dense_layer_sees_every_row(self, monkeypatch, model_number):
        net = build_model(model_number, 6, seed=0)
        rows = 3 * B + 7
        x = probe(rows)
        calls = self.record_calls(monkeypatch)
        net.predict(x)
        dense = [layer for layer in net.layers if isinstance(layer, Dense)]
        for layer in dense:
            mine = [c for c in calls if c[0] is layer]
            assert sum(c[1] for c in mine) == rows
            assert len(mine) == len(_block_bounds(rows, B))
            assert not any(c[2] for c in mine)

    def test_scratch_buffer_reused_across_blocks(self, monkeypatch):
        net = build_model(1, 6, seed=0)
        calls = self.record_calls(monkeypatch)
        net.predict(probe(4 * B + 3))
        for layer in net.layers:
            pointers = {
                c[3].__array_interface__["data"][0]
                for c in calls if c[0] is layer
            }
            assert len(pointers) == 1


class TestDenseOut:
    @pytest.mark.parametrize("activation", ["relu", "linear", "tanh", "sigmoid"])
    def test_out_path_equals_allocating_path(self, activation):
        layer = Dense(7, activation)
        layer.build(5, np.random.default_rng(1))
        x = probe(301, z=5, seed=2)
        expected = layer.forward(x)
        buffer = np.empty((301, 7))
        got = layer.forward(x, out=buffer)
        assert got is buffer
        assert np.array_equal(got, expected)

    def test_out_rejected_when_training(self):
        layer = Dense(3)
        layer.build(2, np.random.default_rng(0))
        with pytest.raises(ModelError, match="inference"):
            layer.forward(np.ones((4, 2)), True, out=np.empty((4, 3)))


@pytest.mark.parametrize("activation", ["relu", "linear", "tanh"])
def test_training_pass_matches_formula(activation):
    """A training forward/backward pass keeps the textbook arithmetic."""
    layer = Dense(9, activation)
    layer.build(4, np.random.default_rng(5))
    act = get_activation(activation)
    x = probe(33, z=4, seed=6)
    grad_out = probe(33, z=9, seed=7)
    w, b = layer.params["W"], layer.params["b"]
    y = layer.forward(x, training=True)
    grad_in = layer.backward(grad_out)
    z = x @ w + b
    dz = grad_out * act.backward(z, act(z))
    assert np.array_equal(y, act(z))
    assert np.array_equal(layer.grads["W"], x.T @ dz)
    assert np.array_equal(layer.grads["b"], dz.sum(axis=0))
    assert np.array_equal(grad_in, dz @ w.T)


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_non_positive_batch_size_rejected(self, batch_size):
        net = Sequential([Dense(4), Dense(1)], seed=0)
        with pytest.raises(ConfigurationError):
            net.predict(probe(10), batch_size=batch_size)

    def test_empty_input(self):
        net = Sequential([Dense(4), Dense(1)], seed=0)
        assert net.predict(np.empty((0, 6))).shape == (0, 1)
