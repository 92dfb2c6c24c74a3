"""Elman and LSTM cells, time unrolling, and the recurrent language model."""

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.config import ModelConfig
from nlmkit.errors import SequenceLengthError, ShapeError
from nlmkit.kernels import softmax
from nlmkit.recurrent import (
    lstm_cell,
    recurrent_generate,
    recurrent_hidden,
    recurrent_lm_forward,
    recurrent_windows,
    rnn_cell,
    unroll,
)
from nlmkit.weights import (
    LstmLayerWeights,
    RnnLayerWeights,
    init_weights,
    zeros_weights,
)

import oracles


def rnn_config(d_e=3, vocab=8, layers=2):
    return ModelConfig(arch="rnn", d_e=d_e, vocab_size=vocab, max_len=10, L=layers)


def lstm_config(d_e=3, vocab=8, layers=2):
    return ModelConfig(arch="lstm", d_e=d_e, vocab_size=vocab, max_len=10, L=layers)


def random_rnn_layer(rng, d_e, activation="tanh"):
    return RnnLayerWeights(w=rng.normal(size=(d_e, d_e)), u=rng.normal(size=(d_e, d_e)),
                           b=rng.normal(size=d_e), activation=activation)


def random_lstm_layer(rng, d_e):
    t = {f"{kind}_{g}": rng.normal(size=(d_e, d_e)) if kind != "b" else rng.normal(size=d_e)
         for g in "qprs" for kind in ("u", "w", "b")}
    return LstmLayerWeights(**t)


class TestRnnCell:
    def test_zero_everything_is_zero(self):
        layer = RnnLayerWeights(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))
        npt.assert_array_equal(rnn_cell(np.zeros(3), np.zeros(3), layer), np.zeros(3))

    def test_identity_input_path(self):
        layer = RnnLayerWeights(np.eye(3), np.zeros((3, 3)), np.zeros(3))
        x = np.array([0.1, -0.2, 0.05])
        npt.assert_allclose(rnn_cell(np.zeros(3), x, layer), np.tanh(x), rtol=1e-15)

    def test_matches_loop_oracle(self, rng):
        layer = random_rnn_layer(rng, 4)
        h_prev = rng.normal(size=4)
        x = rng.normal(size=4)
        expected = oracles.rnn_cell(list(h_prev), list(x), oracles.rows(layer.w),
                                    oracles.rows(layer.u), list(layer.b))
        npt.assert_allclose(rnn_cell(h_prev, x, layer), expected, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        layer = random_rnn_layer(rng, 3)
        with pytest.raises(ShapeError):
            rnn_cell(np.zeros(4), np.zeros(3), layer)


    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "identity"])
    def test_batched_columns_equal_single_vector_calls(self, rng, activation):
        # B == d_e as well: a (d,) bias added to a d x d batch broadcasts
        # without error, so only the values can show a misaligned bias
        for batch in (1, 3, 4):
            layer = random_rnn_layer(rng, 4, activation)
            h, x = rng.normal(size=(4, batch)), rng.normal(size=(4, batch))
            out = rnn_cell(h, x, layer)
            assert out.shape == (4, batch)
            for b in range(batch):
                npt.assert_allclose(out[:, b], rnn_cell(h[:, b], x[:, b], layer),
                                    rtol=1e-14, atol=1e-15)

    def test_batch_width_mismatch(self, rng):
        layer = random_rnn_layer(rng, 3)
        with pytest.raises(ShapeError):
            rnn_cell(np.zeros((3, 2)), np.zeros((3, 4)), layer)
        with pytest.raises(ShapeError):
            rnn_cell(np.zeros(3), np.zeros((3, 1)), layer)


class TestLstmCell:
    def test_zero_weights_fixed_point(self):
        layer = LstmLayerWeights(*(np.zeros((3, 3)) if i % 3 != 2 else np.zeros(3)
                                   for i in range(12)))
        h, c = lstm_cell(np.zeros(3), np.zeros(3), np.zeros(3), layer)
        npt.assert_array_equal(h, np.zeros(3))
        npt.assert_array_equal(c, np.zeros(3))

    def test_saturated_forget_gate_passes_context(self, rng):
        # +50 bias saturates sigmoid to within 1e-20 of 1
        layer = random_lstm_layer(rng, 3)
        layer.b_p[:] = 50.0
        h_prev = rng.normal(size=3) * 0.1
        c_prev = rng.normal(size=3)
        x = rng.normal(size=3) * 0.1
        _, c = lstm_cell(h_prev, c_prev, x, layer)
        q = np.tanh(layer.u_q @ h_prev + layer.w_q @ x + layer.b_q)
        r = 1 / (1 + np.exp(-(layer.u_r @ h_prev + layer.w_r @ x + layer.b_r)))
        npt.assert_allclose(c, q * r + c_prev, rtol=1e-12)

    def test_gates_stay_inside_unit_interval(self, rng):
        layer = random_lstm_layer(rng, 3)
        for _ in range(20):
            h, c = lstm_cell(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), layer)
            assert np.all(np.abs(h) < 1.0)  # |s|<1 and |tanh(c)|<1

    def test_matches_loop_oracle(self, rng):
        layer = random_lstm_layer(rng, 3)
        h_prev, c_prev, x = (rng.normal(size=3) for _ in range(3))
        h, c = lstm_cell(h_prev, c_prev, x, layer)
        eh, ec = oracles.lstm_cell(list(h_prev), list(c_prev), list(x), layer)
        npt.assert_allclose(h, eh, atol=1e-13)
        npt.assert_allclose(c, ec, atol=1e-13)


    def test_batched_columns_equal_single_vector_calls(self, rng):
        for batch in (1, 2, 3):
            layer = random_lstm_layer(rng, 3)
            h, c, x = (rng.normal(size=(3, batch)) for _ in range(3))
            out_h, out_c = lstm_cell(h, c, x, layer)
            assert out_h.shape == out_c.shape == (3, batch)
            for b in range(batch):
                eh, ec = lstm_cell(h[:, b], c[:, b], x[:, b], layer)
                npt.assert_allclose(out_h[:, b], eh, rtol=1e-14, atol=1e-15)
                npt.assert_allclose(out_c[:, b], ec, rtol=1e-14, atol=1e-15)

    def test_batch_width_mismatch(self, rng):
        layer = random_lstm_layer(rng, 3)
        with pytest.raises(ShapeError):
            lstm_cell(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)), layer)
        with pytest.raises(ShapeError):
            lstm_cell(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)), layer)


class TestUnroll:
    def test_length_one_equals_single_cell(self, rng):
        layer = random_rnn_layer(rng, 3)
        x = rng.normal(size=(3, 1))
        out = unroll(x, [layer], "rnn")[0]
        npt.assert_array_equal(out[:, 0], rnn_cell(np.zeros(3), x[:, 0], layer))

    def test_prefix_truncation_reproduces_columns(self, rng):
        layers = [random_rnn_layer(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 3))
        full = unroll(x, layers, "rnn")[0]
        prefix = unroll(x[:, :2], layers, "rnn")[0]
        npt.assert_array_equal(full[:, :2], prefix)

    def test_stacked_layers_match_double_loop_oracle(self, rng):
        for kind, make in (("rnn", random_rnn_layer), ("lstm", random_lstm_layer)):
            layers = [make(rng, 3) for _ in range(2)]
            x = rng.normal(size=(3, 4))
            out = unroll(x, layers, kind)[0]
            expected = oracles.unroll(oracles.cols(x), layers, kind)
            npt.assert_allclose(out, np.array(expected).T, atol=1e-12)

    def test_causality_under_future_perturbation(self, rng):
        layers = [random_lstm_layer(rng, 3)]
        x = rng.normal(size=(3, 5))
        base = unroll(x, layers, "lstm")[0]
        x2 = x.copy()
        x2[:, 3:] += rng.normal(size=(3, 2))
        npt.assert_array_equal(unroll(x2, layers, "lstm")[0][:, :3], base[:, :3])

    def test_identity_activation_linear_recurrence(self):
        # d_e=1, identity activation: h_i = u*h_{i-1} + w*x_i + b in closed form
        layer = RnnLayerWeights(w=np.array([[0.5]]), u=np.array([[0.8]]),
                                b=np.array([0.1]), activation="identity")
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        out = unroll(x, [layer], "rnn")[0][0]
        h = 0.0
        for i in range(4):
            h = 0.8 * h + 0.5 * x[0, i] + 0.1
            assert abs(out[i] - h) < 1e-15

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_carried_state_continues_the_sequence(self, rng, kind, make):
        layers = [make(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 6))
        full, full_state = unroll(x, layers, kind)
        head, state = unroll(x[:, :2], layers, kind)
        for i in range(2, 6):
            step, state = unroll(x[:, i:i + 1], layers, kind, state)
            npt.assert_array_equal(step[:, 0], full[:, i])
        for (h, c), (fh, fc) in zip(state, full_state):
            npt.assert_array_equal(h, fh)
            npt.assert_array_equal(c, fc)
        npt.assert_array_equal(full_state[-1][0], full[:, -1])

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_batch_equals_separate_sequences(self, rng, kind, make):
        layers = [make(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 4, 5))  # d_e x len x B
        out, state = unroll(x, layers, kind)
        assert out.shape == (3, 4, 5) and state[-1][0].shape == (3, 5)
        for b in range(5):
            npt.assert_allclose(out[:, :, b], unroll(x[:, :, b], layers, kind)[0],
                                rtol=1e-13, atol=1e-15)

    def test_state_must_match_layers(self, rng):
        layers = [random_rnn_layer(rng, 3) for _ in range(2)]
        _, state = unroll(np.zeros((3, 1)), layers, "rnn")
        with pytest.raises(ShapeError):
            unroll(np.zeros((3, 1)), layers[:1], "rnn", state)

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(SequenceLengthError):
            unroll(np.zeros((3, 0)), [random_rnn_layer(rng, 3)], "rnn")
        with pytest.raises(SequenceLengthError):
            unroll(np.zeros((3, 2)), [], "rnn")


class TestRecurrentLm:
    def test_zero_weights_give_uniform_everywhere(self):
        w = zeros_weights(rnn_config(vocab=6))
        out = softmax(recurrent_lm_forward([0, 1, 2], w), axis=0)
        npt.assert_allclose(out, 1.0 / 6, atol=1e-15)

    def test_causality_of_distributions(self):
        w = init_weights(lstm_config(vocab=8), 3)
        base = recurrent_lm_forward([0, 1, 2, 3], w)
        changed = recurrent_lm_forward([0, 1, 5, 3], w)
        npt.assert_array_equal(changed[:, :2], base[:, :2])

    def test_distributions_normalized(self):
        for cfg in (rnn_config(), lstm_config()):
            out = softmax(recurrent_lm_forward([1, 2, 3], init_weights(cfg, 9)), axis=0)
            npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("cfg", [rnn_config(), lstm_config()])
    def test_hidden_continues_from_state(self, cfg):
        w = init_weights(cfg, 4)
        full, _ = recurrent_hidden([1, 2, 3, 4], w)
        _, state = recurrent_hidden([1, 2], w)
        rest, _ = recurrent_hidden([3, 4], w, state)
        npt.assert_array_equal(rest, full[:, 2:])

    @pytest.mark.parametrize("cfg", [rnn_config(), lstm_config()])
    def test_windows_are_last_hidden_columns(self, cfg):
        w = init_weights(cfg, 6)
        ids = [1, 2, 3, 4, 5, 6, 7]
        for n in (1, 3, 7):
            got = recurrent_windows(ids, n, w)
            assert got.shape == (3, len(ids) - n + 1)
            for s in range(len(ids) - n + 1):
                npt.assert_allclose(got[:, s], recurrent_hidden(ids[s:s + n], w)[0][:, -1],
                                    rtol=1e-13, atol=1e-15)
        for n in (0, 8):
            with pytest.raises(SequenceLengthError):
                recurrent_windows(ids, n, w)

    def test_generate_appends_greedy_tokens(self):
        w = init_weights(lstm_config(vocab=6), 2)
        out = recurrent_generate([1, 2], w, 3)
        assert len(out) == 5 and out[:2] == [1, 2]
        assert out == recurrent_generate([1, 2], w, 3)
