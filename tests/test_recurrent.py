"""Elman and LSTM cells, time unrolling, and the recurrent language model."""

import copy
import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit import recurrent
from nlmkit.config import ModelConfig
from nlmkit.embeddings import embed
from nlmkit.errors import SequenceLengthError, ShapeError
from nlmkit.inference import generate_tokens
from nlmkit.kernels import softmax
from nlmkit.recurrent import recurrent_lm_forward, recurrent_windows, unroll
from nlmkit.weights import (
    LstmLayerWeights,
    RnnLayerWeights,
    init_weights,
    named_tensor_view,
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
    return LstmLayerWeights(u=rng.normal(size=(4 * d_e, d_e)), w=rng.normal(size=(4 * d_e, d_e)),
                            b=rng.normal(size=4 * d_e))


def rnn_step(h_prev, x_in, layer):
    """One checked Elman step: a one-step ``unroll`` from the state h_prev;
    returns the new hidden state."""
    return unroll(x_in[:, None], [layer], [(h_prev, None)])[1][0][0]


def lstm_step(h_prev, c_prev, x_in, layer):
    """One checked LSTM step: a one-step ``unroll`` from the state (h_prev,
    c_prev); returns (hidden, context)."""
    return unroll(x_in[:, None], [layer], [(h_prev, c_prev)])[1][0]


def refuse(*args):
    raise AssertionError("a cell ran")


class TestRnnCell:
    def test_zero_everything_is_zero(self):
        layer = RnnLayerWeights(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), "tanh")
        npt.assert_array_equal(rnn_step(np.zeros(3), np.zeros(3), layer), np.zeros(3))

    def test_identity_input_path(self):
        layer = RnnLayerWeights(np.eye(3), np.zeros((3, 3)), np.zeros(3), "tanh")
        x = np.array([0.1, -0.2, 0.05])
        npt.assert_allclose(rnn_step(np.zeros(3), x, layer), np.tanh(x), rtol=1e-15)

    def test_matches_loop_oracle(self, rng):
        layer = random_rnn_layer(rng, 4)
        h_prev = rng.normal(size=4)
        x = rng.normal(size=4)
        expected = oracles.rnn_cell(list(h_prev), list(x), oracles.rows(layer.w),
                                    oracles.rows(layer.u), list(layer.b))
        npt.assert_allclose(rnn_step(h_prev, x, layer), expected, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        layer = random_rnn_layer(rng, 3)
        with pytest.raises(ShapeError):
            rnn_step(np.zeros(4), np.zeros(3), layer)


    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "identity"])
    def test_batched_columns_equal_single_vector_calls(self, rng, activation):
        # B == d_e as well: a (d,) bias added to a d x d batch broadcasts
        # without error, so only the values can show a misaligned bias
        for batch in (1, 3, 4):
            layer = random_rnn_layer(rng, 4, activation)
            h, x = rng.normal(size=(4, batch)), rng.normal(size=(4, batch))
            out = rnn_step(h, x, layer)
            assert out.shape == (4, batch)
            for b in range(batch):
                npt.assert_allclose(out[:, b], rnn_step(h[:, b], x[:, b], layer),
                                    rtol=1e-14, atol=1e-15)

    def test_batch_width_mismatch(self, rng):
        layer = random_rnn_layer(rng, 3)
        with pytest.raises(ShapeError):
            rnn_step(np.zeros((3, 2)), np.zeros((3, 4)), layer)
        with pytest.raises(ShapeError):
            rnn_step(np.zeros(3), np.zeros((3, 1)), layer)


class TestLstmCell:
    def test_zero_weights_fixed_point(self):
        layer = LstmLayerWeights(np.zeros((12, 3)), np.zeros((12, 3)), np.zeros(12))
        h, c = lstm_step(np.zeros(3), np.zeros(3), np.zeros(3), layer)
        npt.assert_array_equal(h, np.zeros(3))
        npt.assert_array_equal(c, np.zeros(3))

    def test_saturated_forget_gate_passes_context(self, rng):
        # +50 bias saturates sigmoid to within 1e-20 of 1
        layer = random_lstm_layer(rng, 3)
        (u_q, w_q, b_q), (_, _, b_p), (u_r, w_r, b_r), _ = (
            oracles.lstm_gate(layer, g) for g in "qprs")
        b_p[:] = 50.0
        h_prev = rng.normal(size=3) * 0.1
        c_prev = rng.normal(size=3)
        x = rng.normal(size=3) * 0.1
        _, c = lstm_step(h_prev, c_prev, x, layer)
        q = np.tanh(u_q @ h_prev + w_q @ x + b_q)
        r = 1 / (1 + np.exp(-(u_r @ h_prev + w_r @ x + b_r)))
        npt.assert_allclose(c, q * r + c_prev, rtol=1e-12)

    def test_gates_stay_inside_unit_interval(self, rng):
        layer = random_lstm_layer(rng, 3)
        for _ in range(20):
            h, c = lstm_step(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), layer)
            assert np.all(np.abs(h) < 1.0)  # |s|<1 and |tanh(c)|<1

    def test_matches_loop_oracle(self, rng):
        layer = random_lstm_layer(rng, 3)
        h_prev, c_prev, x = (rng.normal(size=3) for _ in range(3))
        h, c = lstm_step(h_prev, c_prev, x, layer)
        eh, ec = oracles.lstm_cell(list(h_prev), list(c_prev), list(x), layer)
        npt.assert_allclose(h, eh, atol=1e-13)
        npt.assert_allclose(c, ec, atol=1e-13)


    def test_batched_columns_equal_single_vector_calls(self, rng):
        for batch in (1, 2, 3):
            layer = random_lstm_layer(rng, 3)
            h, c, x = (rng.normal(size=(3, batch)) for _ in range(3))
            out_h, out_c = lstm_step(h, c, x, layer)
            assert out_h.shape == out_c.shape == (3, batch)
            for b in range(batch):
                eh, ec = lstm_step(h[:, b], c[:, b], x[:, b], layer)
                npt.assert_allclose(out_h[:, b], eh, rtol=1e-14, atol=1e-15)
                npt.assert_allclose(out_c[:, b], ec, rtol=1e-14, atol=1e-15)

    def test_batch_width_mismatch(self, rng):
        layer = random_lstm_layer(rng, 3)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)), layer)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)), layer)


def gate_probe(z, gate, batched):
    """What `gate` of a one-unit stacked LSTM layer holds for each
    pre-activation in `z`, read off the cell's outputs: U = 0 and W x
    feeds z to that gate's row only, while the other biases saturate
    their gates to exactly 0 or 1 (tanh(40) == 1.0 in float64).  The cell
    runs once on a 1 x len(z) batch, or once per entry on vectors."""
    w, b = np.zeros((4, 1)), np.zeros(4)
    row = "qprs".index(gate)
    w[row] = 1.0
    c_prev = 0.0
    if gate == "p":  # q = 0, so c = c_prev * p
        c_prev = 1.0
    else:  # q = r = 1 (or the probed one of them), so c = q * r
        b[[0, 2]] = 40.0
    if gate == "s":  # p = 1 and c >= 39 make tanh(c) exactly 1, so h = s
        b[1], c_prev = 40.0, 40.0
    b[row] = 0.0
    layer = LstmLayerWeights(np.zeros((4, 1)), w, b)
    pick = 0 if gate == "s" else 1
    if batched:
        z = np.asarray(z)[None, :]
        return lstm_step(np.zeros(z.shape), np.full(z.shape, c_prev), z, layer)[pick][0]
    return np.array([lstm_step(np.zeros(1), np.full(1, c_prev), np.array([x]), layer)[pick][0]
                     for x in z])


class TestLstmGates:
    Z = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-37.5, -36.5, 36.5, 37.5]])

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("gate", ["p", "r", "s"])
    def test_sigmoid_gates_match_the_logistic_oracle(self, gate, batched):
        z = self.Z if batched else self.Z[::10]
        got = gate_probe(z, gate, batched)
        want = np.array([oracles.sigmoid_scalar(x) for x in z])
        assert np.abs(got - want).max() <= 2.3e-16
        assert ((0.0 <= got) & (got <= 1.0)).all()
        assert got[0] == 0.0 and got[800 if not batched else 8000] == 1.0  # saturated at -40 and 40

    @pytest.mark.parametrize("batched", [True, False])
    def test_candidate_matches_tanh(self, batched):
        z = self.Z if batched else self.Z[::10]
        got = gate_probe(z, "q", batched)
        want = np.array([math.tanh(x) for x in z])
        assert np.abs(got - want).max() <= 2.3e-16

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_unroll_and_reverse_pass_share_bitwise_states(self, layers, batch):
        w = init_weights(ModelConfig(arch="lstm", d_e=16, vocab_size=50, max_len=12, L=layers), 4)
        ids = np.random.default_rng(batch).integers(0, 50, (12, batch))
        logits, _ = recurrent.recurrent_lm_vjp(ids, w)
        x = embed(ids.reshape(-1), w.embedding).reshape(16, 12, batch)
        hidden, _ = unroll(x, w.layers)
        npt.assert_array_equal(recurrent.tied_logits(hidden.reshape(16, -1), w.embedding), logits)


class TestStackedLstm:
    def test_cell_rejects_unstacked_widths(self, rng):
        layer = random_lstm_layer(rng, 3)
        u, w, b = layer.u, layer.w, layer.b
        for bad in (LstmLayerWeights(u[:9], w, b), LstmLayerWeights(u, w[:9], b),
                    LstmLayerWeights(u, w, b[:9])):
            with pytest.raises(ShapeError):
                lstm_step(np.zeros(3), np.zeros(3), np.zeros(3), bad)

    def test_forward_sees_in_place_writes(self):
        # numerical_gradient probes each scalar in place: a cached stacked
        # form would hide the write from the next forward pass
        w = init_weights(lstm_config(), 5)
        ids = [1, 2, 3, 4]
        base = recurrent_lm_forward(ids, w)
        for name, tensor in named_tensor_view(w).items():
            if name.startswith("lstm.l1."):
                flat = tensor.reshape(-1)
                original = flat[0]
                flat[0] = original + 0.5
                probed = recurrent_lm_forward(ids, w)
                assert not np.array_equal(probed, base), name
                npt.assert_array_equal(probed, recurrent_lm_forward(ids, copy.deepcopy(w)))
                flat[0] = original
        npt.assert_array_equal(recurrent_lm_forward(ids, w), base)


class TestUnroll:
    def test_length_one_equals_single_cell(self, rng):
        layer = random_rnn_layer(rng, 3)
        x = rng.normal(size=(3, 1))
        out = unroll(x, [layer])[0]
        wx = layer.w @ x[:, 0] + layer.b  # the cell takes the input term W x + b
        npt.assert_array_equal(out[:, 0], recurrent.rnn_cell(np.zeros(3), wx, layer))

    def test_prefix_truncation_reproduces_columns(self, rng):
        layers = [random_rnn_layer(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 3))
        full = unroll(x, layers)[0]
        prefix = unroll(x[:, :2], layers)[0]
        npt.assert_array_equal(full[:, :2], prefix)

    def test_stacked_layers_match_double_loop_oracle(self, rng):
        for kind, make in (("rnn", random_rnn_layer), ("lstm", random_lstm_layer)):
            layers = [make(rng, 3) for _ in range(2)]
            x = rng.normal(size=(3, 4))
            out = unroll(x, layers)[0]
            expected = oracles.unroll(oracles.cols(x), layers, kind)
            npt.assert_allclose(out, np.array(expected).T, atol=1e-12)

    def test_causality_under_future_perturbation(self, rng):
        layers = [random_lstm_layer(rng, 3)]
        x = rng.normal(size=(3, 5))
        base = unroll(x, layers)[0]
        x2 = x.copy()
        x2[:, 3:] += rng.normal(size=(3, 2))
        npt.assert_array_equal(unroll(x2, layers)[0][:, :3], base[:, :3])

    def test_identity_activation_linear_recurrence(self):
        # d_e=1, identity activation: h_i = u*h_{i-1} + w*x_i + b in closed form
        layer = RnnLayerWeights(w=np.array([[0.5]]), u=np.array([[0.8]]),
                                b=np.array([0.1]), activation="identity")
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        out = unroll(x, [layer])[0][0]
        h = 0.0
        for i in range(4):
            h = 0.8 * h + 0.5 * x[0, i] + 0.1
            assert abs(out[i] - h) < 1e-15

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_carried_state_continues_the_sequence(self, rng, kind, make):
        layers = [make(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 6))
        full, full_state = unroll(x, layers)
        head, state = unroll(x[:, :2], layers)
        for i in range(2, 6):
            step, state = unroll(x[:, i:i + 1], layers, state)
            npt.assert_array_equal(step[:, 0], full[:, i])
        for (h, c), (fh, fc) in zip(state, full_state):
            npt.assert_array_equal(h, fh)
            npt.assert_array_equal(c, fc)
        npt.assert_array_equal(full_state[-1][0], full[:, -1])

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_batch_equals_separate_sequences(self, rng, kind, make):
        layers = [make(rng, 3) for _ in range(2)]
        x = rng.normal(size=(3, 4, 5))  # d_e x len x B
        out, state = unroll(x, layers)
        assert out.shape == (3, 4, 5) and state[-1][0].shape == (3, 5)
        for b in range(5):
            npt.assert_allclose(out[:, :, b], unroll(x[:, :, b], layers)[0],
                                rtol=1e-13, atol=1e-15)

    def test_state_must_match_layers(self, rng):
        layers = [random_rnn_layer(rng, 3) for _ in range(2)]
        _, state = unroll(np.zeros((3, 1)), layers)
        with pytest.raises(ShapeError):
            unroll(np.zeros((3, 1)), layers[:1], state)

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_carried_state_must_match_the_input(self, rng, kind, make):
        layers = [make(rng, 3) for _ in range(2)]
        _, state = unroll(rng.normal(size=(3, 2, 4)), layers)  # states 3 x 4
        with pytest.raises(ShapeError):  # batch of 5 against states of 4
            unroll(rng.normal(size=(3, 1, 5)), layers, state)
        with pytest.raises(ShapeError):  # one sequence against batched states
            unroll(rng.normal(size=(3, 1)), layers, state)
        wide = [(np.zeros(4), np.zeros(4))] * 2
        with pytest.raises(ShapeError):  # states of width 4 against width 3
            unroll(rng.normal(size=(3, 1)), layers, wide)

    def test_bad_layer_below_the_top_is_refused_before_any_cell_runs(self, rng, monkeypatch):
        layers = [random_lstm_layer(rng, 3) for _ in range(3)]
        layers[1] = LstmLayerWeights(rng.normal(size=(3, 3)), layers[1].w, layers[1].b)  # rnn's U
        monkeypatch.setattr(recurrent, "rnn_cell", refuse)
        monkeypatch.setattr(recurrent, "lstm_cell", refuse)
        with pytest.raises(ShapeError, match="layer 2"):
            unroll(rng.normal(size=(3, 4)), layers)

    @pytest.mark.parametrize("kind,make", [("rnn", random_rnn_layer), ("lstm", random_lstm_layer)])
    def test_state_of_another_batch_is_refused_before_any_cell_runs(self, rng, monkeypatch,
                                                                    kind, make):
        layers = [make(rng, 3) for _ in range(3)]
        _, state = unroll(rng.normal(size=(3, 2, 4)), layers)  # states 3 x 4
        monkeypatch.setattr(recurrent, "rnn_cell", refuse)
        monkeypatch.setattr(recurrent, "lstm_cell", refuse)
        with pytest.raises(ShapeError):  # batch of 5 against states of 4
            unroll(rng.normal(size=(3, 1, 5)), layers, state)
        narrow = [*state[:1], (np.zeros((3, 5)), np.zeros((3, 5))), *state[2:]]
        with pytest.raises(ShapeError, match="layer 2"):  # layer 2 of 5 against 4
            unroll(rng.normal(size=(3, 1, 4)), layers, narrow)

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(SequenceLengthError):
            unroll(np.zeros((3, 0)), [random_rnn_layer(rng, 3)])
        with pytest.raises(SequenceLengthError):
            unroll(np.zeros((3, 2)), [])


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
    def test_windows_are_last_hidden_columns(self, cfg):
        w = init_weights(cfg, 6)
        ids = [1, 2, 3, 4, 5, 6, 7]
        for n in (1, 3, 7):
            got = recurrent_windows(ids, n, w)
            assert got.shape == (3, len(ids) - n + 1)
            for s in range(len(ids) - n + 1):
                hidden, _ = unroll(embed(ids[s:s + n], w.embedding), w.layers)
                npt.assert_allclose(got[:, s], hidden[:, -1], rtol=1e-13, atol=1e-15)

    def test_decoder_checks_the_weights_once(self, monkeypatch):
        cfg = lstm_config(vocab=6)
        w = init_weights(cfg, 2)
        checks, check = [], recurrent._checked_state
        monkeypatch.setattr(recurrent, "_checked_state",
                            lambda *args: checks.append(1) or check(*args))
        generate_tokens(cfg, w, [1, 2], 5)
        assert checks == [1]

    def test_decoder_refuses_a_bad_layer_when_built(self, monkeypatch):
        w = init_weights(lstm_config(), 2)
        top = w.layers[1]
        w.layers[1] = LstmLayerWeights(top.u[:3], top.w, top.b)  # an Elman layer's U
        monkeypatch.setattr(recurrent, "lstm_cell", refuse)
        with pytest.raises(ShapeError, match="layer 2"):
            recurrent.recurrent_decoder(w, 5)

    def test_generate_appends_greedy_tokens(self):
        cfg = lstm_config(vocab=6)
        w = init_weights(cfg, 2)
        out = generate_tokens(cfg, w, [1, 2], 3)
        assert len(out) == 5 and out[:2] == [1, 2]
        assert out == generate_tokens(cfg, w, [1, 2], 3)
