"""Fixed-window feedforward LM: forward pass, prediction, window contract."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.config import ModelConfig
from nlmkit.errors import OutOfVocabularyError, SequenceLengthError
from nlmkit.ffnn import ffnn_batch_forward, ffnn_forward
from nlmkit.inference import generate_tokens
from nlmkit.kernels import softmax
from nlmkit.weights import init_weights, zeros_weights


def ffnn_config(vocab_size=5, n=2, d0=1, hidden=(1,), activation="sigmoid"):
    return ModelConfig(arch="ffnn", d_e=d0, vocab_size=vocab_size, max_len=n,
                       hidden_dims=list(hidden), activation=activation)


class TestFfnnForward:
    def test_zero_weights_give_uniform(self):
        cfg = ffnn_config(vocab_size=8, n=3, d0=2, hidden=(4,))
        out = softmax(ffnn_forward([0, 1, 2], zeros_weights(cfg)))
        npt.assert_allclose(out, 1.0 / 8, atol=1e-15)

    def test_hand_sized_scalar_case(self):
        # n=2, d0=1, one sigmoid unit: every quantity is a scalar chain
        cfg = ffnn_config(vocab_size=3, n=2, d0=1, hidden=(1,))
        w = zeros_weights(cfg)
        w.embedding[0] = [0.5, -1.0, 2.0]
        w.layers[0].w[0] = [0.3, -0.2]
        w.layers[0].b[0] = 0.1
        w.output[:, 0] = [1.0, -1.0, 0.5]
        ids = [2, 0]
        pre = 0.3 * 2.0 + (-0.2) * 0.5 + 0.1
        h = 1.0 / (1.0 + math.exp(-pre))
        logits = [1.0 * h, -1.0 * h, 0.5 * h]
        exps = [math.exp(z) for z in logits]
        expected = [e / sum(exps) for e in exps]
        npt.assert_allclose(softmax(ffnn_forward(ids, w)), expected, rtol=1e-14)

    def test_concatenated_width_drives_first_layer(self):
        cfg = ffnn_config(vocab_size=6, n=4, d0=3, hidden=(5,))
        w = init_weights(cfg, 0)
        assert w.layers[0].w.shape == (5, 4 * 3)

    def test_wrong_context_length_rejected(self):
        w = init_weights(ffnn_config(n=2), 1)
        with pytest.raises(SequenceLengthError):
            ffnn_forward([0], w)
        with pytest.raises(SequenceLengthError):
            ffnn_forward([0, 1, 2], w)

    def test_output_is_distribution(self, rng):
        cfg = ffnn_config(vocab_size=9, n=3, d0=4, hidden=(6, 5))
        out = softmax(ffnn_forward([1, 2, 3], init_weights(cfg, 7)))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_position_sensitivity_lives_in_first_layer(self, rng):
        # swapping two context tokens changes the output, but swapping the
        # matching column blocks of the first weight matrix restores it
        cfg = ffnn_config(vocab_size=7, n=3, d0=2, hidden=(4,))
        w = init_weights(cfg, 3)
        ids = [1, 5, 2]
        swapped_ids = [5, 1, 2]
        base = ffnn_forward(ids, w)
        assert not np.array_equal(ffnn_forward(swapped_ids, w), base)
        w.layers[0].w[:, [0, 1, 2, 3]] = w.layers[0].w[:, [2, 3, 0, 1]]
        npt.assert_array_equal(ffnn_forward(swapped_ids, w), base)

    def test_absent_token_embedding_is_irrelevant(self, rng):
        cfg = ffnn_config(vocab_size=7, n=3, d0=2, hidden=(4,))
        w = init_weights(cfg, 3)
        ids = [1, 5, 2]
        base = ffnn_forward(ids, w)
        w.embedding[:, 6] += 42.0
        npt.assert_array_equal(ffnn_forward(ids, w), base)


class TestFfnnBatchForward:
    def test_each_row_is_its_window(self, rng):
        cfg = ffnn_config(vocab_size=9, n=3, d0=4, hidden=(6, 5))
        w = init_weights(cfg, 7)
        windows = rng.integers(0, 9, size=(10, 3))
        out = ffnn_batch_forward(windows, w)
        assert out.shape == (9, 10)
        for b, row in enumerate(windows):
            npt.assert_allclose(out[:, b], ffnn_forward(row.tolist(), w), rtol=1e-12, atol=1e-15)

    def test_out_of_vocabulary_id_rejected(self):
        w = init_weights(ffnn_config(vocab_size=5, n=2), 1)
        for bad in ([[0, 5]], [[-1, 0]]):
            with pytest.raises(OutOfVocabularyError):
                ffnn_batch_forward(bad, w)

    def test_window_width_checked(self):
        w = init_weights(ffnn_config(n=2), 1)
        with pytest.raises(SequenceLengthError):
            ffnn_batch_forward(np.zeros((4, 3), dtype=int), w)
        with pytest.raises(SequenceLengthError):
            ffnn_batch_forward([0, 1], w)


class TestFfnnPredict:
    def test_uniform_ties_break_to_zero(self):
        cfg = ffnn_config(vocab_size=8, n=3, d0=2, hidden=(4,))
        assert generate_tokens(cfg, zeros_weights(cfg), [0, 1, 2], 1)[-1] == 0

    def test_unique_max_selected(self):
        cfg = ffnn_config(vocab_size=3, n=2, d0=1, hidden=(1,))
        w = zeros_weights(cfg)
        w.output[:, 0] = [0.0, 5.0, -1.0]
        w.layers[0].b[0] = 10.0  # hidden saturates near 1
        assert generate_tokens(cfg, w, [0, 1], 1)[-1] == 1


class TestFfnnGenerate:
    def test_prompt_shorter_than_window_rejected(self):
        cfg = ffnn_config(n=3, d0=2, hidden=(4,))
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, init_weights(cfg, 1), [0, 1], 2)

    def test_appends_requested_tokens(self):
        cfg = ffnn_config(vocab_size=6, n=2, d0=2, hidden=(4,))
        out = generate_tokens(cfg, init_weights(cfg, 5), [0, 1], 4)
        assert len(out) == 6
        assert out[:2] == [0, 1]
