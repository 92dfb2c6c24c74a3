"""Finite-difference gradients, descent updates, and toy memorization."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.config import ModelConfig
from nlmkit.errors import ConfigError, NonFiniteLossError, ShapeError
from nlmkit.ffnn import ffnn_forward
from nlmkit.kernels import softmax
from nlmkit.losses import ce_loss
from nlmkit.training import (
    TrainState,
    gd_step,
    make_corpus_loss,
    numerical_gradient,
    train_toy,
)
from nlmkit.weights import init_weights


def ffnn_config(vocab=6, n=2, d0=3, hidden=(4,)):
    return ModelConfig(arch="ffnn", d_e=d0, vocab_size=vocab, max_len=n,
                       hidden_dims=list(hidden))


class TestNumericalGradient:
    def test_quadratic_gradient(self, rng):
        theta = {"theta": rng.normal(size=(3, 2))}
        grad = numerical_gradient(lambda w: float((w["theta"] ** 2).sum()), theta)
        npt.assert_allclose(grad["theta"], 2 * theta["theta"], rtol=1e-8)

    def test_softmax_ce_matches_analytic(self, rng):
        # d/dz of -log softmax(z)[c] is softmax(z) - onehot(c)
        for _ in range(50):
            z = {"z": rng.uniform(-2, 2, size=8)}
            c = int(rng.integers(0, 8))
            grad = numerical_gradient(lambda w: ce_loss(c, w["z"]), z, h=1e-5)
            analytic = softmax(z["z"])
            analytic[c] -= 1.0
            rel = np.linalg.norm(grad["z"] - analytic) / np.linalg.norm(analytic)
            assert rel < 1e-6

    def test_ignored_parameter_has_zero_gradient(self, rng):
        w = {"used": rng.normal(size=2), "ignored": rng.normal(size=3)}
        grad = numerical_gradient(lambda t: float((t["used"] ** 2).sum()), w)
        npt.assert_allclose(grad["ignored"], 0.0, atol=1e-10)

    def test_weights_restored_after_probing(self, rng):
        w = {"theta": rng.normal(size=4)}
        before = w["theta"].copy()
        numerical_gradient(lambda t: float((t["theta"] ** 2).sum()), w)
        npt.assert_array_equal(w["theta"], before)

    def test_non_finite_loss_names_parameter(self):
        w = {"bad": np.array([0.0])}

        def loss(t):
            return math.inf if t["bad"][0] > 0 else 0.0

        with pytest.raises(NonFiniteLossError, match="bad"):
            numerical_gradient(loss, w)


class TestGdStep:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            TrainState(weights={"a": np.zeros(3)}, mu_lr=rate)

    def test_zero_gradient_keeps_weights(self, rng):
        w = {"a": rng.normal(size=(2, 2))}
        state = TrainState(weights=w, mu_lr=0.5)
        new = gd_step(state, {"a": np.zeros((2, 2))})
        npt.assert_array_equal(new.weights["a"], w["a"])
        assert new.step == 1

    def test_unit_rate_with_gradient_theta_zeroes(self, rng):
        w = {"a": rng.normal(size=3)}
        state = TrainState(weights=w, mu_lr=1.0)
        new = gd_step(state, {"a": w["a"].copy()})
        npt.assert_allclose(new.weights["a"], 0.0, atol=1e-15)

    def test_is_pure(self, rng):
        w = {"a": rng.normal(size=3)}
        before = w["a"].copy()
        gd_step(TrainState(weights=w, mu_lr=0.1), {"a": np.ones(3)})
        npt.assert_array_equal(w["a"], before)

    def test_shape_mismatch_rejected(self, rng):
        state = TrainState(weights={"a": np.zeros(3)}, mu_lr=0.1)
        with pytest.raises(ShapeError):
            gd_step(state, {"a": np.zeros(4)})
        with pytest.raises(ShapeError):
            gd_step(state, {"b": np.zeros(3)})

    def test_quadratic_descent_converges(self):
        state = TrainState(weights={"theta": np.array([3.0, -2.0])}, mu_lr=0.1)
        loss = lambda w: float((w["theta"] ** 2).sum())
        for _ in range(200):
            state = gd_step(state, numerical_gradient(loss, state.weights))
        assert loss(state.weights) < 1e-6
        assert state.step == 200


class TestCorpusLoss:
    def test_ffnn_batched_equals_per_window_mean(self, rng):
        cfg = ffnn_config(vocab=6, n=3, d0=2, hidden=(5,))
        w = init_weights(cfg, 11)
        corpus = [int(i) for i in rng.integers(0, 6, size=20)]
        batched = make_corpus_loss(cfg, corpus)(w)
        per_window = np.mean([
            ce_loss(corpus[s + 3], ffnn_forward(corpus[s:s + 3], w))
            for s in range(len(corpus) - 3)
        ])
        assert abs(batched - per_window) < 1e-12

    def test_sequence_chunks_cover_every_transition_once(self):
        cfg = ModelConfig(arch="rnn", d_e=2, vocab_size=4, max_len=4, L=1)
        seen = []
        corpus = [0, 1, 2, 3, 0, 1, 2]

        # mean over chunks of a uniform model must equal log |V| regardless
        # of how the corpus is split, and that only holds when every
        # transition is counted exactly once
        loss = make_corpus_loss(cfg, corpus)
        w = init_weights(cfg, 0)
        for tensor in w.named_tensors().values():
            tensor[:] = 0.0
        assert abs(loss(w) - math.log(4)) < 1e-12

    def test_ffnn_monotone_descent_for_ten_steps(self):
        # small learning rate on a deterministic toy corpus: the first ten
        # finite-difference descent steps strictly reduce the loss
        cfg = ffnn_config(vocab=6, n=2, d0=3, hidden=(4,))
        corpus = [0, 1, 2, 3, 4, 5] * 3
        loss_fn = make_corpus_loss(cfg, corpus)
        state = TrainState(weights=init_weights(cfg, 1), mu_lr=0.1)
        losses = [loss_fn(state.weights)]
        for _ in range(10):
            state = gd_step(state, numerical_gradient(loss_fn, state.weights))
            losses.append(loss_fn(state.weights))
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTrainToy:
    def test_bert_is_refused(self):
        cfg = ModelConfig(arch="bert", d_e=4, d_k=2, d_v=2, d_f=4, M=1, L=1, vocab_size=5,
                          max_len=4)
        with pytest.raises(ConfigError, match="not autoregressive"):
            make_corpus_loss(cfg, [0, 1, 2, 3])

    def test_loss_drops_and_log_format_holds(self):
        cfg = ffnn_config(vocab=5, n=2, d0=2, hidden=(4,))
        corpus = [0, 1, 2, 3, 4] * 3
        lines = []
        w0 = init_weights(cfg, 2)
        initial = make_corpus_loss(cfg, corpus)(w0)
        _, final = train_toy(cfg, w0, corpus, steps=5, mu_lr=0.3, log_fn=lines.append)
        assert final < initial
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            step, loss, lr = line.split("\t")
            assert int(step) == i
            float(loss)
            assert float(lr) == 0.3
