"""Architecture dispatch, next-token predictors, incremental decoding and
shared-pass corpus scoring, checked against the full-recompute oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit import recurrent, transformer
from nlmkit.config import ModelConfig
from nlmkit.errors import ConfigError, SequenceLengthError
from nlmkit.ffnn import ffnn_forward
from nlmkit.inference import generate_tokens, make_forward, make_predict_next, min_context
from nlmkit.kernels import softmax
from nlmkit.losses import WINDOW_BATCH, corpus_nll
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.transformer import gpt2_forward
from nlmkit.weights import init_weights

import oracles
from conftest import tiny_bert_config, tiny_gpt2_config

MAX_LEN = 6
VOCAB = 11
RTOL = 1e-12
# corpus lengths: below, at and above the window, three windows, and enough
# full windows for corpus_nll to score them in two batches
LENGTHS = [2, MAX_LEN - 1, MAX_LEN, MAX_LEN + 1, 3 * MAX_LEN, MAX_LEN + WINDOW_BATCH + 5]


def make_cfg(name):
    if name in ("gpt2-pre", "gpt2-post"):
        return tiny_gpt2_config(variant=name[5:], vocab_size=VOCAB, max_len=MAX_LEN)
    if name == "bert":
        return tiny_bert_config(vocab_size=VOCAB, max_len=MAX_LEN)
    if name == "ffnn":
        return ModelConfig(arch="ffnn", d_e=3, vocab_size=VOCAB, max_len=MAX_LEN, hidden_dims=[5])
    return ModelConfig(arch=name, d_e=5, vocab_size=VOCAB, max_len=MAX_LEN, L=2)


CAUSAL = ["gpt2-pre", "gpt2-post", "rnn", "lstm"]
AUTOREGRESSIVE = CAUSAL + ["ffnn"]


def model(name, seed=7):
    cfg = make_cfg(name)
    return cfg, init_weights(cfg, seed)


def full_forward(cfg, w):
    """The package's per-position forward pass for a causal model."""
    if cfg.arch == "gpt2":
        return lambda ids: gpt2_forward(ids, w)
    return lambda ids: recurrent_lm_forward(ids, w)


def full_recompute_predict(cfg, w):
    """Next-token distribution from one full forward pass per context."""
    if cfg.arch == "ffnn":
        return lambda ctx: softmax(ffnn_forward(ctx, w))
    forward = full_forward(cfg, w)
    return lambda ctx: softmax(forward(ctx)[:, -1])


def corpus(length, seed=3):
    return np.random.default_rng(seed).integers(0, VOCAB, length).tolist()


def assert_rel(got, want):
    assert abs(got - want) <= RTOL * abs(want), (got, want)


class TestMakeForward:
    @pytest.mark.parametrize("name", CAUSAL)
    def test_is_the_per_position_forward_pass(self, name):
        cfg, w = model(name)
        ids = corpus(MAX_LEN)
        npt.assert_array_equal(make_forward(cfg, w)(ids), full_forward(cfg, w)(ids))

    @pytest.mark.parametrize("name", ["ffnn", "bert"])
    def test_refused_without_per_position_pass(self, name):
        cfg, w = model(name)
        with pytest.raises(ConfigError):
            make_forward(cfg, w)


class TestPredictor:
    @pytest.mark.parametrize("name", AUTOREGRESSIVE)
    def test_per_context_call_is_full_recompute(self, name):
        cfg, w = model(name)
        predict, want = make_predict_next(cfg, w), full_recompute_predict(cfg, w)
        lengths = [MAX_LEN] if name == "ffnn" else range(1, MAX_LEN + 1)
        for n in lengths:
            ctx = corpus(n, seed=n)
            got = predict(ctx)
            assert got.shape == (VOCAB,)
            npt.assert_allclose(got, want(ctx), rtol=RTOL, atol=0)

    @pytest.mark.parametrize("name", CAUSAL)
    def test_prefix_pass_agrees_with_per_context_call(self, name):
        cfg, w = model(name)
        predict = make_predict_next(cfg, w)
        ids = corpus(MAX_LEN)
        probs = softmax(predict.prefix(ids), axis=0)
        assert probs.shape == (VOCAB, MAX_LEN)
        for j in range(MAX_LEN):
            npt.assert_allclose(probs[:, j], predict(ids[:j + 1]), rtol=RTOL, atol=0)

    def test_ffnn_has_no_prefix_pass(self):
        assert make_predict_next(*model("ffnn")).prefix is None

    @pytest.mark.parametrize("name,n", [(name, n) for name in CAUSAL for n in (1, 3, MAX_LEN)]
                             + [("ffnn", MAX_LEN)])
    def test_window_scorer_agrees_with_per_context_call(self, name, n):
        cfg, w = model(name)
        predict = make_predict_next(cfg, w)
        ids = corpus(3 * MAX_LEN)
        probs = softmax(predict.windows(ids, n), axis=0)
        assert probs.shape == (VOCAB, len(ids) - n + 1)
        for s in range(len(ids) - n + 1):
            npt.assert_allclose(probs[:, s], predict(ids[s:s + n]), rtol=RTOL, atol=0)

    def test_bert_refused(self):
        with pytest.raises(ConfigError):
            make_predict_next(*model("bert"))


class TestMinContext:
    @pytest.mark.parametrize("name,want", [("gpt2-pre", 1), ("rnn", 1), ("lstm", 1),
                                           ("ffnn", MAX_LEN)])
    def test_values(self, name, want):
        assert min_context(make_cfg(name)) == want

    def test_bert_refused(self):
        with pytest.raises(ConfigError):
            min_context(make_cfg("bert"))


class TestGenerateTokens:
    @pytest.mark.parametrize("name", CAUSAL)
    @pytest.mark.parametrize("prompt_len,steps", [(1, 1), (1, MAX_LEN - 1), (2, 3),
                                                  (4, MAX_LEN - 4), (MAX_LEN - 1, 1)])
    def test_identical_to_full_recompute(self, name, prompt_len, steps):
        for seed in (1, 2, 3):
            cfg, w = model(name, seed)
            prompt = corpus(prompt_len, seed=seed)
            forward = full_forward(cfg, w)
            want = oracles.greedy_decode(prompt, lambda ids: forward(ids).T, steps)
            assert generate_tokens(cfg, w, prompt, steps) == want

    def test_ffnn_slides_its_window(self):
        cfg, w = model("ffnn")
        prompt = corpus(MAX_LEN)
        out = generate_tokens(cfg, w, prompt, 4)
        want = list(prompt)
        for _ in range(4):
            want.append(int(np.argmax(ffnn_forward(want[-MAX_LEN:], w))))
        assert out == want

    def test_gpt2_matches_straight_line_decoder(self):
        cfg, w = model("gpt2-post")
        prompt = corpus(2)
        want = oracles.greedy_decode(prompt, lambda ids: oracles.gpt2_forward(ids, w), 4)
        assert generate_tokens(cfg, w, prompt, 4) == want

    @pytest.mark.parametrize("name,target", [("gpt2-pre", (transformer, "gpt2_hidden")),
                                             ("lstm", (recurrent, "unroll"))])
    def test_zero_steps_run_no_forward_pass(self, name, target, monkeypatch):
        cfg, w = model(name)
        calls = []
        original = getattr(*target)
        monkeypatch.setattr(*target, lambda *a, **k: calls.append(1) or original(*a, **k))
        assert generate_tokens(cfg, w, [3, 4], 0) == [3, 4]
        assert calls == []
        generate_tokens(cfg, w, [3, 4], 2)
        assert calls == [1, 1]  # one pass over the prompt, one per later token

    def test_zero_steps_keep_the_length_check(self):
        cfg, w = model("gpt2-pre")
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, corpus(MAX_LEN + 1), 0)
        assert generate_tokens(cfg, w, [], 0) == []

    def test_gpt2_budget_checked(self):
        cfg, w = model("gpt2-post")
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, corpus(3), MAX_LEN - 2)
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, [], 1)

    @pytest.mark.parametrize("name", ["rnn", "lstm"])
    def test_recurrent_empty_prompt_rejected(self, name):
        cfg, w = model(name)
        for steps in (0, 2):
            with pytest.raises(SequenceLengthError):
                generate_tokens(cfg, w, [], steps)

    def test_bert_refused(self):
        with pytest.raises(ConfigError):
            generate_tokens(*model("bert"), [1, 2], 1)


class TestCorpusNll:
    """Shared-pass scoring against one full forward pass per position."""

    @pytest.mark.parametrize("name", CAUSAL)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_matches_per_context_oracle(self, name, length):
        cfg, w = model(name)
        ids = corpus(length)
        want = oracles.corpus_nll(ids, full_recompute_predict(cfg, w), MAX_LEN)
        assert_rel(corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN), want)

    @pytest.mark.parametrize("name", CAUSAL)
    @pytest.mark.parametrize("window,need", [(1, 1), (3, 1), (MAX_LEN, MAX_LEN), (3, 3)])
    def test_window_and_min_context(self, name, window, need):
        cfg, w = model(name)
        ids = corpus(3 * MAX_LEN)
        want = oracles.corpus_nll(ids, full_recompute_predict(cfg, w), window, need)
        assert_rel(corpus_nll(ids, make_predict_next(cfg, w), window, need), want)

    @pytest.mark.parametrize("length", [n for n in LENGTHS if n > MAX_LEN])
    def test_ffnn_full_windows_only(self, length):
        cfg, w = model("ffnn")
        ids = corpus(length)
        need = min_context(cfg)
        want = oracles.corpus_nll(ids, full_recompute_predict(cfg, w), MAX_LEN, need)
        assert_rel(corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN, need), want)

    def test_ffnn_corpus_within_window_has_nothing_to_score(self):
        cfg, w = model("ffnn")
        with pytest.raises(SequenceLengthError):
            corpus_nll(corpus(MAX_LEN), make_predict_next(cfg, w), MAX_LEN, min_context(cfg))

    def test_straight_line_oracle_agrees(self):
        cfg, w = model("lstm")
        ids = corpus(2 * MAX_LEN)
        cols = oracles.cols(w.embedding)

        def predict(ctx):
            h = oracles.unroll([cols[t] for t in ctx], w.layers, "lstm")[-1]
            return oracles.naive_softmax([oracles.dot(e, h) for e in cols])

        want = oracles.corpus_nll(ids, predict, MAX_LEN)
        assert abs(corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN) - want) <= 1e-10 * want
