"""Architecture dispatch, next-token predictors, incremental decoding and
shared-pass corpus scoring, checked against the full-recompute oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit import ffnn, recurrent, transformer
from nlmkit.config import ModelConfig
from nlmkit.errors import (
    ConfigError,
    OutOfVocabularyError,
    SequenceLengthError,
    ShapeError,
)
from nlmkit.ffnn import ffnn_forward
from nlmkit.inference import (
    MAX_TOKENS,
    generate_tokens,
    make_forward,
    make_predict_next,
    min_context,
)
from nlmkit.kernels import softmax
from nlmkit.losses import WINDOW_BATCH, MlmTarget, ce_loss, corpus_nll, mlm_loss
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.training import train_toy
from nlmkit.transformer import WINDOW_COLUMNS, gpt2_forward
from nlmkit.vocab import TokenSequence
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
# the pass each decoder looks up in its own module, once per generated token
DECODER_PASS = {"gpt2": (transformer, "gpt2_hidden"), "rnn": (recurrent, "_steps"),
                "lstm": (recurrent, "_steps"), "ffnn": (ffnn, "ffnn_forward")}


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


def no_pass(*args, **kwargs):
    pytest.fail("a refused or zero-step request ran a forward pass")


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

    @pytest.mark.parametrize("name", AUTOREGRESSIVE)
    @pytest.mark.parametrize("extra", [-MAX_LEN, 1])  # n = 0 and n = len(ids) + 1
    def test_window_wider_than_ids_refused(self, name, extra):
        cfg, w = model(name)
        ids = corpus(MAX_LEN)
        with pytest.raises(SequenceLengthError):
            make_predict_next(cfg, w).windows(ids, len(ids) + extra)

    def test_bert_refused(self):
        with pytest.raises(ConfigError):
            make_predict_next(*model("bert"))


def window_counts(n):
    """Windows per scorer call around one gpt2 pass of WINDOW_COLUMNS
    columns (B windows), and more than corpus_nll hands over at once."""
    per_pass = WINDOW_COLUMNS // n
    return sorted({1, per_pass - 1, per_pass, per_pass + 1, WINDOW_BATCH + 1} - {0})


class TestGpt2WindowScorer:
    """Batched windows with a one-column final block against one unpruned
    gpt2_forward pass per window."""

    # L=0: no final block picks each window's last column, so the stack does
    @pytest.mark.parametrize("variant,zeta,gelu_mode,L", [
        ("pre", 1, "tanh", 2), ("post", 1, "exact", 2), ("post", 0, "tanh", 2),
        ("pre", 0, "exact", 2), ("pre", 1, "tanh", 0), ("post", 0, "exact", 0),
    ], ids=["pre-1-tanh", "post-1-exact", "post-0-tanh", "pre-0-exact", "pre-L0", "post-L0"])
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_every_window_matches_its_forward_pass(self, variant, zeta, gelu_mode, L, n):
        cfg = replace(tiny_gpt2_config(zeta=zeta, variant=variant, vocab_size=VOCAB, max_len=16),
                      gelu_mode=gelu_mode, L=L)
        w = init_weights(cfg, 23)
        windows = make_predict_next(cfg, w).windows
        for count in window_counts(n):
            ids = corpus(count + n - 1, seed=count)
            got = windows(ids, n)
            assert got.shape == (VOCAB, count)
            for s in range(count):
                npt.assert_allclose(got[:, s], gpt2_forward(ids[s:s + n], w)[:, -1],
                                    rtol=RTOL, atol=0)

    def test_window_longer_than_max_len_refused(self):
        cfg, w = model("gpt2-pre")
        with pytest.raises(SequenceLengthError):
            make_predict_next(cfg, w).windows(corpus(MAX_LEN + 2), MAX_LEN + 1)

    def test_peak_memory_follows_the_column_budget(self):
        # 64 windows make several passes; their peak stays that of one pass
        cfg = ModelConfig(arch="gpt2", d_e=32, d_k=16, d_v=16, d_f=128, M=2, L=2,
                          vocab_size=VOCAB, max_len=32)
        windows = make_predict_next(cfg, init_weights(cfg, 5)).windows
        n = cfg.max_len
        per_pass = WINDOW_COLUMNS // n
        assert 1 < per_pass < WINDOW_BATCH

        def peak(count):
            ids = corpus(count + n - 1)
            tracemalloc.start()
            try:
                windows(ids, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(WINDOW_BATCH) <= 2 * peak(per_pass)


class ProjectedColumns(np.ndarray):
    """A weight matrix that records how many input columns each product
    ``self @ x`` projects, in ``columns``."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            x = inputs[1]
            self.columns.append(x.size // x.shape[0])
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestRecurrentWindowScorer:
    """Windows advanced side by side from one bottom-layer product over the
    ids, against one recurrent_lm_forward pass per window."""

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("name", ["rnn", "lstm"])
    @pytest.mark.parametrize("n", [1, 3, MAX_LEN])
    def test_every_window_matches_its_forward_pass(self, name, L, n):
        cfg = replace(make_cfg(name), L=L)
        w = init_weights(cfg, 23)
        windows = make_predict_next(cfg, w).windows
        for count in (1, WINDOW_BATCH - 1, WINDOW_BATCH + 1):
            ids = corpus(count + n - 1, seed=count)
            got = windows(ids, n)
            assert got.shape == (VOCAB, count)
            for s in range(count):
                npt.assert_allclose(got[:, s], recurrent_lm_forward(ids[s:s + n], w)[:, -1],
                                    rtol=RTOL, atol=0)

    @pytest.mark.parametrize("name", ["rnn", "lstm"])
    def test_each_position_is_projected_once(self, name):
        cfg, w = model(name)
        bottom = w.layers[0]
        recorder = bottom.w.view(ProjectedColumns)
        recorder.columns = []
        w.layers[0] = replace(bottom, w=recorder)
        ids = corpus(WINDOW_BATCH + MAX_LEN - 1)
        make_predict_next(cfg, w).windows(ids, MAX_LEN)
        assert sum(recorder.columns) == len(ids)  # not MAX_LEN per window

    @pytest.mark.parametrize("name", ["rnn", "lstm"])
    def test_peak_memory_follows_the_ids_not_the_windows(self, name):
        # a long window: WINDOW_BATCH windows hold per-window states beside
        # the product over the ids, never a d_e x n block per window
        cfg = ModelConfig(arch=name, d_e=8, vocab_size=VOCAB, max_len=256, L=2)
        windows = make_predict_next(cfg, init_weights(cfg, 5)).windows
        n = cfg.max_len

        def peak(count):
            ids = corpus(count + n - 1)
            tracemalloc.start()
            try:
                windows(ids, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(WINDOW_BATCH) <= 2 * peak(1)


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
                                             ("lstm", (recurrent, "_steps"))])
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
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, [], 0)

    def test_gpt2_budget_checked(self):
        cfg, w = model("gpt2-post")
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, corpus(3), MAX_LEN - 2)
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, w, [], 1)

    @pytest.mark.parametrize("name", ["gpt2-pre", "rnn", "lstm", "ffnn"])
    def test_prompt_shorter_than_min_context_refused(self, name, monkeypatch):
        cfg, w = model(name)
        monkeypatch.setattr(*DECODER_PASS[cfg.arch], no_pass)
        for steps in (0, 2):
            with pytest.raises(SequenceLengthError):
                generate_tokens(cfg, w, corpus(min_context(cfg) - 1), steps)

    @pytest.mark.parametrize("name", ["gpt2-pre", "rnn", "lstm", "ffnn"])
    def test_at_most_max_tokens(self, name, monkeypatch):
        cfg = make_cfg(name)
        if name == "gpt2-pre":  # a positional table longer than the bound
            cfg = tiny_gpt2_config(vocab_size=VOCAB, max_len=MAX_TOKENS + 1)
        w = init_weights(cfg, 7)
        monkeypatch.setattr(*DECODER_PASS[cfg.arch], no_pass)
        prompt = corpus(MAX_TOKENS)
        assert generate_tokens(cfg, w, prompt, 0) == prompt
        for longer, steps in ((prompt + [0], 0), (prompt, 1)):
            with pytest.raises(SequenceLengthError):
                generate_tokens(cfg, w, longer, steps)

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
        assert_rel(corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN, 1), want)

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
        assert abs(corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN, 1) - want) <= 1e-10 * want


BEYOND_INTP = 2**70  # no intp holds it: numpy refuses the conversion with OverflowError


def _nll(name, ids):
    cfg, w = model(name)
    return corpus_nll(ids, make_predict_next(cfg, w), MAX_LEN, min_context(cfg))


def _train(name, ids):
    cfg, w = model(name)
    return train_toy(cfg, w, ids, steps=1, mu_lr=0.1)


def _generate(name, ids):
    cfg, w = model(name)
    return generate_tokens(cfg, w, ids, steps=1)


def _ce_loss(name, ids):
    return ce_loss(ids, np.zeros((3, len(ids))), overwrite=False)


def _mlm_loss(name, ids):
    masked = MlmTarget(TokenSequence([0] * len(ids)), [True] * len(ids), ids)  # all masked
    return mlm_loss(masked, np.zeros((VOCAB, len(ids))))


PROMPT = [1, 2, 3, 4, 5, BEYOND_INTP]  # a full window, ending in the id
BEYOND_INTP_IDS = {
    "input": [1, 2, 3, 4, 5, 6, BEYOND_INTP, 7, 8],  # read as an input by every window
    "target": [1, 2, 3, 4, 5, 6, 7, BEYOND_INTP],  # read only as the last target
    "prompt": PROMPT,
    "short-prompt": PROMPT[1:],  # leaves gpt2 room for the step
    "class": [BEYOND_INTP],
}


def _case(run, name, where, error):
    return pytest.param(run, name, BEYOND_INTP_IDS[where], error,
                        id=f"{run.__name__[1:]}-{name}-{where}")


@pytest.mark.parametrize("run,name,ids,error", [
    *[_case(_train, name, "input", OutOfVocabularyError)
      for name in ("rnn", "lstm", "ffnn", "gpt2-pre")],
    *[_case(_train, name, "target", OutOfVocabularyError) for name in ("rnn", "ffnn", "gpt2-pre")],
    *[_case(_nll, name, "input", OutOfVocabularyError) for name in AUTOREGRESSIVE],
    *[_case(_nll, name, "target", OutOfVocabularyError) for name in ("rnn", "ffnn", "gpt2-pre")],
    _case(_mlm_loss, "masked", "target", OutOfVocabularyError),
    *[_case(_generate, name, "prompt", OutOfVocabularyError) for name in ("rnn", "ffnn")],
    _case(_generate, "gpt2-pre", "short-prompt", OutOfVocabularyError),
    _case(_ce_loss, "targets", "class", ShapeError),
])
def test_an_id_beyond_intp_raises_an_nlm_error(run, name, ids, error):
    with pytest.raises(error):
        run(name, ids)
