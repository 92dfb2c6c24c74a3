"""Reverse-mode and finite-difference gradients, descent updates, and toy
memorization."""

import copy
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmkit import training, transformer
from nlmkit.config import ModelConfig
from nlmkit.errors import (
    ConfigError,
    NonFiniteLossError,
    SequenceLengthError,
    ShapeError,
    UndefinedDistributionError,
)
from nlmkit.ffnn import ffnn_forward
from nlmkit.inference import make_forward
from nlmkit.kernels import softmax
from nlmkit.losses import ar_loss, ce_loss
from nlmkit.training import corpus_objective, gd_step, numerical_gradient, train_toy
from nlmkit.weights import init_weights, named_tensor_view

import oracles
from conftest import tiny_gpt2_config
from strategies import ACTIVATIONS, models


def ffnn_config(vocab=6, n=2, d0=3, hidden=(4,)):
    return ModelConfig(arch="ffnn", d_e=d0, vocab_size=vocab, max_len=n,
                       hidden_dims=list(hidden))


def reference_loss(cfg, corpus):
    """The corpus loss without the trainer's batch: a sequence model's one
    chunk at a time through ``ar_loss`` and its per-position forward pass
    (``oracles.chunk_loss``), the feedforward LM's one window at a time."""
    if cfg.arch == "ffnn":
        n = cfg.max_len
        return lambda w: np.mean([ce_loss(corpus[s + n], ffnn_forward(corpus[s:s + n], w))
                                  for s in range(len(corpus) - n)])
    return lambda w: oracles.chunk_loss(corpus, cfg.max_len,
                                        lambda chunk: ar_loss(chunk, make_forward(cfg, w)))


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
            grad = numerical_gradient(lambda w: ce_loss(c, w["z"]), z)
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
        with pytest.raises(ConfigError, match="learning rate"):
            gd_step({"a": np.zeros(3)}, {"a": np.zeros(3)}, rate)

    def test_zero_gradient_keeps_weights(self, rng):
        w = {"a": rng.normal(size=(2, 2))}
        new = gd_step(w, {"a": np.zeros((2, 2))}, 0.5)
        npt.assert_array_equal(new["a"], w["a"])

    def test_unit_rate_with_gradient_theta_zeroes(self, rng):
        w = {"a": rng.normal(size=3)}
        new = gd_step(w, {"a": w["a"].copy()}, 1.0)
        npt.assert_allclose(new["a"], 0.0, atol=1e-15)

    def test_is_pure(self, rng):
        w = {"a": rng.normal(size=3)}
        before = w["a"].copy()
        gd_step(w, {"a": np.ones(3)}, 0.1)
        npt.assert_array_equal(w["a"], before)

    def test_shape_mismatch_rejected(self, rng):
        w = {"a": np.zeros(3)}
        with pytest.raises(ShapeError):
            gd_step(w, {"a": np.zeros(4)}, 0.1)
        with pytest.raises(ShapeError):
            gd_step(w, {"b": np.zeros(3)}, 0.1)

    def test_quadratic_descent_converges(self):
        w = {"theta": np.array([3.0, -2.0])}
        loss = lambda w: float((w["theta"] ** 2).sum())
        for _ in range(200):
            w = gd_step(w, numerical_gradient(loss, w), 0.1)
        assert loss(w) < 1e-6


def gpt2_variant(variant, zeta, gelu_mode, max_len):
    return ModelConfig(arch="gpt2", d_e=4, d_k=2, d_v=2, d_f=4, M=2, L=2, vocab_size=6,
                       max_len=max_len, zeta=zeta, norm_variant=variant, gelu_mode=gelu_mode)


GPT2_VARIANTS = {f"gpt2-{variant}-zeta{zeta}-{gelu}": (variant, zeta, gelu)
                 for variant in ("pre", "post") for zeta in (0, 1) for gelu in ("tanh", "exact")}


def sequence_model(name, max_len):
    if name in GPT2_VARIANTS:
        return gpt2_variant(*GPT2_VARIANTS[name], max_len)
    return ModelConfig(arch=name, d_e=3, vocab_size=6, max_len=max_len, L=2)


def scaled_weights(cfg, seed, scale=3.0):
    """Seeded weights scaled up, so every nonlinearity is off its linear part."""
    w = init_weights(cfg, seed)
    for tensor in named_tensor_view(w).values():
        tensor *= scale
    return w


class TestCorpusLoss:
    def test_ffnn_batched_equals_per_window_mean(self, rng):
        cfg = ffnn_config(vocab=6, n=3, d0=2, hidden=(5,))
        w = init_weights(cfg, 11)
        corpus = [int(i) for i in rng.integers(0, 6, size=20)]
        assert abs(corpus_objective(cfg, corpus)[0](w) - reference_loss(cfg, corpus)(w)) < 1e-12

    @settings(max_examples=30)
    @given(data=st.data())
    def test_gpt2_equals_the_per_chunk_oracle_on_drawn_models(self, data):
        cfg, w, corpus = data.draw(models(("gpt2",)))
        want = reference_loss(cfg, corpus)(w)
        assert abs(corpus_objective(cfg, corpus)[0](w) - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", ["gpt2-pre-zeta1-tanh", "gpt2-post-zeta0-exact", "rnn",
                                      "lstm"])
    def test_padding_id_changes_no_bit(self, name, monkeypatch):
        cfg = sequence_model(name, 5)
        corpus = [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 1, 2, 3]  # chunks at 0, 4, 8 and 12
        w = scaled_weights(cfg, 7)
        want = corpus_objective(cfg, corpus)[0](w)
        batch, padded = training._batch, []

        def repadded(*args):
            ids, columns, targets = batch(*args)
            ids = ids.copy()
            ids[2:, -1] = (ids[2:, -1] + 1) % cfg.vocab_size  # after the 2-token last chunk
            padded.append(ids[2:, -1].size)
            return ids, columns, targets

        monkeypatch.setattr(training, "_batch", repadded)
        assert corpus_objective(cfg, corpus)[0](w) == want
        assert padded == [2]

    @pytest.mark.parametrize("name", list(GPT2_VARIANTS))
    def test_gpt2_gradient_equals_that_of_the_per_chunk_loss(self, name):
        variant, zeta, gelu = GPT2_VARIANTS[name]
        cfg = ModelConfig(arch="gpt2", d_e=2, d_k=1, d_v=1, d_f=2, M=1, L=1, vocab_size=5,
                          max_len=3, zeta=zeta, norm_variant=variant, gelu_mode=gelu)
        corpus = [0, 1, 2, 3, 4, 2, 1, 3]  # the last chunk holds 2 tokens
        w = scaled_weights(cfg, 4)
        got = numerical_gradient(corpus_objective(cfg, corpus)[0], w)
        want = numerical_gradient(reference_loss(cfg, corpus), w)
        assert list(got) == list(want)
        for key in want:
            npt.assert_allclose(got[key], want[key], rtol=1e-6, atol=1e-8, err_msg=key)

    def test_sequence_chunks_cover_every_transition_once(self):
        cfg = ModelConfig(arch="rnn", d_e=2, vocab_size=4, max_len=4, L=1)
        seen = []
        corpus = [0, 1, 2, 3, 0, 1, 2]

        # mean over chunks of a uniform model must equal log |V| regardless
        # of how the corpus is split, and that only holds when every
        # transition is counted exactly once
        loss = corpus_objective(cfg, corpus)[0]
        w = init_weights(cfg, 0)
        for tensor in w.named_tensors().values():
            tensor[:] = 0.0
        assert abs(loss(w) - math.log(4)) < 1e-12

    def test_ffnn_monotone_descent_for_ten_steps(self):
        # small learning rate on a deterministic toy corpus: the first ten
        # finite-difference descent steps strictly reduce the loss
        cfg = ffnn_config(vocab=6, n=2, d0=3, hidden=(4,))
        corpus = [0, 1, 2, 3, 4, 5] * 3
        loss_fn = corpus_objective(cfg, corpus)[0]
        w = init_weights(cfg, 1)
        losses = [loss_fn(w)]
        for _ in range(10):
            w = gd_step(w, numerical_gradient(loss_fn, w), 0.1)
            losses.append(loss_fn(w))
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTrainToy:
    def test_bert_is_refused(self):
        cfg = ModelConfig(arch="bert", d_e=4, d_k=2, d_v=2, d_f=4, M=1, L=1, vocab_size=5,
                          max_len=4)
        with pytest.raises(ConfigError, match="not autoregressive"):
            corpus_objective(cfg, [0, 1, 2, 3])

    @pytest.mark.parametrize("cfg", [
        ModelConfig(arch="rnn", d_e=2, vocab_size=4, max_len=1, L=1),
        ModelConfig(arch="lstm", d_e=2, vocab_size=4, max_len=1, L=1),
        tiny_gpt2_config(vocab_size=4, max_len=1),
    ], ids=["rnn", "lstm", "gpt2"])
    def test_max_len_one_is_refused_before_any_loss(self, cfg):
        # 1-token chunks hold no transition, so the mean loss would divide by zero
        with pytest.raises(SequenceLengthError, match="max_len 1"):
            train_toy(cfg, init_weights(cfg, 0), [0, 1, 2, 3], steps=0, mu_lr=0.1)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_bad_rate_is_refused_with_zero_steps(self, rate):
        cfg = ffnn_config()
        with pytest.raises(ConfigError, match="learning rate"):
            train_toy(cfg, init_weights(cfg, 0), [0, 1, 2, 3], steps=0, mu_lr=rate)

    @pytest.mark.parametrize("steps", [-2, 1.5, "1", None])
    def test_steps_must_be_a_nonnegative_integer(self, steps, monkeypatch):
        monkeypatch.setattr(training, "corpus_objective", refuse)
        cfg = ffnn_config()
        with pytest.raises(ConfigError, match="steps must be a nonnegative integer"):
            train_toy(cfg, init_weights(cfg, 0), [0, 1, 2, 3], steps=steps, mu_lr=0.1)

    def test_lstm_loss_drops_at_every_step(self):
        cfg = ModelConfig(arch="lstm", d_e=2, vocab_size=4, max_len=4, L=1)
        corpus = [0, 1, 2, 3] * 3
        w0 = init_weights(cfg, 3)
        losses = [corpus_objective(cfg, corpus)[0](w0)]
        train_toy(cfg, w0, corpus, steps=5, mu_lr=0.3,
                  log_fn=lambda line: losses.append(float(line.split("\t")[1])))
        assert len(losses) == 6
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_loss_drops_and_log_format_holds(self):
        cfg = ffnn_config(vocab=5, n=2, d0=2, hidden=(4,))
        corpus = [0, 1, 2, 3, 4] * 3
        lines = []
        w0 = init_weights(cfg, 2)
        initial = corpus_objective(cfg, corpus)[0](w0)
        _, final = train_toy(cfg, w0, corpus, steps=5, mu_lr=0.3, log_fn=lines.append)
        assert final < initial
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            step, loss, lr = line.split("\t")
            assert int(step) == i
            float(loss)
            assert float(lr) == 0.3


MODEL_KINDS = [(arch, activation) for arch in ("ffnn", "rnn") for activation in ACTIVATIONS]
MODEL_KINDS += [("lstm", None), ("gpt2", None)]


class TestReverseModeGradient:
    @pytest.mark.parametrize("arch,activation", MODEL_KINDS)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_matches_finite_differences(self, arch, activation, data):
        pinned = {} if activation is None else {"activation": activation}
        cfg, w, corpus = data.draw(models((arch,), **pinned))
        loss_fn = reference_loss(cfg, corpus)
        loss, grad = corpus_objective(cfg, corpus)[1](w)
        want = numerical_gradient(loss_fn, w)
        assert list(grad) == list(want)
        for name in want:
            npt.assert_allclose(grad[name], want[name], rtol=1e-6, atol=1e-8, err_msg=name)
        want_loss = loss_fn(w)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        # the loss alone, not only the loss with its gradient
        assert abs(corpus_objective(cfg, corpus)[0](w) - want_loss) <= 1e-12 * want_loss

    def test_loss_function_without_gradient_agrees(self):
        cfg = ModelConfig(arch="lstm", d_e=2, vocab_size=4, max_len=3, L=2)
        corpus = [0, 1, 2, 3, 1, 2]
        w = init_weights(cfg, 5)
        loss_fn, loss_and_gradient = corpus_objective(cfg, corpus)
        want = reference_loss(cfg, corpus)(w)
        assert abs(loss_fn(w) - want) <= 1e-12 * want
        assert loss_fn(w) == loss_and_gradient(w)[0]


# Perfbench's small configs (V = 1000) and the weight scale each is checked
# at.  Scaled x10, the d64 rnn's loss is chaotic: its difference quotient
# only converges below h = 1e-7, so the rnn is checked at x1 and x3.
BENCHMARK_SIZED = {
    "lstm-x10": (ModelConfig(arch="lstm", d_e=64, L=2, vocab_size=1000, max_len=64), 10.0),
    "rnn-x1": (ModelConfig(arch="rnn", d_e=64, L=2, vocab_size=1000, max_len=64), 1.0),
    "rnn-x3": (ModelConfig(arch="rnn", d_e=64, L=2, vocab_size=1000, max_len=64), 3.0),
    "ffnn-x10": (ModelConfig(arch="ffnn", d_e=64, max_len=64, hidden_dims=[64],
                             vocab_size=1000), 10.0),
}
DIRECTIONS = 3
DIRECTION_NORM = 30.0  # a step of h moves the weights by 3e-4 in norm
DD_STEP = 1e-5
DD_RTOL = 1e-6


def moved(w, v, step):
    """A copy of the weights moved by step * v, v keyed by tensor name."""
    out = copy.deepcopy(w)
    for name, tensor in named_tensor_view(out).items():
        tensor += step * v[name]
    return out


class TestDirectionalDerivative:
    """The reverse pass at benchmark sizes, which the per-entry check on tiny
    configs never reaches: 64-step unrolls, the 1000-class head and its
    backward, BLAS on full-sized matrices, a 200-token corpus in 4 chunks.

    For each of 3 seeded Gaussian directions v of norm 30, the gradient's
    g.v must match the central difference (L(w + hv) - L(w - hv)) / 2h at
    h = 1e-5 to within 1e-6 of the largest |g.v| of the three.  It is
    relative to the largest because one direction drawn near orthogonal to
    g gives a g.v that the quotient's rounding error (about 1e-10) swamps.
    In a sweep of 30 seeded triples the worst error read 4.4e-8 (rnn x1),
    and at most 1.6e-8 on the others.
    """

    @pytest.mark.parametrize("name", list(BENCHMARK_SIZED))
    def test_matches_central_differences(self, name):
        cfg, scale = BENCHMARK_SIZED[name]
        rng = np.random.default_rng(2024)
        corpus = rng.integers(0, cfg.vocab_size, 200).tolist()
        w = init_weights(cfg, 3)
        tensors = named_tensor_view(w)
        for tensor in tensors.values():
            tensor *= scale
        loss, loss_and_gradient = corpus_objective(cfg, corpus)
        grad = loss_and_gradient(w)[1]
        derivatives, errors = [], []
        for _ in range(DIRECTIONS):
            v = {key: rng.standard_normal(t.shape) for key, t in tensors.items()}
            norm = math.sqrt(sum(float((d * d).sum()) for d in v.values()))
            v = {key: d * (DIRECTION_NORM / norm) for key, d in v.items()}
            derivative = sum(float((grad[key] * d).sum()) for key, d in v.items())
            quotient = (loss(moved(w, v, DD_STEP)) - loss(moved(w, v, -DD_STEP))) / (2 * DD_STEP)
            derivatives.append(derivative)
            errors.append(abs(derivative - quotient))
        assert max(errors) <= DD_RTOL * max(map(abs, derivatives)), (errors, derivatives)


def tiny_gpt2():
    return ModelConfig(arch="gpt2", d_e=2, d_k=1, d_v=1, d_f=2, M=1, L=1, vocab_size=5,
                       max_len=3)


REVERSE_MODE = {
    "rnn": ModelConfig(arch="rnn", d_e=3, vocab_size=5, max_len=4, L=2),
    "lstm": ModelConfig(arch="lstm", d_e=3, vocab_size=5, max_len=4, L=2),
    "ffnn": ffnn_config(vocab=5, n=2, d0=3, hidden=(4,)),
}
CORPUS = [0, 1, 2, 3, 4, 2, 1, 0, 3, 1]


def refuse(*args):
    raise AssertionError("called")


def spy_on_blocks(monkeypatch):
    """The list that every later ``transformer_stack`` call appends to."""
    calls, stack = [], transformer.transformer_stack
    monkeypatch.setattr(transformer, "transformer_stack",
                        lambda *args: calls.append(args) or stack(*args))
    return calls


class TestTrainerGradients:
    @pytest.mark.parametrize("arch", list(REVERSE_MODE))
    def test_reverse_mode_archs_never_take_finite_differences(self, arch, monkeypatch):
        monkeypatch.setattr(transformer, "numerical_gradient", refuse)
        cfg = REVERSE_MODE[arch]
        w0 = init_weights(cfg, 1)
        w, loss = train_toy(cfg, w0, CORPUS, steps=2, mu_lr=0.5)
        assert loss < corpus_objective(cfg, CORPUS)[0](w0)

    def test_gpt2_takes_finite_differences_once_per_step(self, monkeypatch):
        calls = []

        def counted(loss_fn, w):
            calls.append(loss_fn)
            return {name: np.zeros_like(t) for name, t in named_tensor_view(w).items()}

        monkeypatch.setattr(transformer, "numerical_gradient", counted)
        cfg = tiny_gpt2()
        train_toy(cfg, init_weights(cfg, 1), [0, 1, 2, 3, 2], steps=3, mu_lr=0.1)
        assert len(calls) == 3

    def test_one_gpt2_loss_evaluation_runs_the_blocks_once(self, monkeypatch):
        stacks = spy_on_blocks(monkeypatch)
        cfg = tiny_gpt2()
        corpus_objective(cfg, CORPUS)[0](init_weights(cfg, 1))  # 5 chunks
        assert len(stacks) == 1

    def test_a_gpt2_step_makes_two_loss_evaluations_per_parameter_and_one_more(self,
                                                                             monkeypatch):
        stacks = spy_on_blocks(monkeypatch)
        cfg = tiny_gpt2()
        w0 = init_weights(cfg, 1)
        parameters = sum(t.size for t in named_tensor_view(w0).values())
        train_toy(cfg, w0, CORPUS, steps=2, mu_lr=0.1)
        assert len(stacks) == 2 * (2 * parameters + 1) + 1  # and the final loss

    @pytest.mark.parametrize("cfg", [*REVERSE_MODE.values(), tiny_gpt2()],
                             ids=[*REVERSE_MODE, "gpt2"])
    def test_a_run_builds_the_corpus_batch_once(self, cfg, monkeypatch):
        built, batch = [], training._batch
        monkeypatch.setattr(training, "_batch", lambda *args: built.append(1) or batch(*args))
        train_toy(cfg, init_weights(cfg, 1), CORPUS, steps=2, mu_lr=0.1)
        assert built == [1]

    @pytest.mark.parametrize("cfg", [*REVERSE_MODE.values(), tiny_gpt2()],
                             ids=[*REVERSE_MODE, "gpt2"])
    def test_zero_steps_take_no_gradient(self, cfg, monkeypatch):
        monkeypatch.setattr(transformer, "numerical_gradient", refuse)
        monkeypatch.setattr(training, "summed_ce_grad", refuse)
        w0 = init_weights(cfg, 1)
        w, loss = train_toy(cfg, w0, CORPUS[:7], steps=0, mu_lr=0.1)
        assert w is w0
        want = reference_loss(cfg, CORPUS[:7])(w0)
        assert abs(loss - want) <= 1e-12 * want

    @pytest.mark.parametrize("arch", list(REVERSE_MODE))
    def test_one_weight_copy_per_run_and_the_callers_weights_untouched(self, arch, monkeypatch):
        cfg = REVERSE_MODE[arch]
        w0 = init_weights(cfg, 1)
        before = {name: t.copy() for name, t in named_tensor_view(w0).items()}
        copies, deepcopy = [], training.copy.deepcopy
        monkeypatch.setattr(training.copy, "deepcopy", lambda w: copies.append(w) or deepcopy(w))
        w, _ = train_toy(cfg, w0, CORPUS, steps=3, mu_lr=0.5)
        assert len(copies) == 1 and copies[0] is w0 and w is not w0
        for name, tensor in named_tensor_view(w0).items():
            npt.assert_array_equal(tensor, before[name])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("steps", [2, 3])  # the diverged loss is the final one, or a step's
    @pytest.mark.parametrize("arch", [*REVERSE_MODE, "gpt2"])
    def test_non_finite_loss_stops_training_naming_its_step(self, arch, steps):
        # gpt2's loss after step 1 is already a softmax with no finite entry
        cfg, step, loss = ((tiny_gpt2(), 1, "not finite") if arch == "gpt2"
                           else (REVERSE_MODE[arch], 2, "inf"))
        lines = []
        with pytest.raises(NonFiniteLossError,
                           match=f"loss after step {step} of {steps} is {loss}") as caught:
            train_toy(cfg, init_weights(cfg, 1), CORPUS, steps=steps, mu_lr=1e308,
                      log_fn=lines.append)
        assert [line.split("\t")[0] for line in lines] == [str(k) for k in range(1, step)]
        assert (arch == "gpt2") == isinstance(caught.value.__cause__, UndefinedDistributionError)

    @pytest.mark.parametrize("arch", list(REVERSE_MODE))
    def test_logged_losses_are_the_corpus_loss_of_each_steps_weights(self, arch, monkeypatch):
        cfg = REVERSE_MODE[arch]
        w0 = init_weights(cfg, 2)
        loss_fn = corpus_objective(cfg, CORPUS)[0]
        wanted = [loss_fn(train_toy(cfg, w0, CORPUS, steps=k, mu_lr=0.5)[0]) for k in (1, 2, 3)]

        # every loss the trainer computes, in order: step 1's is that of w0
        seen, objective = [], training.corpus_objective

        def spied(*args):
            loss_fn, loss_and_gradient = objective(*args)

            def spied_loss(w):
                seen.append(loss_fn(w))
                return seen[-1]

            def spied_loss_and_gradient(w):
                loss, gradient = loss_and_gradient(w)
                seen.append(loss)
                return loss, gradient

            return spied_loss, spied_loss_and_gradient

        monkeypatch.setattr(training, "corpus_objective", spied)
        lines = []
        _, final = train_toy(cfg, w0, CORPUS, steps=3, mu_lr=0.5, log_fn=lines.append)
        assert len(seen) == 4 and final == seen[-1]
        for line, logged, want in zip(lines, seen[1:], wanted, strict=True):
            assert abs(logged - want) <= 1e-12 * want
            assert line.split("\t")[1] == f"{logged:.10f}"
