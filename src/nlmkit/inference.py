"""Architecture dispatch: forward passes, next-token scoring, generation.

Thin glue shared by the CLI and the trainer so every architecture answers
the same three questions: distributions for a sequence, the distribution
of the next token after a context, and a greedy continuation.

Next-token scoring returns a ``losses.Predictor``.  Called on a context it
gives one |V| vector.  For the causal sequence models it also carries a
prefix pass, the model's per-position forward pass, which scores every
prefix of a sequence at once, and a window scorer for ``corpus_nll``'s
full windows: rnn and lstm unroll all windows as one batch, gpt2 runs the
decoder per window but the output head once on the stacked last columns.
The feedforward LM needs a full window, so it has no prefix pass and its
window scorer is one call per window.  Generation decodes incrementally:
a KV cache for gpt2, the carried ``(h, c)`` state for rnn and lstm.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .embeddings import tied_logits
from .errors import ConfigError
from .ffnn import ffnn_forward, ffnn_generate
from .kernels import softmax
from .losses import Predictor
from .recurrent import recurrent_generate, recurrent_hidden, recurrent_lm_forward, recurrent_windows
from .transformer import gpt2_forward, gpt2_hidden, greedy_decode

AR_ARCHS = ("ffnn", "rnn", "lstm", "gpt2")


def make_forward(cfg: ModelConfig, weights):
    """Per-position distribution function (|V| x len) for sequence models."""
    if cfg.arch == "gpt2":
        return lambda ids: gpt2_forward(ids, weights)
    if cfg.arch in ("rnn", "lstm"):
        return lambda ids: recurrent_lm_forward(ids, weights)
    raise ConfigError(f"arch {cfg.arch!r} has no per-position forward pass")


def _head(h: np.ndarray, w) -> np.ndarray:
    """Tied-head distributions of hidden columns (or of one hidden vector)."""
    return softmax(tied_logits(h, w.embedding), axis=0)


def _gpt2_predictor(w) -> Predictor:
    def windows(ids, n):
        # fill one column at a time so no window's d_e x n hidden outlives its step
        last = np.empty((w.embedding.shape[0], len(ids) - n + 1))
        for s in range(last.shape[1]):
            last[:, s] = gpt2_hidden(ids[s:s + n], w)[:, -1]
        return _head(last, w)

    return Predictor(lambda ctx: _head(gpt2_hidden(ctx, w)[:, -1], w),
                     prefix=lambda ids: gpt2_forward(ids, w), windows=windows)


def _recurrent_predictor(w) -> Predictor:
    return Predictor(lambda ctx: _head(recurrent_hidden(ctx, w)[0][:, -1], w),
                     prefix=lambda ids: recurrent_lm_forward(ids, w),
                     windows=lambda ids, n: _head(recurrent_windows(ids, n, w), w))


def make_predict_next(cfg: ModelConfig, weights) -> Predictor:
    """Map a context (list of ids) to the next-token distribution."""
    if cfg.arch == "ffnn":
        return Predictor(lambda ctx: ffnn_forward(ctx, weights))
    if cfg.arch in ("rnn", "lstm"):
        return _recurrent_predictor(weights)
    if cfg.arch == "gpt2":
        return _gpt2_predictor(weights)
    raise ConfigError(f"arch {cfg.arch!r} is not autoregressive; cannot score next tokens")


def generate_tokens(cfg: ModelConfig, weights, prompt_ids: list[int], steps: int) -> list[int]:
    """Greedy continuation of the prompt for any autoregressive arch."""
    if cfg.arch == "gpt2":
        return greedy_decode(prompt_ids, weights, steps)
    if cfg.arch in ("rnn", "lstm"):
        return recurrent_generate(prompt_ids, weights, steps)
    if cfg.arch == "ffnn":
        return ffnn_generate(prompt_ids, weights, steps)
    raise ConfigError(f"arch {cfg.arch!r} cannot generate autoregressively")


def min_context(cfg: ModelConfig) -> int:
    """Shortest context the architecture can condition on."""
    if cfg.arch not in AR_ARCHS:
        raise ConfigError(f"arch {cfg.arch!r} is not autoregressive; it has no next-token context")
    return cfg.max_len if cfg.arch == "ffnn" else 1
