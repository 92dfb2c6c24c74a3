"""Architecture dispatch: forward passes, next-token scoring, generation.

Thin glue shared by the CLI and the trainer so every architecture answers
the same three questions: logits for a sequence, the logits of the next
token after a context, and a greedy continuation.

Next-token scoring returns a ``losses.Predictor`` of two logit passes.
For the causal sequence models the prefix pass is the model's
per-position forward pass, which scores every prefix of a sequence at
once.  The window scorer gives ``corpus_nll``'s full windows: rnn and lstm
unroll all windows as one batch, gpt2 runs the decoder per window but the
output head once on the stacked last columns, and the feedforward LM runs
its batched forward once.  The feedforward LM needs a full window, so it
has no prefix pass.  Generation decodes incrementally: a KV cache for
gpt2, the carried ``(h, c)`` state for rnn and lstm.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .embeddings import tied_logits
from .errors import ConfigError
from .ffnn import ffnn_batch_forward, ffnn_generate
from .losses import Predictor
from .recurrent import recurrent_generate, recurrent_lm_forward, recurrent_windows
from .transformer import gpt2_forward, gpt2_hidden, greedy_decode

AR_ARCHS = ("ffnn", "rnn", "lstm", "gpt2")


def make_forward(cfg: ModelConfig, weights):
    """Per-position logit function (|V| x len) for sequence models."""
    if cfg.arch == "gpt2":
        return lambda ids: gpt2_forward(ids, weights)
    if cfg.arch in ("rnn", "lstm"):
        return lambda ids: recurrent_lm_forward(ids, weights)
    raise ConfigError(f"arch {cfg.arch!r} has no per-position forward pass")


def _gpt2_windows(ids: list[int], n: int, w) -> np.ndarray:
    """Top hidden column after every n-token window, one decoder pass per window."""
    # fill one column at a time so no window's d_e x n hidden outlives its step
    last = np.empty((w.embedding.shape[0], len(ids) - n + 1))
    for s in range(last.shape[1]):
        last[:, s] = gpt2_hidden(ids[s:s + n], w)[:, -1]
    return last


def make_predict_next(cfg: ModelConfig, weights) -> Predictor:
    """Next-token logit passes (and distribution of a context) of a causal model."""
    if cfg.arch == "ffnn":
        return Predictor(None, lambda ids, n: ffnn_batch_forward(
            sliding_window_view(np.asarray(ids), n), weights))
    if cfg.arch in ("rnn", "lstm"):
        return Predictor(lambda ids: recurrent_lm_forward(ids, weights),
                         lambda ids, n: tied_logits(recurrent_windows(ids, n, weights),
                                                    weights.embedding))
    if cfg.arch == "gpt2":
        return Predictor(lambda ids: gpt2_forward(ids, weights),
                         lambda ids, n: tied_logits(_gpt2_windows(ids, n, weights),
                                                    weights.embedding))
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
