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

``CAUSAL`` holds the passes of each autoregressive architecture; adding
one means adding its entry there.  The encoder (bert) has none.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .embeddings import tied_logits
from .errors import ConfigError
from .ffnn import ffnn_batch_forward, ffnn_generate
from .losses import Predictor
from .recurrent import recurrent_generate, recurrent_lm_forward, recurrent_windows
from .transformer import gpt2_forward, gpt2_hidden, greedy_decode


def _gpt2_windows(ids: list[int], n: int, w) -> np.ndarray:
    """Logits after every n-token window: one decoder pass per window, one head."""
    # fill one column at a time so no window's d_e x n hidden outlives its step
    last = np.empty((w.embedding.shape[0], len(ids) - n + 1))
    for s in range(last.shape[1]):
        last[:, s] = gpt2_hidden(ids[s:s + n], w)[:, -1]
    return tied_logits(last, w.embedding)


class CausalModel(NamedTuple):
    """The passes of one causal architecture, each taking its weights last."""

    forward: Callable | None  # (ids, w) -> |V| x len(ids); None: needs a full window
    windows: Callable  # (ids, n, w) -> |V| x (len(ids) - n + 1), one column per window
    generate: Callable  # (prompt, w, steps) -> greedy continuation


# The lambdas look the model functions up when called, so a module-level
# name rebound after import (as perfbench's tracer does) sees every call.
_RECURRENT = CausalModel(lambda ids, w: recurrent_lm_forward(ids, w),
                         lambda ids, n, w: tied_logits(recurrent_windows(ids, n, w), w.embedding),
                         lambda prompt, w, steps: recurrent_generate(prompt, w, steps))
CAUSAL = {
    "ffnn": CausalModel(
        None,
        lambda ids, n, w: ffnn_batch_forward(sliding_window_view(np.asarray(ids), n), w),
        lambda prompt, w, steps: ffnn_generate(prompt, w, steps)),
    "rnn": _RECURRENT,
    "lstm": _RECURRENT,
    "gpt2": CausalModel(lambda ids, w: gpt2_forward(ids, w), _gpt2_windows,
                        lambda prompt, w, steps: greedy_decode(prompt, w, steps)),
}


def causal_model(cfg: ModelConfig) -> CausalModel:
    """The architecture's entry in ``CAUSAL``; the encoder has none."""
    model = CAUSAL.get(cfg.arch)
    if model is None:
        raise ConfigError(f"arch {cfg.arch!r} is not autoregressive")
    return model


def make_forward(cfg: ModelConfig, weights):
    """Per-position logit function (|V| x len) for sequence models."""
    forward = causal_model(cfg).forward
    if forward is None:
        raise ConfigError(f"arch {cfg.arch!r} has no per-position forward pass")
    return lambda ids: forward(ids, weights)


def make_predict_next(cfg: ModelConfig, weights) -> Predictor:
    """Next-token logit passes (and distribution of a context) of a causal model."""
    model = causal_model(cfg)
    prefix = None if model.forward is None else (lambda ids: model.forward(ids, weights))
    return Predictor(prefix, lambda ids, n: model.windows(ids, n, weights))


def generate_tokens(cfg: ModelConfig, weights, prompt_ids: list[int], steps: int) -> list[int]:
    """Greedy continuation of the prompt for any autoregressive arch."""
    return causal_model(cfg).generate(prompt_ids, weights, steps)


def min_context(cfg: ModelConfig) -> int:
    """Shortest context the architecture can condition on: a model with no
    per-position forward pass needs a full window."""
    return cfg.max_len if causal_model(cfg).forward is None else 1
