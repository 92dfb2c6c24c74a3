"""Architecture dispatch: forward passes, next-token scoring, generation.

Thin glue shared by the CLI and the trainer so every architecture answers
the same three questions: logits for a sequence, the logits of the next
token after a context, and a greedy continuation.

Next-token scoring returns a ``losses.Predictor`` of two logit passes.  For
the causal sequence models the prefix pass is the model's per-position
forward pass, which scores every prefix of a sequence at once.  The window
scorer gives ``corpus_nll``'s full windows and refuses one wider than the
ids: rnn and lstm advance all windows as one batch and project each
position through the bottom layer once, however many windows hold it,
``gpt2_windows`` runs ``WINDOW_COLUMNS`` columns of windows per
``gpt2_hidden`` pass, and the feedforward LM runs its batched forward
once; it needs a full window, so it has no prefix pass.
``generate_tokens`` holds the one greedy loop and its length contract; each
model's decoder keeps its state between calls: a KV cache for gpt2, the
carried ``(h, c)`` state for rnn and lstm.

``CAUSAL`` holds the passes of each autoregressive architecture; adding
one means adding its entry there.  The encoder (bert) has none.  Each
entry holds a forward pass per position (or None), a window scorer, a
decoder, and a reverse pass, ``grad``: the logits of a training batch
with a backward pass that turns their gradient into the parameters'
gradient.  The feedforward LM's batch is a matrix of windows, a sequence
model's the chunks of a corpus as the columns of a len x B id matrix.
Ids are checked once, where they enter: by the forward passes, by the
window scorers and ``generate_tokens`` (``checked_sequence``: one
sequence that holds the window, or the model's context; the argmaxes
after the prompt go to an intp buffer) and by the trainer's ``_batch``.
Decoders and reverse passes run unchecked on what those produced.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .embeddings import checked_sequence, tied_logits
from .errors import ConfigError, SequenceLengthError
from .ffnn import ffnn_decoder, ffnn_vjp
from .losses import Predictor
from .recurrent import recurrent_decoder, recurrent_lm_forward, recurrent_lm_vjp, recurrent_windows
from .transformer import gpt2_decoder, gpt2_forward, gpt2_vjp, gpt2_windows

# Longest sequence generate_tokens builds, prompt included: only gpt2 has a
# positional table, and nothing else would bound the id list.
MAX_TOKENS = 2**16


class CausalModel(NamedTuple):
    """The passes of one causal architecture, each taking its weights last."""

    forward: Callable | None  # (ids, w) -> |V| x len(ids); None: needs a full window
    windows: Callable  # (ids, n, w) -> |V| x (len(ids) - n + 1), one column per window
    decoder: Callable  # (w, total) -> next-token logits of the checked ids so far, per call
    grad: Callable  # (checked batch, w) -> (logits, backward(d_logits, zeroed record))


# The lambdas look the model functions up when called, so a module-level
# name rebound after import (as perfbench's tracer does) sees every call.
# The decoders look their passes up in their own modules on every call.
_RECURRENT = CausalModel(lambda ids, w: recurrent_lm_forward(ids, w),
                         lambda ids, n, w: tied_logits(recurrent_windows(ids, n, w), w.embedding),
                         recurrent_decoder, recurrent_lm_vjp)
CAUSAL = {
    "ffnn": CausalModel(
        None,
        lambda ids, n, w: ffnn_vjp(
            sliding_window_view(checked_sequence(ids, w.embedding.shape[1], n), n), w)[0],
        ffnn_decoder, ffnn_vjp),
    "rnn": _RECURRENT,
    "lstm": _RECURRENT,
    "gpt2": CausalModel(lambda ids, w: gpt2_forward(ids, w), gpt2_windows, gpt2_decoder, gpt2_vjp),
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


def checked_steps(steps, error: type) -> int:
    """`steps` as an int, or `error` if it is not a nonnegative integer."""
    try:
        count = operator.index(steps)
    except TypeError:
        count = -1
    if count < 0:
        raise error(f"steps must be a nonnegative integer, got {steps!r}")
    return count


def generate_tokens(cfg: ModelConfig, weights, prompt_ids: list[int], steps: int) -> list[int]:
    """Greedy continuation of the prompt for any autoregressive arch; ties
    break toward the lowest id.  Before any pass: steps is a nonnegative
    integer, the prompt is one sequence of ids in the vocabulary, it holds
    ``min_context(cfg)`` tokens, prompt plus steps at most ``MAX_TOKENS``,
    and the decoder refuses a total its model cannot hold."""
    steps = checked_steps(steps, SequenceLengthError)
    prompt = checked_sequence(prompt_ids, cfg.vocab_size, min_context(cfg))
    total = len(prompt) + steps
    if total > MAX_TOKENS:
        raise SequenceLengthError(f"prompt plus steps is {total} tokens, over {MAX_TOKENS}")
    next_logits = causal_model(cfg).decoder(weights, total)
    ids = np.empty(total, dtype=np.intp)
    ids[:len(prompt)] = prompt
    for k in range(len(prompt), total):
        ids[k] = np.argmax(next_logits(ids[:k]))
    return ids.tolist()


def min_context(cfg: ModelConfig) -> int:
    """Shortest context the architecture can condition on: a model with no
    per-position forward pass needs a full window."""
    return cfg.max_len if causal_model(cfg).forward is None else 1
