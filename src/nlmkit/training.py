"""Gradients, a plain gradient-descent trainer, and its corpus loss.

The corpus loss (``corpus_objective``) runs the whole corpus through one
forward pass per evaluation: the feedforward LM's windows as one batch, a
sequence model's chunks as the columns of one padded len x B id matrix.
The causal mask and the recurrences make each position depend only on the
tokens up to it, so padding after a chunk's last token changes no scored
logit.  The trainer takes its gradients from each architecture's reverse
pass (``inference.CAUSAL``'s ``grad``): that pass over the same batch,
``summed_ce_grad`` in place on the scored logit columns, and one backward
pass give the loss and its gradient together.  ``numerical_gradient``,
imported from ``weights`` and kept under this module's name too, is the
oracle the reverse passes are tested against.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .embeddings import checked_ids
from .errors import (
    ConfigError,
    NonFiniteLossError,
    SequenceLengthError,
    ShapeError,
    UndefinedDistributionError,
)
from .inference import causal_model, checked_steps
from .losses import summed_ce, summed_ce_grad
from .weights import AnyWeights, named_tensor_view, numerical_gradient, zeros_weights


def _check_rate(mu_lr: float) -> None:
    if not (math.isfinite(mu_lr) and mu_lr > 0):
        raise ConfigError(f"learning rate must be finite and positive, got {mu_lr}")


def gd_step(weights, gradient: dict[str, np.ndarray], mu_lr: float):
    """One gradient-descent update; pure, returns fresh weights."""
    _check_rate(mu_lr)
    new_weights = copy.deepcopy(weights)
    _descend(new_weights, gradient, mu_lr)
    return new_weights


def _descend(weights, gradient: dict[str, np.ndarray], mu_lr: float) -> None:
    """``gd_step``'s update, written into `weights`."""
    tensors = named_tensor_view(weights)
    if gradient.keys() != tensors.keys():
        raise ShapeError(
            f"gradient names {sorted(gradient.keys())} do not match "
            f"weight names {sorted(tensors.keys())}"
        )
    for name, tensor in tensors.items():
        g = np.asarray(gradient[name])
        if g.shape != tensor.shape:
            raise ShapeError(f"gradient {name} has shape {g.shape}, expected {tensor.shape}")
        tensor -= mu_lr * g


def _batch(cfg: ModelConfig, corpus_ids: list[int]):
    """The corpus as one batch: its input, the logit columns that predict a
    token, and those tokens.

    The feedforward LM's input is every full window but the last, which
    has no next token, as a B x n id matrix.  A sequence model's is its
    maximum-length chunks, overlapping by one token so every transition
    falls in exactly one chunk, as the columns of a len x B id matrix:
    column t * B + b of the logits follows ids[t, b] and predicts the
    chunk's next token while there is one.  A chunk's last token is never
    an input, so the matrix has one row fewer than the longest chunk.  The
    short last chunk is padded with the corpus's last token; padding sits
    after every real token, so no scored logit depends on it.
    """
    windowed = causal_model(cfg).forward is None
    corpus = checked_ids(corpus_ids, cfg.vocab_size)
    n = cfg.max_len
    if windowed:
        if len(corpus) < n + 1:
            raise ShapeError(f"corpus of {len(corpus)} tokens is too short for window {n}")
        windows = sliding_window_view(corpus[:-1], n)  # the layout of the ffnn window scorer
        return windows, np.arange(len(windows)), corpus[n:]
    if len(corpus) < 2:
        raise ShapeError("corpus must contain at least two tokens")
    if n < 2:
        raise SequenceLengthError(f"max_len {n} leaves no transition to train on")
    # the corpus position of input row t of chunk b, which starts at b (n - 1)
    at = np.arange(min(n, len(corpus)) - 1)[:, None] + np.arange(0, len(corpus) - 1, n - 1)
    columns = np.flatnonzero(at < len(corpus) - 1)
    return corpus.take(at, mode="clip"), columns, corpus[at.reshape(-1)[columns] + 1]


def corpus_objective(cfg: ModelConfig, corpus_ids: list[int]):
    """``(loss, loss_and_gradient)``: the mean per-predicted-token training
    loss of a causal architecture, and the pair of it and its gradient,
    keyed by the ``named_tensor_view`` names.

    The corpus is checked and becomes one batch here (``_batch``).  Each
    call runs that whole batch unchecked through one pass, the model's
    reverse pass (``inference.CAUSAL``'s ``grad``), every window or chunk
    at once, and reduces the logit columns that predict a token with one
    ``summed_ce``; the pair runs ``summed_ce_grad`` on them instead, then
    the pass's backward.  Every transition is scored exactly once, under
    teacher forcing.  An id outside the vocabulary raises
    ``OutOfVocabularyError``, also where it is only a target.  The encoder
    (bert) has no causal passes and is refused, as is a sequence model's
    max_len of 1 (no transitions).
    """
    model = causal_model(cfg)
    batch, columns, targets = _batch(cfg, corpus_ids)
    count = len(targets)

    def loss(w):  # the gather is a fresh copy, which the loss may reduce in place
        return summed_ce(targets, model.grad(batch, w)[0][:, columns]) / count

    def loss_and_gradient(w):
        logits, backward = model.grad(batch, w)
        d_scored = logits[:, columns]  # a fresh copy, turned into the loss's gradient
        total = summed_ce_grad(targets, d_scored)
        d_logits = np.zeros(logits.shape)
        d_logits[:, columns] = d_scored / count
        g = zeros_weights(cfg)
        backward(d_logits, g)
        return total / count, g.named_tensors()

    return loss, loss_and_gradient


def train_toy(cfg: ModelConfig, weights: AnyWeights, corpus_ids: list[int],
              steps: int, mu_lr: float, log_fn=None) -> tuple[AnyWeights, float]:
    """Gradient-descent memorization loop; returns (weights, final loss).

    Emits one log line per step as "step<TAB>loss<TAB>mu_lr", where the
    loss is that of the updated weights.  A step takes the loss and the
    gradient of its weights from one pass (``corpus_objective``), so the
    line of step k is written by step k + 1.  Only the loss after the last
    step, which is returned, is evaluated on its own; with 0 steps it is
    the one evaluation, no gradient is taken, and the caller's weights
    are returned.  Otherwise the first step's ``gd_step`` makes the run's
    one copy of them, and later steps update that copy in place.  A loss
    that is not finite, after any step or before the first, raises
    ``NonFiniteLossError`` naming the step, as does a softmax left with no
    finite entry while that loss is evaluated.  Steps that are not a
    nonnegative integer, and a learning rate that is not finite and
    positive, raise ``ConfigError`` before the corpus is read.
    """
    steps = checked_steps(steps, ConfigError)
    _check_rate(mu_lr)
    loss_fn, loss_and_gradient = corpus_objective(cfg, corpus_ids)

    def evaluate(step, objective, w):
        try:
            return objective(w)
        except UndefinedDistributionError as err:  # a softmax over the diverged weights
            raise NonFiniteLossError(f"training diverged: the loss after step {step} "
                                     f"of {steps} is not finite") from err

    def report(step, loss):
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"training diverged: the loss after step {step} "
                                     f"of {steps} is {loss}")
        if step and log_fn is not None:
            log_fn(f"{step}\t{loss:.10f}\t{mu_lr}")

    for step in range(steps):
        loss, gradient = evaluate(step, loss_and_gradient, weights)
        report(step, loss)
        if step:
            _descend(weights, gradient, mu_lr)
        else:  # the run's one copy, which later steps update in place
            weights = gd_step(weights, gradient, mu_lr)
    loss = evaluate(steps, loss_fn, weights)
    report(steps, loss)
    return weights, float(loss)
