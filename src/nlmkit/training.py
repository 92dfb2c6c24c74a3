"""Gradients, a plain gradient-descent trainer, and its corpus loss.

The corpus loss (``make_corpus_loss``) runs the whole corpus through one
forward pass per evaluation: the feedforward LM's windows as one batch, a
sequence model's chunks as the columns of one padded len x B id matrix.
The causal mask and the recurrences make each position depend only on the
tokens up to it, so padding after a chunk's last token changes no scored
logit.  The trainer takes its gradients from each architecture's reverse
pass (``inference.CAUSAL``'s ``grad``): that pass over the same batch, the
fused softmax cross-entropy gradient, and one backward pass give the loss
and its gradient together.  An architecture with no reverse pass (gpt2,
for now) is differentiated by central differences of the corpus loss over
every scalar parameter, two evaluations per parameter and step.
``numerical_gradient`` is also the oracle the reverse passes are tested
against.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .config import ModelConfig
from .embeddings import checked_ids
from .errors import NonFiniteLossError, SequenceLengthError, ShapeError, UndefinedDistributionError
from .inference import causal_model
from .losses import ce_loss, ce_loss_grad
from .weights import AnyWeights, named_tensor_view, zeros_weights

FD_STEP = 1e-5


def numerical_gradient(loss_fn, weights) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar loss over every parameter.

    The weights are perturbed in place and restored; any probe that yields
    a non-finite loss aborts with a diagnostic naming the parameter.
    """
    tensors = named_tensor_view(weights)
    grad: dict[str, np.ndarray] = {}
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        g = np.zeros(flat.shape[0])
        for i in range(flat.shape[0]):
            original = flat[i]
            flat[i] = original + FD_STEP
            j_plus = loss_fn(weights)
            flat[i] = original - FD_STEP
            j_minus = loss_fn(weights)
            flat[i] = original
            if not (math.isfinite(j_plus) and math.isfinite(j_minus)):
                raise NonFiniteLossError(
                    f"non-finite loss while probing parameter {name}[{i}]: "
                    f"J+={j_plus}, J-={j_minus}"
                )
            g[i] = (j_plus - j_minus) / (2.0 * FD_STEP)
        grad[name] = g.reshape(tensor.shape)
    return grad


def _check_rate(mu_lr: float) -> None:
    if not (math.isfinite(mu_lr) and mu_lr > 0):
        raise ValueError(f"learning rate must be finite and positive, got {mu_lr}")


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


def make_corpus_loss(cfg: ModelConfig, corpus_ids: list[int]):
    """Mean per-predicted-token training loss of a causal architecture.

    The corpus becomes one batch when the loss is made (``_batch``), and
    each call runs that whole batch through one pass, every window or chunk
    at once, and reduces the logit columns that predict a token with one
    ``ce_loss``.  The pass is the forward half of the architecture's
    reverse pass (``inference.CAUSAL``'s ``grad``), or its forward pass
    where it has none.  Every transition is scored exactly once, under
    teacher forcing.  An id outside the vocabulary raises
    ``OutOfVocabularyError``, also where it is only a target.  The encoder
    (bert) has no causal passes and is refused, as is a sequence model's
    max_len of 1 (no transitions).
    """
    return _corpus_loss(causal_model(cfg), *_batch(cfg, corpus_ids))


def _corpus_loss(model, batch, columns, targets):
    """``make_corpus_loss``'s loss over a batch ``_batch`` built."""
    # a reverse pass runs each layer over every step at once, which is faster
    # at training sizes: 54 us against 65 us through unroll for one loss of
    # perfbench's `train` rnn (2-vCPU Xeon)
    run = model.forward if model.grad is None else (lambda ids, w: model.grad(ids, w)[0])
    # the gather is a fresh copy, so the loss may shift it in place
    return lambda w: ce_loss(targets, run(batch, w)[:, columns], overwrite=True) / len(targets)


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
        windows = corpus[np.arange(len(corpus) - n)[:, None] + np.arange(n)]
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
    """``(loss, loss_and_gradient)``: ``make_corpus_loss``'s mean loss, and
    the pair of it and its gradient, keyed by the ``named_tensor_view``
    names.

    With a reverse pass the loss and the pair share one ``_batch``, and
    the pair comes from that pass over it; without one (gpt2, for now) it
    is the loss and its ``numerical_gradient``.  Either way an id outside
    the vocabulary raises ``OutOfVocabularyError``.
    """
    model = causal_model(cfg)
    if model.grad is None:
        loss = make_corpus_loss(cfg, corpus_ids)
        return loss, lambda w: (loss(w), numerical_gradient(loss, w))
    batch, columns, targets = _batch(cfg, corpus_ids)
    count = len(targets)

    def loss_and_gradient(w):
        logits, backward = model.grad(batch, w)
        total, d_scored = ce_loss_grad(targets, logits[:, columns])
        d_logits = np.zeros(logits.shape)
        d_logits[:, columns] = d_scored / count
        g = zeros_weights(cfg)
        backward(d_logits, g)
        return total / count, g.named_tensors()

    return _corpus_loss(model, batch, columns, targets), loss_and_gradient


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
    finite entry while that loss is evaluated.
    """
    loss_fn, loss_and_gradient = corpus_objective(cfg, corpus_ids)
    _check_rate(mu_lr)

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
