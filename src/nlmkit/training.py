"""Gradients, a plain gradient-descent trainer, and its corpus loss.

The trainer takes its gradients from each architecture's reverse pass
(``inference.CAUSAL``'s ``grad``): one forward pass that keeps its
intermediates, the fused softmax cross-entropy gradient, and one backward
pass give the loss and its gradient together.  An architecture with no
reverse pass (gpt2, for now) is differentiated by central differences over
every scalar parameter, two loss evaluations per parameter and step.
``numerical_gradient`` is also the oracle the reverse passes are tested
against.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .errors import NonFiniteLossError, SequenceLengthError, ShapeError
from .ffnn import ffnn_batch_forward
from .inference import causal_model, make_forward
from .losses import ar_loss, ce_loss, ce_loss_grad
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


def _windows(cfg: ModelConfig, corpus_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every full window of the corpus but the last, which has no next
    token, as a B x n matrix, and the token after each."""
    n = cfg.max_len
    if len(corpus_ids) < n + 1:
        raise ShapeError(f"corpus of {len(corpus_ids)} tokens is too short for window {n}")
    return (np.ascontiguousarray(sliding_window_view(np.asarray(corpus_ids), n)[:-1]),
            np.asarray(corpus_ids[n:]))


def _chunks(cfg: ModelConfig, corpus_ids: list[int]) -> list[list[int]]:
    """Maximum-length chunks overlapping by one token, so every transition
    falls in exactly one chunk; each starts before the last token, so it
    holds at least one transition."""
    if len(corpus_ids) < 2:
        raise ShapeError("corpus must contain at least two tokens")
    if cfg.max_len < 2:
        raise SequenceLengthError(f"max_len {cfg.max_len} leaves no transition to train on")
    return [corpus_ids[start:start + cfg.max_len]
            for start in range(0, len(corpus_ids) - 1, cfg.max_len - 1)]


def make_corpus_loss(cfg: ModelConfig, corpus_ids: list[int]):
    """Mean per-predicted-token training loss for one architecture.

    A model with no per-position forward pass (the feedforward LM) needs
    a full window: its windows over the corpus are built once and scored as
    one batch per call.  Sequence models split the corpus into
    maximum-length chunks overlapping by one token so every transition is
    scored exactly once, under teacher forcing.  The encoder (bert) has no
    causal passes and is refused, as is a max_len of 1 (no transitions).
    """
    if causal_model(cfg).forward is None:
        # built once: building them per call via CAUSAL["ffnn"].windows takes
        # a `train` loss from 60 to 94 us (2-vCPU Xeon).  Only tests run this
        # branch, as the finite-difference oracle of ffnn_vjp, so it keeps the
        # plain ce_loss, which copies its few dozen logits
        windows, targets = _windows(cfg, corpus_ids)
        return lambda w: ce_loss(targets, ffnn_batch_forward(windows, w)) / len(targets)

    chunks = _chunks(cfg, corpus_ids)
    transitions = sum(len(c) - 1 for c in chunks)

    def loss(w):
        forward = make_forward(cfg, w)
        return sum(ar_loss(chunk, forward) for chunk in chunks) / transitions

    return loss


def _batch(cfg: ModelConfig, corpus_ids: list[int]):
    """The corpus as one reverse-pass batch: its input, the logit columns
    that predict a token, and those tokens.

    The feedforward LM's input is its windows.  A sequence model's is its
    chunks as the columns of a len x B id matrix, the short last chunk
    padded with id 0: column t * B + b of the logits follows ids[t, b] and
    predicts ids[t + 1, b] while t + 1 is inside chunk b.  Padding sits
    after every real token, so no scored logit depends on it.
    """
    if causal_model(cfg).forward is None:
        windows, targets = _windows(cfg, corpus_ids)
        return windows, np.arange(len(targets)), targets
    chunks = _chunks(cfg, corpus_ids)
    ids = np.zeros((len(chunks[0]), len(chunks)), dtype=np.intp)
    scored = np.zeros(ids.shape, dtype=bool)
    for b, chunk in enumerate(chunks):
        ids[:len(chunk), b] = chunk
        scored[:len(chunk) - 1, b] = True
    columns = np.flatnonzero(scored)
    return ids, columns, ids.reshape(-1)[columns + ids.shape[1]]


def corpus_objective(cfg: ModelConfig, corpus_ids: list[int]):
    """``(loss, loss_and_gradient)`` of ``make_corpus_loss``'s mean loss.

    ``loss(w)`` is the mean loss, ``loss_and_gradient(w)`` the pair of it
    and its gradient, keyed by the ``named_tensor_view`` names.  The corpus
    windows or chunks are built once for both.  With a reverse pass both run
    its forward pass over the whole corpus as one batch; without one they
    are ``make_corpus_loss`` and its ``numerical_gradient``.
    """
    model = causal_model(cfg)
    if model.grad is None:
        loss = make_corpus_loss(cfg, corpus_ids)
        return loss, lambda w: (loss(w), numerical_gradient(loss, w))
    ids, columns, targets = _batch(cfg, corpus_ids)
    count = len(targets)

    def loss_and_gradient(w):
        logits, backward = model.grad(ids, w)
        total, d_scored = ce_loss_grad(targets, logits[:, columns])
        d_logits = np.zeros(logits.shape)
        d_logits[:, columns] = d_scored / count
        g = zeros_weights(cfg)
        backward(d_logits, g)
        return total / count, g.named_tensors()

    return (lambda w: ce_loss(targets, model.grad(ids, w)[0][:, columns],
                              overwrite=True) / count,
            loss_and_gradient)


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
    ``NonFiniteLossError`` naming the step.
    """
    loss_fn, loss_and_gradient = corpus_objective(cfg, corpus_ids)
    _check_rate(mu_lr)

    def report(step, loss):
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"training diverged: the loss after step {step} "
                                     f"of {steps} is {loss}")
        if step and log_fn is not None:
            log_fn(f"{step}\t{loss:.10f}\t{mu_lr}")

    for step in range(steps):
        loss, gradient = loss_and_gradient(weights)
        report(step, loss)
        if step:
            _descend(weights, gradient, mu_lr)
        else:  # the run's one copy, which later steps update in place
            weights = gd_step(weights, gradient, mu_lr)
    loss = loss_fn(weights)
    report(steps, loss)
    return weights, float(loss)
