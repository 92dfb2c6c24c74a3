"""Finite-difference gradients and a plain gradient-descent trainer.

No autodiff: gradients come from central differences over every scalar
parameter, which costs two loss evaluations per parameter and step.  That
is deliberate; it works identically for every architecture and stays
honest at the toy scales this kit targets (a few thousand parameters).
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
from .losses import ar_loss, ce_loss
from .weights import AnyWeights, named_tensor_view

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
    tensors = named_tensor_view(new_weights)
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
    return new_weights


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
        n = cfg.max_len
        if len(corpus_ids) < n + 1:
            raise ShapeError(
                f"corpus of {len(corpus_ids)} tokens is too short for window {n}"
            )
        # every full window but the last, which has no next token: B x n, built once; building
        # them per call via CAUSAL["ffnn"].windows takes a `train` loss from 60 to 94 us (2-vCPU Xeon)
        windows = np.ascontiguousarray(sliding_window_view(np.asarray(corpus_ids), n)[:-1])
        targets = np.asarray(corpus_ids[n:])
        return lambda w: ce_loss(targets, ffnn_batch_forward(windows, w)) / len(targets)

    if len(corpus_ids) < 2:
        raise ShapeError("corpus must contain at least two tokens")
    if cfg.max_len < 2:
        raise SequenceLengthError(f"max_len {cfg.max_len} leaves no transition to train on")
    # every chunk starts before the last token, so it holds at least one transition
    chunks = [corpus_ids[start:start + cfg.max_len]
              for start in range(0, len(corpus_ids) - 1, cfg.max_len - 1)]
    transitions = sum(len(c) - 1 for c in chunks)

    def loss(w):
        forward = make_forward(cfg, w)
        return sum(ar_loss(chunk, forward) for chunk in chunks) / transitions

    return loss


def train_toy(cfg: ModelConfig, weights: AnyWeights, corpus_ids: list[int],
              steps: int, mu_lr: float, log_fn=None) -> tuple[AnyWeights, float]:
    """Gradient-descent memorization loop; returns (weights, final loss).

    Emits one log line per step as "step<TAB>loss<TAB>mu_lr", where the
    loss is evaluated after the update.
    """
    loss_fn = make_corpus_loss(cfg, corpus_ids)
    _check_rate(mu_lr)
    loss = loss_fn(weights)
    for step in range(1, steps + 1):
        weights = gd_step(weights, numerical_gradient(loss_fn, weights), mu_lr)
        loss = loss_fn(weights)
        if log_fn is not None:
            log_fn(f"{step}\t{loss:.10f}\t{mu_lr}")
    return weights, float(loss)
