"""Elman RNN and LSTM cells, time unrolling, and the recurrent LM.

States start at zero.  The LSTM updates its gates in a fixed order:
candidate, forget, add, context update, output.  Stacked layers all share
the embedding width, and the output head reuses the transposed embedding
matrix (weight tying).
"""

from __future__ import annotations

import numpy as np

from .embeddings import embed, tied_logits
from .errors import SequenceLengthError, ShapeError
from .ffnn import activation_fn
from .kernels import sigmoid, softmax
from .vocab import TokenSequence
from .weights import LstmLayerWeights, LstmWeights, RnnLayerWeights, RnnWeights


def rnn_cell(h_prev: np.ndarray, x_in: np.ndarray, w: RnnLayerWeights) -> np.ndarray:
    if w.u.shape[1] != h_prev.shape[0] or w.w.shape[1] != x_in.shape[0]:
        raise ShapeError(
            f"rnn cell dims disagree: U {w.u.shape} vs h {h_prev.shape}, "
            f"W {w.w.shape} vs x {x_in.shape}"
        )
    return activation_fn(w.activation)(w.u @ h_prev + w.w @ x_in + w.b)


def lstm_cell(h_prev: np.ndarray, c_prev: np.ndarray, x_in: np.ndarray,
              w: LstmLayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step; returns (hidden, context).

    The candidate passes through tanh, the three gates through sigmoid,
    so every gate value lies strictly inside (0, 1) for finite inputs.
    """
    if w.u_q.shape[1] != h_prev.shape[0] or w.w_q.shape[1] != x_in.shape[0]:
        raise ShapeError(
            f"lstm cell dims disagree: U {w.u_q.shape} vs h {h_prev.shape}, "
            f"W {w.w_q.shape} vs x {x_in.shape}"
        )
    q = np.tanh(w.u_q @ h_prev + w.w_q @ x_in + w.b_q)   # candidate
    p = sigmoid(w.u_p @ h_prev + w.w_p @ x_in + w.b_p)   # forget gate
    r = sigmoid(w.u_r @ h_prev + w.w_r @ x_in + w.b_r)   # add gate
    c = q * r + c_prev * p
    s = sigmoid(w.u_s @ h_prev + w.w_s @ x_in + w.b_s)   # output gate
    h = s * np.tanh(c)
    return h, c


def unroll(seq_embeddings: np.ndarray, layers: list, kind: str) -> np.ndarray:
    """Run stacked recurrent layers over time; returns the top layer's
    outputs as a d_e x len matrix.

    Column i depends only on input columns <= i, by construction; all
    initial states are zero.
    """
    if seq_embeddings.ndim != 2 or seq_embeddings.shape[1] < 1:
        raise SequenceLengthError("unroll requires a nonempty d_e x len input")
    if not layers:
        raise SequenceLengthError("unroll requires at least one layer")
    if kind not in ("rnn", "lstm"):
        raise ValueError(f"unknown recurrent kind {kind!r}")
    d_e, length = seq_embeddings.shape
    h_state = [np.zeros(d_e) for _ in layers]
    c_state = [np.zeros(d_e) for _ in layers]
    out = np.empty((d_e, length))
    for i in range(length):
        x = seq_embeddings[:, i]
        for l, layer in enumerate(layers):
            if kind == "rnn":
                h_state[l] = rnn_cell(h_state[l], x, layer)
            else:
                h_state[l], c_state[l] = lstm_cell(h_state[l], c_state[l], x, layer)
            x = h_state[l]
        out[:, i] = x
    return out


def recurrent_hidden(seq: TokenSequence | list[int], w: RnnWeights | LstmWeights) -> np.ndarray:
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    kind = "rnn" if isinstance(w, RnnWeights) else "lstm"
    return unroll(embed(ids, w.embedding), w.layers, kind)


def recurrent_lm_forward(seq: TokenSequence | list[int],
                         w: RnnWeights | LstmWeights) -> np.ndarray:
    """Next-token distributions per position (|V| x len), tied output head."""
    return softmax(tied_logits(recurrent_hidden(seq, w), w.embedding), axis=0)


def recurrent_generate(prompt: list[int], w: RnnWeights | LstmWeights, steps: int) -> list[int]:
    """Greedy continuation; ties break toward the lowest id."""
    if not prompt:
        raise SequenceLengthError("prompt must contain at least one token")
    ids = list(prompt)
    for _ in range(steps):
        probs = recurrent_lm_forward(ids, w)
        ids.append(int(np.argmax(probs[:, -1])))
    return ids
