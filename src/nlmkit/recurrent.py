"""Elman RNN and LSTM cells, time unrolling, and the recurrent LM.

States start at zero.  An LSTM layer is stored stacked, the form every pass
runs: its gate blocks Q, P, R, S, in update order, as a 4d x d U and W and a
4d b (archive tensors ``lstm.l{l}.U``, ``.W`` and ``.b``), gate k in rows
[k d, (k + 1) d).  All layers share the embedding width, and the output head
reuses the transposed embedding matrix (weight tying).

A cell takes one state vector, or a d x B matrix that advances B
sequences at once, one column each.  The LSTM takes its four gates from one
``np.tanh`` over the stacked pre-activation, each sigmoid gate as
sigmoid(z) = (1 + tanh(z/2)) / 2, which agrees with the logistic function
within 2.3e-16 and costs a third of ``kernels.sigmoid`` per entry; the cell
and the reverse pass's forward step share that step (``_lstm_step``), so
they give bitwise the same states.  ``unroll`` takes and returns the
per-layer ``(h, c)`` state, so ``recurrent_decoder`` carries it forward one
token at a time instead of re-reading the prefix.

``recurrent_lm_vjp`` runs the model over a batch of equal-length sequences
and returns its backward pass with the logits: backpropagation through
time, layer by layer from the top.  It keeps every step's state, so each
layer's input products and all weight gradients are one matrix product
over every step, and only ``U h`` forward and ``U^T dz`` backward run per
step.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embeddings import embed, embed_backward, tied_logits, tied_logits_backward
from .errors import SequenceLengthError, ShapeError
from .ffnn import activation_derivative, activation_fn
from .weights import LstmLayerWeights, RecurrentWeights, RnnLayerWeights


def _same_batch(h: np.ndarray, x: np.ndarray) -> bool:
    """Both are d x B matrices with the same B."""
    return h.ndim == 2 and h.shape[1] == x.shape[1]


def rnn_cell(h_prev: np.ndarray, x_in: np.ndarray, w: RnnLayerWeights) -> np.ndarray:
    """One Elman step for a state vector or a d x B matrix of states."""
    if (w.u.shape[1] != h_prev.shape[0] or w.w.shape[1] != x_in.shape[0]
            or h_prev.ndim != x_in.ndim or h_prev.ndim != 1 and not _same_batch(h_prev, x_in)):
        raise ShapeError(
            f"rnn cell dims disagree: U {w.u.shape} vs h {h_prev.shape}, "
            f"W {w.w.shape} vs x {x_in.shape}"
        )
    # a (d,) bias would add along the rows of a d x B matrix, so give it a column axis
    b = w.b if h_prev.ndim == 1 else w.b[:, None]
    return activation_fn(w.activation)(w.u @ h_prev + w.w @ x_in + b)


@functools.lru_cache(maxsize=None)
def _gate_affine(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only scale and offset of a vector of 4d stacked gate rows around
    their one tanh: 1 and 0 on the Q rows, where the gate is tanh(z), and
    0.5 and 0.5 on the P, R and S rows, where it is
    sigmoid(z) = 0.5 tanh(0.5 z) + 0.5."""
    scale = np.full(rows, 0.5)
    scale[:rows // 4] = 1.0
    offset = 1.0 - scale
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _lstm_step(h_prev: np.ndarray, c_prev: np.ndarray, x_in: np.ndarray,
               layer: LstmLayerWeights):
    """One LSTM step through a layer's stacked U, W and b: the 4d gate rows,
    the new context c, tanh(c) and the new hidden state.

    One ``U h + W x + b`` feeds all four gates, and one ``np.tanh`` over it,
    in place, makes them: tanh on its Q rows, and the sigmoid
    0.5 tanh(0.5 z) + 0.5 = (1 + tanh(z/2)) / 2 on its P, R and S rows
    (halving is exact, so both forms give the same values).
    """
    d = h_prev.shape[0]
    z = layer.u @ h_prev
    z += layer.w @ x_in
    z += layer.b if h_prev.ndim == 1 else layer.b[:, None]  # column biases, as in rnn_cell
    if z.ndim == 1:  # per-call cost rules: whole-vector operands beat a slice and scalars
        scale, offset = _gate_affine(len(z))
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += offset
    else:  # scalars on the contiguous sigmoid rows; a column would broadcast row by row
        sigmoid_rows = z[d:]
        sigmoid_rows *= 0.5
        np.tanh(z, out=z)
        sigmoid_rows += 1.0
        sigmoid_rows *= 0.5
    q, p, r, s = z.reshape((4,) + h_prev.shape)  # candidate; forget, add and output gates
    c = q * r
    c += c_prev * p
    tanh_c = np.tanh(c)
    return z, c, tanh_c, s * tanh_c


def lstm_cell(h_prev: np.ndarray, c_prev: np.ndarray, x_in: np.ndarray,
              layer: LstmLayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step through a layer's stacked U, W and b for state vectors
    or d x B state matrices; returns (hidden, context).  Every gate value lies
    in [0, 1] for finite inputs: a sigmoid gate is exactly 0 below about
    z = -38, where the logistic function is under 1e-16, and exactly 1 above
    about z = 37."""
    u, w, b = layer.u, layer.w, layer.b
    d = h_prev.shape[0]
    if (u.shape != (4 * d, d) or w.shape != (4 * d, x_in.shape[0]) or b.shape != (4 * d,)
            or h_prev.shape != c_prev.shape or h_prev.ndim != x_in.ndim
            or h_prev.ndim != 1 and not _same_batch(h_prev, x_in)):
        raise ShapeError(
            f"lstm cell dims disagree: U {u.shape} vs h {h_prev.shape}, "
            f"c {c_prev.shape}, W {w.shape} vs x {x_in.shape}, b {b.shape}"
        )
    _, c, _, h = _lstm_step(h_prev, c_prev, x_in, layer)
    return h, c


def unroll(seq_embeddings: np.ndarray, layers: list,
           state: list | None = None) -> tuple[np.ndarray, list]:
    """Run the recurrent layers, bottom first, over time; returns the top
    layer's outputs as a d_e x len matrix and the final per-layer ``(h, c)``
    state.

    An ``RnnLayerWeights`` layer runs the Elman cell, an
    ``LstmLayerWeights`` layer the LSTM cell, each reading its weights as
    stored.  A d_e x len x B input unrolls B sequences at once; outputs are
    then d_e x len x B and states d_e x B.  Column i depends only on input
    columns <= i, by construction.  The initial state is `state`, as
    returned by an earlier call, or zero (the Elman cell ignores c).
    """
    if seq_embeddings.ndim not in (2, 3) or seq_embeddings.shape[1] < 1:
        raise SequenceLengthError("unroll requires a nonempty d_e x len (x B) input")
    if not layers:
        raise SequenceLengthError("unroll requires at least one layer")
    if state is None:
        # cells never write into their inputs, so one zero array serves all
        h_state = [np.zeros(seq_embeddings.shape[:1] + seq_embeddings.shape[2:])] * len(layers)
        c_state = list(h_state)
    elif len(state) != len(layers):
        raise ShapeError(f"state has {len(state)} layers, the model {len(layers)}")
    else:
        h_state = [h for h, _ in state]
        c_state = [c for _, c in state]
    length = seq_embeddings.shape[1]
    out = np.empty(seq_embeddings.shape)
    for i in range(length):
        x = seq_embeddings[:, i]
        for l, layer in enumerate(layers):
            if isinstance(layer, RnnLayerWeights):
                h_state[l] = rnn_cell(h_state[l], x, layer)
            else:
                h_state[l], c_state[l] = lstm_cell(h_state[l], c_state[l], x, layer)
            x = h_state[l]
        out[:, i] = x
    return out, list(zip(h_state, c_state))


def recurrent_windows(ids: list[int], n: int, w: RecurrentWeights) -> np.ndarray:
    """Top-layer hidden state after every n-token window ids[s:s+n], one
    column per window (d_e x (len(ids) - n + 1)), from one batched unroll."""
    windows = sliding_window_view(embed(ids, w.embedding), n, axis=1)  # d_e x B x n view
    _, state = unroll(windows.transpose(0, 2, 1), w.layers)
    return state[-1][0]


def recurrent_lm_forward(ids: list[int], w: RecurrentWeights) -> np.ndarray:
    """Next-token logits per position (|V| x len), tied output head."""
    return tied_logits(unroll(embed(ids, w.embedding), w.layers)[0], w.embedding)


def recurrent_decoder(w: RecurrentWeights, total: int):
    """Next-token logits after the ids so far, one call per token; each call
    unrolls only the new ids from the state the last one left.  `total`
    needs no bound."""
    state, seen = None, 0

    def next_logits(ids):
        nonlocal state, seen
        h, state = unroll(embed(ids[seen:], w.embedding), w.layers, state)
        seen = len(ids)
        return tied_logits(h[:, -1], w.embedding)

    return next_logits


def _rnn_layer_vjp(x: np.ndarray, layer: RnnLayerWeights):
    """Elman layer over a d x T x B input from a zero state: the d x T x B
    outputs, and the backward pass from their gradient to the input's,
    which writes the layer's gradient into `g`."""
    d, length, batch = x.shape
    f = activation_fn(layer.activation)
    wx = (layer.w @ x.reshape(d, -1)).reshape(x.shape) + layer.b[:, None, None]
    h = np.empty(x.shape)
    h_t = np.zeros((d, batch))
    for t in range(length):
        h_t = h[:, t] = f(layer.u @ h_t + wx[:, t])

    def backward(d_h: np.ndarray, g: RnnLayerWeights) -> np.ndarray:
        slope = activation_derivative(layer.activation)(h)
        d_a = np.empty(h.shape)
        carry = np.zeros((d, batch))
        for t in range(length - 1, -1, -1):
            d_a[:, t] = (d_h[:, t] + carry) * slope[:, t]
            carry = layer.u.T @ d_a[:, t]
        flat = d_a.reshape(d, -1)
        g.w[...] = flat @ x.reshape(d, -1).T
        g.u[...] = d_a[:, 1:].reshape(d, -1) @ h[:, :-1].reshape(d, -1).T
        g.b[...] = flat.sum(axis=1)
        return (layer.w.T @ flat).reshape(x.shape)

    return h, backward


def _lstm_layer_vjp(x: np.ndarray, layer: LstmLayerWeights):
    """LSTM layer over a d x T x B input from a zero state, stepping with
    ``lstm_cell``'s step: the d x T x B outputs, and the backward pass from
    their gradient to the input's, which writes the layer's gradient into
    `g`."""
    d, length, batch = x.shape
    gates = np.empty((4 * d, length, batch))  # tanh(z) on the Q rows, sigmoid(z) below
    c, tanh_c, h = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    h_t = c_t = np.zeros((d, batch))
    for t in range(length):
        z, c_t, tanh_c[:, t], h_t = _lstm_step(h_t, c_t, x[:, t], layer)
        gates[:, t], c[:, t], h[:, t] = z, c_t, h_t

    def backward(d_h: np.ndarray, g: LstmLayerWeights) -> np.ndarray:
        q, p, r, s = gates.reshape(4, d, length, batch)
        slope = gates * (1.0 - gates)  # sigmoid'
        slope[:d] = 1.0 - gates[:d] * gates[:d]  # tanh'
        h_to_c = s * (1.0 - tanh_c * tanh_c)  # dh/dc at each step
        c_prev = np.concatenate((np.zeros((d, 1, batch)), c[:, :-1]), axis=1)
        d_z = np.empty(gates.shape)
        d_h_t = d_c_t = np.zeros((d, batch))
        for t in range(length - 1, -1, -1):
            d_h_t = d_h[:, t] + d_h_t
            d_c_t = d_h_t * h_to_c[:, t] + d_c_t
            d_z[:, t] = np.concatenate((d_c_t * r[:, t], d_c_t * c_prev[:, t],
                                        d_c_t * q[:, t], d_h_t * tanh_c[:, t])) * slope[:, t]
            d_h_t = layer.u.T @ d_z[:, t]
            d_c_t = d_c_t * p[:, t]
        flat = d_z.reshape(4 * d, -1)
        g.w[...] = flat @ x.reshape(d, -1).T
        g.u[...] = d_z[:, 1:].reshape(4 * d, -1) @ h[:, :-1].reshape(d, -1).T
        g.b[...] = flat.sum(axis=1)
        return (layer.w.T @ flat).reshape(x.shape)

    return h, backward


def recurrent_lm_vjp(ids, w: RecurrentWeights):
    """Next-token logits of B equal-length sequences, the columns of a
    len x B id matrix, and the backward pass.

    Logit column t * B + b follows ids[t, b], as in a d_e x len x B unroll
    flattened to d_e x (len * B).  ``backward(d_z, g)`` takes the loss's
    gradient in those |V| x (len * B) logits and writes its gradient in
    every parameter into `g`, a zeroed record built like `w`.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[0] < 1:
        raise SequenceLengthError(f"expected a nonempty len x B id matrix, got shape {ids.shape}")
    d = w.embedding.shape[0]
    x = embed(ids.reshape(-1), w.embedding).reshape((d,) + ids.shape)
    backwards = []
    for layer in w.layers:
        layer_vjp = _rnn_layer_vjp if isinstance(layer, RnnLayerWeights) else _lstm_layer_vjp
        x, back = layer_vjp(x, layer)
        backwards.append(back)
    top = x.reshape(d, -1)

    def backward(d_z: np.ndarray, g: RecurrentWeights) -> None:
        d_x = tied_logits_backward(top, w.embedding, d_z, g.embedding).reshape(x.shape)
        for back, g_layer in zip(backwards[::-1], g.layers[::-1]):
            d_x = back(d_x, g_layer)
        embed_backward(ids.reshape(-1), d_x.reshape(d, -1), g.embedding)

    return tied_logits(top, w.embedding), backward
