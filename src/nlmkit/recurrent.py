"""Elman RNN and LSTM cells, time unrolling, and the recurrent LM.

States start at zero.  An LSTM layer is stored stacked, the form every pass
runs: its gate blocks Q, P, R, S, in update order, as a 4d x d U and W and a
4d b (archive tensors ``lstm.l{l}.U``, ``.W`` and ``.b``), gate k in rows
[k d, (k + 1) d).  All layers share the embedding width, and the output head
reuses the transposed embedding matrix (weight tying).

A cell takes its layer's input term W x + b and adds U h, for one state
vector or a d x B matrix that advances B sequences at once, one column
each.  The LSTM takes its four gates from one ``np.tanh`` over the stacked
pre-activation, each sigmoid gate in ``kernels.sigmoid``'s form
0.5 tanh(0.5 z) + 0.5, within 2.3e-16 of the logistic function.

``unroll`` runs one sequence layer by layer, each layer's input terms for
all steps in one stacked product that rounds each step as W x_t alone
(one W @ X GEMM is cheaper, but OpenBLAS rounds a column of it apart for
other widths of X): at perfbench's `score` lstm, 8 to 15% faster than
stepping all layers per token, 7.5% off request_p50_ms (2-vCPU Xeon).
``recurrent_windows`` and ``recurrent_decoder`` step all layers per step:
over 64 windows, a layer-major loop took 5 to 16% longer.
``unroll`` checks its input and weights once per call, ``recurrent_decoder``
once when built; the decoder carries the ``(h, c)`` state on from token to
token, and it and ``recurrent_lm_vjp`` take ids checked before.
``recurrent_windows`` projects each position once, in one product over the
ids that every window's steps read, not once per window holding it: at
perfbench's `incremental` lstm, 7 MFLOP of bottom-layer input work instead
of 200, and a 13% lower request_tail_ms.

``recurrent_lm_vjp`` runs the model over a batch of equal-length sequences
and returns its backward pass with the logits: backpropagation through
time, layer by layer from the top (step by step, the tiny-rnn training
step took 22% longer).  It keeps every step's state, so only ``U h``
forward and ``U^T dz`` backward run per step: each layer returns dz, and
one tail for both cells makes the weight and input gradients from it, one
matrix product each over every step.  The layers step through
``lstm_cell`` and ``rnn_cell``: the LSTM with ``unroll``'s input terms, so
one sequence's states are bitwise ``unroll``'s, the Elman layer with W x + b
added for all steps at once.
"""

from __future__ import annotations

import functools

import numpy as np

from .embeddings import checked_sequence, embed, embed_backward, tied_logits, tied_logits_backward
from .errors import SequenceLengthError, ShapeError
from .kernels import ACTIVATIONS
from .weights import LstmLayerWeights, RecurrentWeights, RnnLayerWeights


def rnn_cell(h_prev: np.ndarray, wx: np.ndarray, w: RnnLayerWeights) -> np.ndarray:
    """One unchecked Elman step from the layer's input term wx = W x + b,
    for a state vector or a d x B matrix of states."""
    return ACTIVATIONS[w.activation][0](w.u @ h_prev + wx)


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


def lstm_cell(h_prev: np.ndarray, c_prev: np.ndarray, wx: np.ndarray,
              layer: LstmLayerWeights):
    """One unchecked LSTM step from the layer's stacked input term
    wx = W x + b, for state vectors or d x B state matrices: the 4d gate
    rows, the new context c, tanh(c) and the new hidden state.

    One ``U h + wx`` feeds all four gates, and one ``np.tanh`` over it,
    in place, makes them: tanh on its Q rows, and the sigmoid
    0.5 tanh(0.5 z) + 0.5 on its P, R and S rows (halving is exact).  Every
    gate lies in [0, 1] for finite inputs: a sigmoid gate is exactly 0 below
    about z = -38, where the logistic function is under 1e-16, and exactly 1
    above about z = 37.
    """
    d = h_prev.shape[0]
    z = layer.u @ h_prev
    z += wx
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


def _product(layer, x: np.ndarray) -> np.ndarray:
    """A layer's input term W x + b for a d-vector or d x B matrix x, or each
    step's for a T x d x B stack: one stacked product, each step rounded as alone."""
    wx = layer.w @ x
    # a (d,) bias would add along the rows of a d x B matrix, so give it a column axis
    wx += layer.b if x.ndim == 1 else layer.b[:, None]
    return wx


def _checked_state(shape: tuple, layers: list) -> tuple[list, list]:
    """Per-layer zero h and c states of `shape` (d or d x B), once every
    layer's weights are checked against it."""
    if not layers:
        raise SequenceLengthError("a recurrent pass requires at least one layer")
    d = shape[0]
    for l, layer in enumerate(layers):
        rows = 4 * d if isinstance(layer, LstmLayerWeights) else d
        if layer.u.shape != (rows, d) or layer.w.shape != (rows, d) or layer.b.shape != (rows,):
            raise ShapeError(f"layer {l + 1} does not fit states of shape {shape}: "
                             f"U {layer.u.shape}, W {layer.w.shape}, b {layer.b.shape}")
    zero = np.zeros(shape)  # cells never write into their inputs, so one serves all
    return [zero] * len(layers), [zero] * len(layers)


def _steps(bottom, layers: list, h_state: list, c_state: list) -> None:
    """Advance the per-layer states in place, one step through every layer
    per bottom-layer input term that `bottom` yields."""
    lstm = [isinstance(layer, LstmLayerWeights) for layer in layers]
    for wx in bottom:
        for l, layer in enumerate(layers):
            if l:
                wx = _product(layer, x)
            if lstm[l]:
                _, c_state[l], _, x = lstm_cell(h_state[l], c_state[l], wx, layer)
            else:
                x = rnn_cell(h_state[l], wx, layer)
            h_state[l] = x


def unroll(seq_embeddings: np.ndarray, layers: list) -> np.ndarray:
    """Run the recurrent layers, bottom first, over one d_e x len sequence
    from the zero state; returns the top layer's outputs, d_e x len.

    Layer by layer, each from one stacked ``_product`` of its inputs: an
    ``RnnLayerWeights`` layer runs the Elman cell, an ``LstmLayerWeights``
    layer the LSTM cell.  Column i depends only on input columns <= i, by
    construction.  All shapes are checked once, before the first step.
    """
    if seq_embeddings.ndim != 2 or seq_embeddings.shape[1] < 1:
        raise SequenceLengthError("unroll requires a nonempty d_e x len input")
    h_state, c_state = _checked_state(seq_embeddings.shape[:1], layers)
    x = seq_embeddings
    for layer, h_t, c_t in zip(layers, h_state, c_state):
        x, wx = np.empty(x.shape), _product(layer, x.T[:, :, None])[:, :, 0]
        for t in range(len(wx)):
            if isinstance(layer, LstmLayerWeights):
                _, c_t, _, h_t = lstm_cell(h_t, c_t, wx[t], layer)
            else:
                h_t = rnn_cell(h_t, wx[t], layer)
            x[:, t] = h_t
    return x


def recurrent_windows(ids: list[int], n: int, w: RecurrentWeights) -> np.ndarray:
    """Top-layer hidden state after every n-token window ids[s:s+n], one
    column per window (d_e x (len(ids) - n + 1)).  The windows advance side
    by side, and step i of each reads column i of its window in one
    bottom-layer product over all the ids."""
    ids = checked_sequence(ids, w.embedding.shape[1], n)
    count = len(ids) - n + 1
    h_state, c_state = _checked_state((w.embedding.shape[0], count), w.layers)
    wx = _product(w.layers[0], w.embedding.take(ids, axis=1, mode="clip"))
    _steps((wx[:, i:i + count] for i in range(n)), w.layers, h_state, c_state)
    return h_state[-1]


def recurrent_lm_forward(ids: list[int], w: RecurrentWeights) -> np.ndarray:
    """Next-token logits per position (|V| x len), tied output head."""
    return tied_logits(unroll(embed(ids, w.embedding), w.layers), w.embedding)


def recurrent_decoder(w: RecurrentWeights, total: int):
    """Next-token logits after the checked ids so far, one call per token;
    each call steps only the new ids on from the state the last one left.
    The weights are checked once, here; `total` needs no bound."""
    h_state, c_state = _checked_state(w.embedding.shape[:1], w.layers)
    seen = 0

    def next_logits(ids):
        nonlocal seen
        x, seen = w.embedding.take(ids[seen:], axis=1, mode="clip"), len(ids)
        _steps((_product(w.layers[0], x_t) for x_t in x.T), w.layers, h_state, c_state)
        return tied_logits(h_state[-1], w.embedding)

    return next_logits


def _rnn_layer_vjp(x: np.ndarray, layer: RnnLayerWeights):
    """Elman layer over a d x T x B input from a zero state, stepping with
    ``rnn_cell``: the d x T x B outputs, and the map from their gradient to
    that of the pre-activation U h + W x + b at every step."""
    d, length, batch = x.shape
    wx = (layer.w @ x.reshape(d, -1)).reshape(x.shape) + layer.b[:, None, None]
    h = np.empty(x.shape)
    h_t = np.zeros((d, batch))
    for t in range(length):
        h_t = h[:, t] = rnn_cell(h_t, wx[:, t], layer)

    def backward(d_h: np.ndarray) -> np.ndarray:
        slope = ACTIVATIONS[layer.activation][1](h)
        d_a = np.empty(h.shape)
        carry = np.zeros((d, batch))
        for t in range(length - 1, -1, -1):
            d_a[:, t] = (d_h[:, t] + carry) * slope[:, t]
            carry = layer.u.T @ d_a[:, t]
        return d_a

    return h, backward


def _lstm_layer_vjp(x: np.ndarray, layer: LstmLayerWeights):
    """LSTM layer over a d x T x B input from a zero state, stepping with
    ``lstm_cell``: the d x T x B outputs, and the map from their gradient to
    that of the 4d stacked pre-activation U h + W x + b at every step."""
    d, length, batch = x.shape
    gates = np.empty((4 * d, length, batch))  # tanh(z) on the Q rows, sigmoid(z) below
    c, tanh_c, h = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    h_t = c_t = np.zeros((d, batch))
    for t, wx in enumerate(_product(layer, x.transpose(1, 0, 2))):
        z, c_t, tanh_c[:, t], h_t = lstm_cell(h_t, c_t, wx, layer)
        gates[:, t], c[:, t], h[:, t] = z, c_t, h_t

    def backward(d_h: np.ndarray) -> np.ndarray:
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
        return d_z

    return h, backward


def recurrent_lm_vjp(ids, w: RecurrentWeights):
    """Next-token logits of B equal-length sequences, the columns of a
    len x B matrix of checked ids, and the backward pass.

    Logit column t * B + b follows ids[t, b], as the d_e x len x B top-layer
    outputs flattened to d_e x (len * B).  ``backward(d_z, g)`` takes the loss's
    gradient in those |V| x (len * B) logits and writes its gradient in
    every parameter into `g`, a zeroed record built like `w`.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[0] < 1:
        raise SequenceLengthError(f"expected a nonempty len x B id matrix, got shape {ids.shape}")
    d = w.embedding.shape[0]
    x = w.embedding.take(ids, axis=1, mode="clip")
    passes = []  # each layer's input, outputs and pre-activation gradient map
    for layer in w.layers:
        layer_vjp = _rnn_layer_vjp if isinstance(layer, RnnLayerWeights) else _lstm_layer_vjp
        h, back = layer_vjp(x, layer)
        passes.append((x, h, back))
        x = h
    top = x.reshape(d, -1)

    def backward(d_z: np.ndarray, g: RecurrentWeights) -> None:
        d_x = tied_logits_backward(top, w.embedding, d_z, g.embedding).reshape(x.shape)
        for (x_in, h, back), layer, g_layer in zip(passes[::-1], w.layers[::-1], g.layers[::-1]):
            d_a = back(d_x)  # d rows, or 4d stacked: the weights' row count
            flat = d_a.reshape(len(d_a), -1)
            g_layer.w[...] = flat @ x_in.reshape(d, -1).T
            g_layer.u[...] = d_a[:, 1:].reshape(len(d_a), -1) @ h[:, :-1].reshape(d, -1).T
            g_layer.b[...] = flat.sum(axis=1)
            d_x = (layer.w.T @ flat).reshape(x_in.shape)
        embed_backward(ids.reshape(-1), d_x.reshape(d, -1), g.embedding)

    return tied_logits(top, w.embedding), backward
