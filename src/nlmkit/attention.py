"""Attention masks, single heads, and multi-head attention.

Sequences are matrices with one column per position (d_e x n), or several
such side by side.  A head maps the query columns (``query_columns``: the
last mask.shape[0] of each sequence) to one *row* each of a d_v-wide
matrix; multi-head attention concatenates the head outputs side by side
and projects back, transposing to d_e rows again.  Only the score and
value-mixing matmuls see the sequences apart.  Incremental decoding passes
a per-head ``HeadCache`` holding the keys and values of earlier positions.
Then x is one sequence of new columns, a mask row each, whose keys and
values are written after the cached ones; the mask's width is the number
of keys once they are added.  A head's softmax takes the mask's allowed
entries (``kernels.exp_allowed``), built once per pass beside the mask, or
None to exponentiate every score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SequenceLengthError, ShapeError
from .kernels import as_matrix, softmax
from .weights import HeadWeights, MultiHeadWeights

AR_MODE = "AR"
AE_MODE = "AE"


def build_mask(length: int, mode: str, first: int = 0) -> np.ndarray:
    """Additive attention mask: 0 where allowed, -inf where forbidden.

    AR mode forbids every position to the right of the query (strict
    upper triangle); AE mode allows everything.  Only the rows of queries
    first..length-1 are built, each `length` keys wide.
    """
    if length < 1:
        raise SequenceLengthError(f"mask length must be >= 1, got {length}")
    if not 0 <= first < length:
        raise SequenceLengthError(f"a mask of {length} keys has no query row from row {first}")
    if mode == AE_MODE:
        return np.zeros((length - first, length))
    if mode == AR_MODE:
        return np.where(np.tri(length - first, length, first, dtype=bool), 0.0, -np.inf)
    raise ValueError(f"unknown mask mode {mode!r}; expected 'AR' or 'AE'")


@dataclass
class HeadCache:
    """Keys (max_len x d_k) and values (max_len x d_v) of one head, one row
    per position, preallocated to the model's maximum length."""

    k: np.ndarray
    v: np.ndarray


def _extend(store: np.ndarray, rows: np.ndarray, total: int) -> np.ndarray:
    """Write `rows` as rows [total - len(rows), total) of `store`; return its first `total` rows."""
    store[total - rows.shape[0]:total] = rows
    return store[:total]


def query_columns(x: np.ndarray, mask: np.ndarray, cache: HeadCache | None) -> np.ndarray:
    """The columns of x that the rows of `mask` query: the last mask.shape[0]
    of each sequence, mask.shape[1] wide without a cache; with one, x is a
    single sequence of new columns and the mask has a row for each."""
    rows, keys = mask.shape
    n = keys if cache is None else x.shape[1]  # columns per sequence
    if not (1 <= rows <= n <= keys and x.shape[1] and x.shape[1] % n == 0) or (
            cache is not None and (rows != n or keys > cache.k.shape[0])):
        raise ShapeError(f"mask shape {mask.shape} does not fit {x.shape[1]} columns or the cache")
    return x if rows == n else x.reshape(len(x), -1, n)[:, :, n - rows:].reshape(len(x), -1)


def attention_scores(x: np.ndarray, w: HeadWeights, mask: np.ndarray,
                     cache: HeadCache | None) -> np.ndarray:
    """Masked, scaled query-key scores, (B*r) x keys for B sequences and an r x
    keys mask: one row per query, against its own sequence's keys or, with a
    cache, all `keys` cached rows, the keys of x stored as the last of them."""
    x = as_matrix(x)
    mask = as_matrix(mask)
    if x.shape[0] != w.w_q.shape[0]:
        raise ShapeError(f"sequence rows {x.shape[0]} != projection rows {w.w_q.shape[0]}")
    (rows, keys), d_k = mask.shape, w.w_q.shape[1]
    q = query_columns(x, mask, cache).T @ w.w_q  # B*r x d_k, one query per row
    k = x.T @ w.w_k
    if w.b_q is not None:
        q += w.b_q
    if w.b_k is not None:
        k += w.b_k
    if cache is not None:
        k = _extend(cache.k, k, keys)
    if len(q) == rows:  # one sequence: 2-D matmuls spare small calls the reshapes' cost
        scores = q @ k.T
    else:
        scores = q.reshape(-1, rows, d_k) @ k.reshape(-1, keys, d_k).transpose(0, 2, 1)
    scores /= math.sqrt(d_k)
    scores += mask  # broadcasts over the sequences of a B x rows x keys stack
    return scores.reshape(-1, keys)


def self_attention_head(x: np.ndarray, w: HeadWeights, mask: np.ndarray,
                        cache: HeadCache | None, allowed: np.ndarray | None) -> np.ndarray:
    """One attention head: weighted value sums per query; returns (B*r) x d_v.
    `allowed`: the mask's ``exp_allowed`` entries."""
    x = as_matrix(x)
    v = x.T @ w.w_v
    if w.b_v is not None:
        v += w.b_v
    scores = attention_scores(x, w, mask, cache)
    if cache is not None:
        v = _extend(cache.v, v, scores.shape[1])
    weights, keys = softmax(scores, axis=1, allowed=allowed, overwrite=True), scores.shape[1]
    if len(weights) == len(mask):  # one sequence, as in attention_scores
        return weights @ v
    mixed = weights.reshape(-1, len(mask), keys) @ v.reshape(-1, keys, v.shape[1])
    return mixed.reshape(-1, v.shape[1])


def multi_head_attention(x: np.ndarray, w: MultiHeadWeights, mask: np.ndarray,
                         cache: list[HeadCache] | None,
                         allowed: np.ndarray | None) -> np.ndarray:
    """Concatenate head outputs (head m occupies columns [m*d_v, (m+1)*d_v))
    and project back to the embedding space; returns d_e x (B*r), the
    query columns' outputs.  `cache`, if given, holds one HeadCache per head;
    `allowed` is the mask's ``exp_allowed`` entries."""
    caches = [None] * len(w.heads) if cache is None else cache
    concat = np.hstack([self_attention_head(x, head, mask, c, allowed)
                        for head, c in zip(w.heads, caches)])
    if concat.shape[1] != w.w_o.shape[0]:
        raise ShapeError(
            f"concatenated head width {concat.shape[1]} != output projection rows {w.w_o.shape[0]}"
        )
    out = concat @ w.w_o
    if w.b_o is not None:
        out += w.b_o
    return out.T
