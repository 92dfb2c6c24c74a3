"""Transformer blocks and the decoder/encoder language models built on them.

Two block layouts are supported.  The post-norm block normalizes after
each sublayer:

    A = mha(H);  C = ln1(H + A);  D = ffn(C);  out = ln2(C + D)

the pre-norm block normalizes before each sublayer and keeps the residual
stream raw:

    A = mha(ln1(H));  C = H + A;  D = ffn(ln2(C));  out = C + D

The decoder LM pairs post-norm blocks with an input embedding norm, or
pre-norm blocks with that same norm moved to the transformer output.

``gpt2_hidden`` is the one decoder pass, which the forward pass, the
decoder, the trainer's batch and the window scorer all run.  A block
returns only the columns its mask queries (``attention.query_columns``),
and its residual and FFN run on those alone; with ``last_only`` the
final block queries each sequence's last column, all ``gpt2_windows``
reads.  The decoder decodes incrementally through a ``KVCache``: every
block keeps its heads' keys and values of the positions already seen, in
one stacked key array and one value array, so a call with a cache
computes only its new columns, whose keys and values it adds.  The new
queries attend over all cached positions through the matching rows of
the causal mask, one row per new column, and only those rows are built.
A full forward pass is the empty-cache case and needs no cache at all;
``gpt2_decoder`` keeps one cache for a whole generation.  Without a
cache ``gpt2_hidden`` also takes a len x B id matrix, B sequences side
by side in one pass: the trainer's chunks of a corpus, where the causal
mask keeps the padding after a chunk's last token out of its real
columns, or ``WINDOW_COLUMNS // n`` of ``gpt2_windows``' n-token windows.
Every pass takes its mask's rows and keys from the read-only max_len x
max_len one ``build_mask`` keeps, and attention reads only that mask.
``gpt2_forward``, ``gpt2_windows`` and ``bert_forward`` check their ids;
``gpt2_hidden`` runs on ids checked before, by the first two,
``generate_tokens`` or the trainer's ``_batch``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import AE_MODE, AR_MODE, AttentionCache, build_mask, multi_head_attention
from .attention import query_columns
from .embeddings import add_positions, checked_ids, checked_sequence, embed, tied_logits
from .errors import SequenceFormatError, SequenceLengthError
from .kernels import gelu, layer_norm
from .vocab import SEGMENT_A, TokenSequence, Vocabulary
from .weights import BertWeights, BlockWeights, Gpt2Weights

# Columns of windows one gpt2_windows pass stacks: bounds its working set.
WINDOW_COLUMNS = 256


def position_ffn(c: np.ndarray, w: BlockWeights, gelu_mode: str) -> np.ndarray:
    """Two-layer feedforward applied to every column in parallel."""
    hidden = w.ffn_w1 @ c
    hidden += w.ffn_b1[:, None]
    out = w.ffn_w2 @ gelu(hidden, gelu_mode)
    out += w.ffn_b2[:, None]
    return out


def transformer_block(h_in: np.ndarray, w: BlockWeights, mask: np.ndarray, variant: str,
                      gelu_mode: str, cache: AttentionCache | None) -> np.ndarray:
    """One block over h_in's sequences; returns their query columns. `cache`:
    its attention's keys and values."""
    if variant == "post":
        a = multi_head_attention(h_in, w.mha, mask, cache)
        c = layer_norm(query_columns(h_in, mask, cache) + a, w.ln1_gain, w.ln1_bias)
        d = position_ffn(c, w, gelu_mode)
        return layer_norm(c + d, w.ln2_gain, w.ln2_bias)
    if variant == "pre":
        a = multi_head_attention(layer_norm(h_in, w.ln1_gain, w.ln1_bias), w.mha, mask, cache)
        c = query_columns(h_in, mask, cache) + a
        d = position_ffn(layer_norm(c, w.ln2_gain, w.ln2_bias), w, gelu_mode)
        return c + d
    raise ValueError(f"unknown block variant {variant!r}; expected 'post' or 'pre'")


class KVCache:
    """Keys and values of every block's heads for the positions a decoder
    has seen: ``length`` rows of each head in a block's preallocated
    M x max_len x d_k key and M x max_len x d_v value arrays."""

    def __init__(self, w: Gpt2Weights):
        n_max = w.positions.shape[1]
        self.length = 0
        self.blocks = [AttentionCache(np.empty((len(b.mha.w_k), n_max, b.mha.w_k.shape[2])),
                                      np.empty((len(b.mha.w_v), n_max, b.mha.w_v.shape[2])))
                       for b in w.blocks]


def transformer_stack(h: np.ndarray, w: Gpt2Weights | BertWeights, mask: np.ndarray,
                      cache: KVCache | None = None, last_only: bool = False) -> np.ndarray:
    if last_only and not w.blocks:  # no final block to pick each sequence's last column
        return query_columns(h, mask[-1:], None)
    for l, block in enumerate(w.blocks):
        if last_only and l == len(w.blocks) - 1:
            mask = mask[-1:]  # each sequence's last column, whose row allows every key
        h = transformer_block(h, block, mask, w.norm_variant, w.gelu_mode,
                              None if cache is None else cache.blocks[l])
    return h


def gpt2_hidden(ids, w: Gpt2Weights, cache: KVCache | None = None,
                last_only: bool = False) -> np.ndarray:
    """Contextualized representations (d_e x len) of checked ids before the
    output head.

    A len x B id matrix holds B sequences, one per column, which run side
    by side through one pass; column t * B + b of the d_e x (len * B)
    result follows ids[t, b].  With `last_only` the final block queries
    each sequence's last column alone: column b of d_e x B follows ids[-1, b].
    With a cache, `ids` continues the ``cache.length`` positions in it:
    only its columns are computed, at the positions that follow, and their
    keys and values are added to the cache.
    """
    n_max = w.positions.shape[1]
    start = 0 if cache is None else cache.length
    end = start + len(ids)
    if not start < end <= n_max:
        raise SequenceLengthError(f"{end - start} ids after {start} do not fit maximum {n_max}")
    # copied contiguous: a strided slice made each block's scores += mask 2x as slow
    mask = np.ascontiguousarray(build_mask(n_max, AR_MODE, start)[:end - start, :end])
    x = w.embedding.take(np.transpose(ids), axis=1, mode="clip")  # d_e x B x len
    d = len(x)
    # the blocks take each sequence's columns side by side
    h = (x.reshape(d, -1, end - start) + w.positions[:, None, start:end]).reshape(d, -1)
    if w.norm_variant == "post":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    h = transformer_stack(h, w, mask, cache, last_only)
    if w.norm_variant == "pre":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    if cache is not None:
        cache.length = end
    return h if last_only else h.reshape(d, -1, end - start).transpose(0, 2, 1).reshape(d, -1)


def gpt2_decoder(w: Gpt2Weights, total: int):
    """Next-token logits after the ids so far, one call per token, for at
    most `total` ids; each call feeds only the ids the cache has not seen."""
    n_max = w.positions.shape[1]
    if total > n_max:
        raise SequenceLengthError(f"sequence length {total} exceeds maximum {n_max}")
    cache = KVCache(w)
    return lambda ids: tied_logits(gpt2_hidden(ids[cache.length:], w, cache)[:, -1], w.embedding)


def gpt2_windows(ids: list[int], n: int, w: Gpt2Weights) -> np.ndarray:
    """Logits after every n-token window, WINDOW_COLUMNS columns of windows per pass."""
    ids = checked_sequence(ids, w.embedding.shape[1], n)
    columns = sliding_window_view(ids, n).T  # n x windows
    per_pass = max(1, WINDOW_COLUMNS // n)
    return tied_logits(np.hstack([gpt2_hidden(columns[:, lo:lo + per_pass], w, last_only=True)
                                  for lo in range(0, columns.shape[1], per_pass)]), w.embedding)


def gpt2_forward(ids, w: Gpt2Weights) -> np.ndarray:
    """Next-token logits, one column per position (|V| x len).

    Column i conditions only on tokens 1..i (causal mask); the head is the
    tied embedding transpose.  A len x B id matrix gives |V| x (len * B)
    logits from one pass, column t * B + b following ids[t, b], the layout
    of ``recurrent_lm_vjp``: a sequence's padding after its last real token
    changes none of its real columns.
    """
    return tied_logits(gpt2_hidden(checked_ids(ids, w.embedding.shape[1]), w), w.embedding)


def segment_matrix(seq: TokenSequence, w: BertWeights) -> np.ndarray:
    """Expand the two per-sentence vectors into one column per position."""
    labels = [SEGMENT_A] * len(seq) if seq.segments is None else seq.segments
    return np.where(np.asarray(labels) == SEGMENT_A, w.seg_a[:, None], w.seg_b[:, None])


def bert_forward(seq: TokenSequence, w: BertWeights, vocab: Vocabulary) -> np.ndarray:
    """Bidirectional encoder representations H (d_e x len) of a sequence
    that starts with the vocabulary's [CLS] and ends with its [SEP]."""
    if vocab.cls_id is None or seq.ids[0] != vocab.cls_id:
        raise SequenceFormatError("sequence must start with [CLS]")
    if vocab.sep_id is None or seq.ids[-1] != vocab.sep_id:
        raise SequenceFormatError("sequence must end with [SEP]")
    x = add_positions(embed(seq.ids, w.embedding), w.positions, segment_matrix(seq, w))
    h0 = layer_norm(x, w.emb_norm_gain, w.emb_norm_bias)
    mask = build_mask(len(seq), AE_MODE)
    return transformer_stack(h0, w, mask)


def mlm_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Masked-token logits for every position (|V| x len)."""
    transformed = w.mlm_w @ h
    transformed += w.mlm_b[:, None]
    normed = layer_norm(gelu(transformed, w.gelu_mode), w.mlm_norm_gain, w.mlm_norm_bias)
    return tied_logits(normed, w.embedding, w.out_bias)


def nsp_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Two-way continuation logits from the [CLS] column alone."""
    pooled = np.tanh(w.pool_w @ h[:, 0] + w.pool_b)
    return w.nsp_w @ pooled + w.nsp_b
