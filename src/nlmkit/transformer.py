"""Transformer blocks and the decoder/encoder language models built on them.

Two block layouts are supported.  The post-norm block normalizes after
each sublayer:

    A = mha(H);  C = ln1(H + A);  D = ffn(C);  out = ln2(C + D)

the pre-norm block normalizes before each sublayer and keeps the residual
stream raw:

    A = mha(ln1(H));  C = H + A;  D = ffn(ln2(C));  out = C + D

The decoder LM pairs post-norm blocks with an input embedding norm, or
pre-norm blocks with that same norm moved to the transformer output.

The decoder decodes incrementally through a ``KVCache``: every head keeps
the keys and values of the positions already seen, so a call with a cache
computes only its new columns.  The new queries attend over all cached
positions through the matching rows of the causal mask.  A full forward
pass is the empty-cache case and needs no cache at all.
"""

from __future__ import annotations

import numpy as np

from .attention import AE_MODE, AR_MODE, HeadCache, build_mask, multi_head_attention
from .embeddings import add_positions, embed, tied_logits
from .errors import SequenceFormatError, SequenceLengthError, ShapeError
from .kernels import gelu, layer_norm, softmax
from .vocab import SEGMENT_A, TokenSequence, Vocabulary
from .weights import BertWeights, BlockWeights, Gpt2Weights


def position_ffn(c: np.ndarray, w: BlockWeights, gelu_mode: str) -> np.ndarray:
    """Two-layer feedforward applied to every column in parallel."""
    hidden = gelu(w.ffn_w1 @ c + w.ffn_b1[:, None], gelu_mode)
    return w.ffn_w2 @ hidden + w.ffn_b2[:, None]


def transformer_block(h_in: np.ndarray, w: BlockWeights, mask: np.ndarray,
                      variant: str = "post", gelu_mode: str = "tanh",
                      cache: list[HeadCache] | None = None) -> np.ndarray:
    """One block over the columns of h_in; `cache` holds the block's heads' caches."""
    if h_in.ndim != 2:
        raise ShapeError(f"block input must be 2-D, got ndim={h_in.ndim}")
    if variant == "post":
        a = multi_head_attention(h_in, w.mha, mask, cache)
        c = layer_norm(h_in + a, w.ln1_gain, w.ln1_bias)
        d = position_ffn(c, w, gelu_mode)
        return layer_norm(c + d, w.ln2_gain, w.ln2_bias)
    if variant == "pre":
        a = multi_head_attention(layer_norm(h_in, w.ln1_gain, w.ln1_bias), w.mha, mask, cache)
        c = h_in + a
        d = position_ffn(layer_norm(c, w.ln2_gain, w.ln2_bias), w, gelu_mode)
        return c + d
    raise ValueError(f"unknown block variant {variant!r}; expected 'post' or 'pre'")


class KVCache:
    """Keys and values of every block and head for the positions a decoder
    has seen: ``length`` rows of each preallocated max_len-row HeadCache."""

    def __init__(self, w: Gpt2Weights):
        n_max = w.positions.shape[1]
        self.length = 0
        self.blocks = [[HeadCache(np.empty((n_max, head.w_k.shape[1])),
                                  np.empty((n_max, head.w_v.shape[1])))
                        for head in block.mha.heads] for block in w.blocks]


def transformer_stack(h0: np.ndarray, blocks: list[BlockWeights], mask: np.ndarray,
                      variant: str = "post", gelu_mode: str = "tanh",
                      cache: KVCache | None = None) -> np.ndarray:
    h = h0
    for l, block in enumerate(blocks):
        h = transformer_block(h, block, mask, variant, gelu_mode,
                              None if cache is None else cache.blocks[l])
    return h


def gpt2_hidden(seq: TokenSequence | list[int], w: Gpt2Weights,
                cache: KVCache | None = None) -> np.ndarray:
    """Contextualized representations (d_e x len) before the output head.

    With a cache, `seq` continues the ``cache.length`` positions already in
    it: only its columns are computed, at the positions that follow, and
    their keys and values are added to the cache.
    """
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    n_max = w.positions.shape[1]
    start = 0 if cache is None else cache.length
    end = start + len(ids)
    if end > n_max:
        raise SequenceLengthError(f"sequence length {end} exceeds maximum {n_max}")
    h = add_positions(embed(ids, w.embedding), w.positions[:, start:])
    if w.norm_variant == "post":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    mask = build_mask(end, AR_MODE)[start:]
    h = transformer_stack(h, w.blocks, mask, w.norm_variant, w.gelu_mode, cache)
    if w.norm_variant == "pre":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    if cache is not None:
        cache.length = end
    return h


def gpt2_forward(seq: TokenSequence | list[int], w: Gpt2Weights) -> np.ndarray:
    """Next-token logits, one column per position (|V| x len).

    Column i conditions only on tokens 1..i (causal mask); the head is the
    tied embedding transpose.
    """
    return tied_logits(gpt2_hidden(seq, w), w.embedding)


def segment_matrix(seq: TokenSequence, w: BertWeights) -> np.ndarray:
    """Expand the two per-sentence vectors into one column per position."""
    if seq.segments is None:
        labels = [SEGMENT_A] * len(seq)
    else:
        labels = seq.segments
    cols = [w.seg_a if s == SEGMENT_A else w.seg_b for s in labels]
    return np.column_stack(cols)


def bert_forward(seq: TokenSequence, w: BertWeights, vocab: Vocabulary | None = None) -> np.ndarray:
    """Bidirectional encoder representations H (d_e x len).

    The sequence must start with [CLS] and end with [SEP]; when a
    vocabulary is supplied those ids are checked explicitly, otherwise the
    caller vouches for the format.
    """
    if vocab is not None:
        if vocab.cls_id is None or seq.ids[0] != vocab.cls_id:
            raise SequenceFormatError("sequence must start with [CLS]")
        if vocab.sep_id is None or seq.ids[-1] != vocab.sep_id:
            raise SequenceFormatError("sequence must end with [SEP]")
    x = add_positions(embed(seq.ids, w.embedding), w.positions, segment_matrix(seq, w))
    h0 = layer_norm(x, w.emb_norm_gain, w.emb_norm_bias)
    mask = build_mask(len(seq), AE_MODE)
    return transformer_stack(h0, w.blocks, mask, w.norm_variant, w.gelu_mode)


def mlm_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Masked-token logits for every position (|V| x len)."""
    transformed = gelu(w.mlm_w @ h + w.mlm_b[:, None], w.gelu_mode)
    normed = layer_norm(transformed, w.mlm_norm_gain, w.mlm_norm_bias)
    return tied_logits(normed, w.embedding, w.out_bias)


def nsp_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Two-way continuation distribution from the [CLS] column alone."""
    pooled = np.tanh(w.pool_w @ h[:, 0] + w.pool_b)
    return softmax(w.nsp_w @ pooled + w.nsp_b)


def greedy_decode(prompt: TokenSequence | list[int], w: Gpt2Weights, steps: int) -> list[int]:
    """Append the argmax continuation token `steps` times.

    Ties break toward the lowest id; the prompt plus all generated tokens
    must fit within the positional table.  The first step runs the prompt
    through a KV cache in one pass; every later step feeds only the token
    just chosen.
    """
    ids = list(prompt.ids if isinstance(prompt, TokenSequence) else prompt)
    n_max = w.positions.shape[1]
    if len(ids) + steps > n_max:
        raise SequenceLengthError(
            f"prompt length {len(ids)} plus {steps} steps exceeds maximum {n_max}"
        )
    cache = KVCache(w)
    new = ids
    for _ in range(steps):
        h = gpt2_hidden(new, w, cache)
        ids.append(int(np.argmax(tied_logits(h[:, -1], w.embedding))))
        new = ids[-1:]
    return ids
