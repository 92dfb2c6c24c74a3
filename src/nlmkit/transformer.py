"""Transformer blocks and the decoder/encoder language models built on them.

Two block layouts are supported.  The post-norm block normalizes after
each sublayer:

    A = mha(H);  C = ln1(H + A);  D = ffn(C);  out = ln2(C + D)

the pre-norm block normalizes before each sublayer and keeps the residual
stream raw:

    A = mha(ln1(H));  C = H + A;  D = ffn(ln2(C));  out = C + D

The decoder LM pairs post-norm blocks with an input embedding norm, or
pre-norm blocks with that same norm moved to the transformer output.
"""

from __future__ import annotations

import numpy as np

from .attention import AE_MODE, AR_MODE, build_mask, multi_head_attention
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
                      variant: str = "post", gelu_mode: str = "tanh") -> np.ndarray:
    if h_in.ndim != 2:
        raise ShapeError(f"block input must be 2-D, got ndim={h_in.ndim}")
    if variant == "post":
        a = multi_head_attention(h_in, w.mha, mask)
        c = layer_norm(h_in + a, w.ln1_gain, w.ln1_bias)
        d = position_ffn(c, w, gelu_mode)
        return layer_norm(c + d, w.ln2_gain, w.ln2_bias)
    if variant == "pre":
        a = multi_head_attention(layer_norm(h_in, w.ln1_gain, w.ln1_bias), w.mha, mask)
        c = h_in + a
        d = position_ffn(layer_norm(c, w.ln2_gain, w.ln2_bias), w, gelu_mode)
        return c + d
    raise ValueError(f"unknown block variant {variant!r}; expected 'post' or 'pre'")


def transformer_stack(h0: np.ndarray, blocks: list[BlockWeights], mask: np.ndarray,
                      variant: str = "post", gelu_mode: str = "tanh") -> np.ndarray:
    h = h0
    for block in blocks:
        h = transformer_block(h, block, mask, variant, gelu_mode)
    return h


def gpt2_hidden(seq: TokenSequence | list[int], w: Gpt2Weights) -> np.ndarray:
    """Contextualized representations (d_e x len) before the output head."""
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    n_max = w.positions.shape[1]
    if len(ids) > n_max:
        raise SequenceLengthError(f"sequence length {len(ids)} exceeds maximum {n_max}")
    h = add_positions(embed(ids, w.embedding), w.positions)
    if w.norm_variant == "post":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    mask = build_mask(len(ids), AR_MODE)
    h = transformer_stack(h, w.blocks, mask, w.norm_variant, w.gelu_mode)
    if w.norm_variant == "pre":
        h = layer_norm(h, w.emb_norm_gain, w.emb_norm_bias)
    return h


def gpt2_forward(seq: TokenSequence | list[int], w: Gpt2Weights) -> np.ndarray:
    """Next-token distributions, one column per position.

    Column i conditions only on tokens 1..i (causal mask); logits use the
    tied embedding transpose.
    """
    return softmax(tied_logits(gpt2_hidden(seq, w), w.embedding), axis=0)


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
    n_max = w.positions.shape[1]
    if len(seq) > n_max:
        raise SequenceLengthError(f"sequence length {len(seq)} exceeds maximum {n_max}")
    x = embed(seq.ids, w.embedding)
    h0 = layer_norm(x + w.positions[:, : len(seq)] + segment_matrix(seq, w),
                    w.emb_norm_gain, w.emb_norm_bias)
    mask = build_mask(len(seq), AE_MODE)
    return transformer_stack(h0, w.blocks, mask, w.norm_variant, w.gelu_mode)


def mlm_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Masked-token distributions for every position (|V| x len)."""
    transformed = gelu(w.mlm_w @ h + w.mlm_b[:, None], w.gelu_mode)
    normed = layer_norm(transformed, w.mlm_norm_gain, w.mlm_norm_bias)
    return softmax(tied_logits(normed, w.embedding, w.out_bias), axis=0)


def nsp_head(h: np.ndarray, w: BertWeights) -> np.ndarray:
    """Two-way continuation distribution from the [CLS] column alone."""
    pooled = np.tanh(w.pool_w @ h[:, 0] + w.pool_b)
    return softmax(w.nsp_w @ pooled + w.nsp_b)


def greedy_decode(prompt: TokenSequence | list[int], w: Gpt2Weights, steps: int) -> list[int]:
    """Append the argmax continuation token `steps` times.

    Ties break toward the lowest id; the prompt plus all generated tokens
    must fit within the positional table.
    """
    ids = list(prompt.ids if isinstance(prompt, TokenSequence) else prompt)
    n_max = w.positions.shape[1]
    if len(ids) + steps > n_max:
        raise SequenceLengthError(
            f"prompt length {len(ids)} plus {steps} steps exceeds maximum {n_max}"
        )
    for _ in range(steps):
        probs = gpt2_forward(ids, w)
        ids.append(int(np.argmax(probs[:, -1])))
    return ids
