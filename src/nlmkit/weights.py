"""Trainable-parameter containers for every architecture.

Each architecture has a structured dataclass (used by the forward passes)
plus a flat named-tensor view (used by serialization, parameter audits,
and the finite-difference trainer).  The two share the same underlying
arrays: mutating ``weights.named_tensors()["blk1.WO"]`` is visible to the
next forward call.

Tensor names are dotted paths such as ``blk2.h1.WQ`` (block 2, head 1,
query projection); layer and head indices are 1-based.  Each architecture
has one builder in ``BUILDERS``.  It names every tensor once, asking
``t(name, *shape)`` for its array in canonical order (Python evaluates call
arguments left to right), and returns the structured weights.
``tensor_layout``, ``assemble_weights``, ``init_weights`` and
``zeros_weights`` differ only in where ``t`` gets the arrays from.  Adding
an architecture means adding its builder to ``BUILDERS``.

Weight initialization draws from a Philox counter-based generator
(identifier "philox-4x64-10"), uniform on (-0.05, 0.05), one tensor at a
time in canonical order, so a seed fully determines every bit of the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, ShapeError

INIT_GENERATOR = "philox-4x64-10"
INIT_LOW, INIT_HIGH = -0.05, 0.05


@dataclass
class HeadWeights:
    """Projections of one attention head; biases present only when zeta=1."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray | None = None
    b_k: np.ndarray | None = None
    b_v: np.ndarray | None = None


@dataclass
class MultiHeadWeights:
    heads: list[HeadWeights]
    w_o: np.ndarray
    b_o: np.ndarray | None = None


@dataclass
class BlockWeights:
    mha: MultiHeadWeights
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class _TensorBacked:
    """Mixin storing the flat name -> array view alongside the structure."""

    _tensors: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Flat ordered view sharing storage with the structured fields."""
        return self._tensors


def named_tensor_view(weights) -> dict[str, np.ndarray]:
    """Flat name -> array view of structured weights (or a plain dict)."""
    if hasattr(weights, "named_tensors"):
        return weights.named_tensors()
    if isinstance(weights, dict):
        return weights
    raise TypeError(f"cannot view {type(weights).__name__} as named tensors")


@dataclass
class FfnnLayer:
    w: np.ndarray
    b: np.ndarray
    activation: str


@dataclass
class FfnnWeights(_TensorBacked):
    """Untied feedforward LM: embeddings, dense layers, output projection."""

    embedding: np.ndarray = None
    layers: list[FfnnLayer] = None
    output: np.ndarray = None
    context_width: int = 0


@dataclass
class RnnLayerWeights:
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    activation: str = "tanh"


@dataclass
class RnnWeights(_TensorBacked):
    embedding: np.ndarray = None
    layers: list[RnnLayerWeights] = None


@dataclass
class LstmLayerWeights:
    """Four gate blocks; order matches the update sequence Q, P, R, S."""

    u_q: np.ndarray
    w_q: np.ndarray
    b_q: np.ndarray
    u_p: np.ndarray
    w_p: np.ndarray
    b_p: np.ndarray
    u_r: np.ndarray
    w_r: np.ndarray
    b_r: np.ndarray
    u_s: np.ndarray
    w_s: np.ndarray
    b_s: np.ndarray


@dataclass
class LstmWeights(_TensorBacked):
    embedding: np.ndarray = None
    layers: list[LstmLayerWeights] = None


@dataclass
class Gpt2Weights(_TensorBacked):
    """Decoder LM with tied embeddings.

    With norm_variant="post" the (emb_norm_gain, emb_norm_bias) pair
    normalizes the input embeddings; with "pre" it normalizes the
    transformer output instead.
    """

    embedding: np.ndarray = None
    positions: np.ndarray = None
    emb_norm_gain: np.ndarray = None
    emb_norm_bias: np.ndarray = None
    blocks: list[BlockWeights] = None
    norm_variant: str = "pre"
    gelu_mode: str = "tanh"


@dataclass
class BertWeights(_TensorBacked):
    """Encoder backbone plus MLM head, pooler, and detachable NSP head."""

    embedding: np.ndarray = None
    positions: np.ndarray = None
    seg_a: np.ndarray = None
    seg_b: np.ndarray = None
    emb_norm_gain: np.ndarray = None
    emb_norm_bias: np.ndarray = None
    blocks: list[BlockWeights] = None
    mlm_w: np.ndarray = None
    mlm_b: np.ndarray = None
    mlm_norm_gain: np.ndarray = None
    mlm_norm_bias: np.ndarray = None
    out_bias: np.ndarray = None
    pool_w: np.ndarray = None
    pool_b: np.ndarray = None
    nsp_w: np.ndarray = None
    nsp_b: np.ndarray = None
    norm_variant: str = "post"
    gelu_mode: str = "tanh"


AnyWeights = FfnnWeights | RnnWeights | LstmWeights | Gpt2Weights | BertWeights


def _block(cfg: ModelConfig, t, p: str) -> BlockWeights:
    d_e, d_k, d_v = cfg.d_e, cfg.d_k, cfg.d_v

    def bias(name, width):  # attention biases exist only when zeta=1
        return t(name, width) if cfg.zeta else None

    heads = [HeadWeights(t(f"{h}WQ", d_e, d_k), t(f"{h}WK", d_e, d_k), t(f"{h}WV", d_e, d_v),
                         bias(f"{h}bQ", d_k), bias(f"{h}bK", d_k), bias(f"{h}bV", d_v))
             for h in (f"{p}.h{m}." for m in range(1, cfg.M + 1))]
    mha = MultiHeadWeights(heads, t(f"{p}.WO", cfg.M * d_v, d_e), bias(f"{p}.bO", d_e))
    return BlockWeights(mha, ln1_gain=t(f"{p}.ln1G", d_e), ln1_bias=t(f"{p}.ln1B", d_e),
                        ffn_w1=t(f"{p}.ffn.W1", cfg.d_f, d_e), ffn_b1=t(f"{p}.ffn.b1", cfg.d_f),
                        ffn_w2=t(f"{p}.ffn.W2", d_e, cfg.d_f), ffn_b2=t(f"{p}.ffn.b2", d_e),
                        ln2_gain=t(f"{p}.ln2G", d_e), ln2_bias=t(f"{p}.ln2B", d_e))


def _embedding(cfg: ModelConfig, t) -> np.ndarray:
    return t("emb.E", cfg.d_e, cfg.vocab_size)


def _transformer(cfg: ModelConfig, t, segments: bool) -> dict:
    """Fields shared by the decoder and the encoder, segment vectors optional."""
    d_e = cfg.d_e
    fields = dict(embedding=_embedding(cfg, t), positions=t("emb.pos", d_e, cfg.max_len))
    if segments:
        fields.update(seg_a=t("emb.segA", d_e), seg_b=t("emb.segB", d_e))
    fields.update(emb_norm_gain=t("emb.lnG", d_e), emb_norm_bias=t("emb.lnB", d_e),
                  blocks=[_block(cfg, t, f"blk{l}") for l in range(1, cfg.L + 1)],
                  norm_variant=cfg.norm_variant, gelu_mode=cfg.gelu_mode)
    return fields


def _ffnn(cfg: ModelConfig, t) -> FfnnWeights:
    embedding = t("ffnn.E", cfg.d_e, cfg.vocab_size)
    layers, width_in = [], cfg.max_len * cfg.d_e
    for l, width in enumerate(cfg.hidden_dims, start=1):
        layers.append(FfnnLayer(t(f"ffnn.W{l}", width, width_in), t(f"ffnn.b{l}", width),
                                cfg.activation))
        width_in = width
    return FfnnWeights(embedding=embedding, layers=layers,
                       output=t("ffnn.U", cfg.vocab_size, width_in), context_width=cfg.max_len)


def _rnn(cfg: ModelConfig, t) -> RnnWeights:
    d = cfg.d_e
    return RnnWeights(embedding=_embedding(cfg, t), layers=[
        RnnLayerWeights(t(f"rnn.l{l}.W", d, d), t(f"rnn.l{l}.U", d, d), t(f"rnn.l{l}.b", d),
                        cfg.activation)
        for l in range(1, cfg.L + 1)])


def _lstm(cfg: ModelConfig, t) -> LstmWeights:
    d = cfg.d_e
    return LstmWeights(embedding=_embedding(cfg, t), layers=[
        LstmLayerWeights(*(t(f"lstm.l{l}.{kind}{gate}", *((d,) if kind == "b" else (d, d)))
                           for gate in "QPRS" for kind in "UWb"))
        for l in range(1, cfg.L + 1)])


def _gpt2(cfg: ModelConfig, t) -> Gpt2Weights:
    return Gpt2Weights(**_transformer(cfg, t, segments=False))


def _bert(cfg: ModelConfig, t) -> BertWeights:
    d_e = cfg.d_e
    return BertWeights(**_transformer(cfg, t, segments=True),
                       mlm_w=t("mlm.W", d_e, d_e), mlm_b=t("mlm.b", d_e),
                       mlm_norm_gain=t("mlm.lnG", d_e), mlm_norm_bias=t("mlm.lnB", d_e),
                       out_bias=t("mlm.outB", cfg.vocab_size),
                       pool_w=t("pool.W", d_e, d_e), pool_b=t("pool.b", d_e),
                       nsp_w=t("nsp.W", 2, d_e), nsp_b=t("nsp.b", 2))


BUILDERS = {"ffnn": _ffnn, "rnn": _rnn, "lstm": _lstm, "gpt2": _gpt2, "bert": _bert}


def _build(cfg: ModelConfig, tensor) -> AnyWeights:
    """Run the architecture's builder, taking each array from
    ``tensor(name, shape)`` in canonical order."""
    named: dict[str, np.ndarray] = {}

    def t(name, *shape):
        named[name] = array = tensor(name, shape)
        return array

    weights = BUILDERS[cfg.arch](cfg, t)
    weights._tensors = named
    return weights


def tensor_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for one architecture, in build order."""
    layout: list[tuple[str, tuple[int, ...]]] = []
    _build(cfg, lambda name, shape: layout.append((name, shape)))
    return layout


def assemble_weights(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> AnyWeights:
    """Wire a flat named-tensor dict into the architecture's structure.

    The dict must contain exactly the canonical names with the canonical
    shapes; float64 C-contiguous arrays are adopted by reference, not copied.
    """
    missing = []

    def take(name, shape):
        if name not in tensors:
            missing.append(name)
            return None
        array = np.ascontiguousarray(tensors[name], dtype=np.float64)
        if array.shape != shape:
            raise ShapeError(f"tensor {name} has shape {array.shape}, expected {shape}")
        return array

    weights = _build(cfg, take)
    if missing:
        raise ConfigError(f"weights are missing tensors: {sorted(missing)}")
    extra = tensors.keys() - weights._tensors.keys()
    if extra:
        raise ConfigError(f"weights contain unexpected tensors: {sorted(extra)}")
    return weights


def zeros_weights(cfg: ModelConfig) -> AnyWeights:
    return _build(cfg, lambda name, shape: np.zeros(shape))


def philox(seed: int) -> np.random.Generator:
    """Generator over the Philox stream keyed by `seed`, an integer in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def init_weights(cfg: ModelConfig, seed: int) -> AnyWeights:
    """Deterministic uniform(-0.05, 0.05) initialization.

    Values come from a single Philox stream keyed by the seed, consumed
    tensor by tensor in canonical layout order, so equal seeds give
    bitwise-equal weights.
    """
    rng = philox(seed)
    return _build(cfg, lambda name, shape: rng.uniform(INIT_LOW, INIT_HIGH, size=shape))
