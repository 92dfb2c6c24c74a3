"""Trainable-parameter containers for every architecture.

Each architecture has a structured dataclass (used by the forward passes)
plus a flat named-tensor view (used by serialization, parameter audits,
and the finite-difference trainer).  The two share the same underlying
arrays: mutating ``weights.named_tensors()["blk1.WO"]`` is visible to the
next forward call.

Canonical tensor names
----------------------
ffnn    ffnn.E, ffnn.W1, ffnn.b1, ..., ffnn.U
rnn     emb.E, rnn.l<k>.{W,U,b}
lstm    emb.E, lstm.l<k>.{UQ,WQ,bQ,UP,WP,bP,UR,WR,bR,US,WS,bS}
gpt2    emb.E, emb.pos, emb.lnG, emb.lnB,
        blk<l>.h<m>.{WQ,WK,WV,bQ,bK,bV}, blk<l>.WO, blk<l>.bO,
        blk<l>.ln1G, blk<l>.ln1B, blk<l>.ffn.{W1,b1,W2,b2},
        blk<l>.ln2G, blk<l>.ln2B
bert    gpt2 names plus emb.segA, emb.segB, mlm.{W,b,lnG,lnB,outB},
        pool.{W,b}, nsp.{W,b}

Layer and head indices are 1-based.  Weight initialization draws from a
Philox counter-based generator (identifier "philox-4x64-10"), uniform on
(-0.05, 0.05), one tensor at a time in canonical order, so a seed fully
determines every bit of the result.
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


def _block_layout(prefix: str, cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    names: list[tuple[str, tuple[int, ...]]] = []
    for m in range(1, cfg.M + 1):
        names.append((f"{prefix}.h{m}.WQ", (cfg.d_e, cfg.d_k)))
        names.append((f"{prefix}.h{m}.WK", (cfg.d_e, cfg.d_k)))
        names.append((f"{prefix}.h{m}.WV", (cfg.d_e, cfg.d_v)))
        if cfg.zeta:
            names.append((f"{prefix}.h{m}.bQ", (cfg.d_k,)))
            names.append((f"{prefix}.h{m}.bK", (cfg.d_k,)))
            names.append((f"{prefix}.h{m}.bV", (cfg.d_v,)))
    names.append((f"{prefix}.WO", (cfg.M * cfg.d_v, cfg.d_e)))
    if cfg.zeta:
        names.append((f"{prefix}.bO", (cfg.d_e,)))
    names.append((f"{prefix}.ln1G", (cfg.d_e,)))
    names.append((f"{prefix}.ln1B", (cfg.d_e,)))
    names.append((f"{prefix}.ffn.W1", (cfg.d_f, cfg.d_e)))
    names.append((f"{prefix}.ffn.b1", (cfg.d_f,)))
    names.append((f"{prefix}.ffn.W2", (cfg.d_e, cfg.d_f)))
    names.append((f"{prefix}.ffn.b2", (cfg.d_e,)))
    names.append((f"{prefix}.ln2G", (cfg.d_e,)))
    names.append((f"{prefix}.ln2B", (cfg.d_e,)))
    return names


def tensor_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for one architecture, in build order."""
    d_e, v, n = cfg.d_e, cfg.vocab_size, cfg.max_len
    layout: list[tuple[str, tuple[int, ...]]] = []
    if cfg.arch == "ffnn":
        layout.append(("ffnn.E", (d_e, v)))
        prev = n * d_e
        for l, width in enumerate(cfg.hidden_dims, start=1):
            layout.append((f"ffnn.W{l}", (width, prev)))
            layout.append((f"ffnn.b{l}", (width,)))
            prev = width
        layout.append(("ffnn.U", (v, prev)))
    elif cfg.arch == "rnn":
        layout.append(("emb.E", (d_e, v)))
        for l in range(1, cfg.L + 1):
            layout.append((f"rnn.l{l}.W", (d_e, d_e)))
            layout.append((f"rnn.l{l}.U", (d_e, d_e)))
            layout.append((f"rnn.l{l}.b", (d_e,)))
    elif cfg.arch == "lstm":
        layout.append(("emb.E", (d_e, v)))
        for l in range(1, cfg.L + 1):
            for gate in "QPRS":
                layout.append((f"lstm.l{l}.U{gate}", (d_e, d_e)))
                layout.append((f"lstm.l{l}.W{gate}", (d_e, d_e)))
                layout.append((f"lstm.l{l}.b{gate}", (d_e,)))
    elif cfg.arch == "gpt2":
        layout.append(("emb.E", (d_e, v)))
        layout.append(("emb.pos", (d_e, n)))
        layout.append(("emb.lnG", (d_e,)))
        layout.append(("emb.lnB", (d_e,)))
        for l in range(1, cfg.L + 1):
            layout.extend(_block_layout(f"blk{l}", cfg))
    elif cfg.arch == "bert":
        layout.append(("emb.E", (d_e, v)))
        layout.append(("emb.pos", (d_e, n)))
        layout.append(("emb.segA", (d_e,)))
        layout.append(("emb.segB", (d_e,)))
        layout.append(("emb.lnG", (d_e,)))
        layout.append(("emb.lnB", (d_e,)))
        for l in range(1, cfg.L + 1):
            layout.extend(_block_layout(f"blk{l}", cfg))
        layout.append(("mlm.W", (d_e, d_e)))
        layout.append(("mlm.b", (d_e,)))
        layout.append(("mlm.lnG", (d_e,)))
        layout.append(("mlm.lnB", (d_e,)))
        layout.append(("mlm.outB", (v,)))
        layout.append(("pool.W", (d_e, d_e)))
        layout.append(("pool.b", (d_e,)))
        layout.append(("nsp.W", (2, d_e)))
        layout.append(("nsp.b", (2,)))
    else:  # pragma: no cover - ModelConfig already validates arch
        raise ConfigError(f"unknown arch {cfg.arch!r}")
    return layout


def _assemble_block(prefix: str, cfg: ModelConfig, t: dict[str, np.ndarray]) -> BlockWeights:
    heads = []
    for m in range(1, cfg.M + 1):
        heads.append(HeadWeights(
            w_q=t[f"{prefix}.h{m}.WQ"],
            w_k=t[f"{prefix}.h{m}.WK"],
            w_v=t[f"{prefix}.h{m}.WV"],
            b_q=t.get(f"{prefix}.h{m}.bQ"),
            b_k=t.get(f"{prefix}.h{m}.bK"),
            b_v=t.get(f"{prefix}.h{m}.bV"),
        ))
    mha = MultiHeadWeights(heads=heads, w_o=t[f"{prefix}.WO"], b_o=t.get(f"{prefix}.bO"))
    return BlockWeights(
        mha=mha,
        ffn_w1=t[f"{prefix}.ffn.W1"], ffn_b1=t[f"{prefix}.ffn.b1"],
        ffn_w2=t[f"{prefix}.ffn.W2"], ffn_b2=t[f"{prefix}.ffn.b2"],
        ln1_gain=t[f"{prefix}.ln1G"], ln1_bias=t[f"{prefix}.ln1B"],
        ln2_gain=t[f"{prefix}.ln2G"], ln2_bias=t[f"{prefix}.ln2B"],
    )


def assemble_weights(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> AnyWeights:
    """Wire a flat named-tensor dict into the architecture's structure.

    The dict must contain exactly the canonical names with the canonical
    shapes; arrays are adopted by reference, not copied.
    """
    layout = tensor_layout(cfg)
    expected = dict(layout)
    missing = expected.keys() - tensors.keys()
    extra = tensors.keys() - expected.keys()
    if missing:
        raise ConfigError(f"weights are missing tensors: {sorted(missing)}")
    if extra:
        raise ConfigError(f"weights contain unexpected tensors: {sorted(extra)}")
    for name, shape in layout:
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        if arr.shape != shape:
            raise ShapeError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        tensors[name] = arr
    ordered = {name: tensors[name] for name, _ in layout}
    t = ordered

    if cfg.arch == "ffnn":
        layers = [FfnnLayer(t[f"ffnn.W{l}"], t[f"ffnn.b{l}"], cfg.activation)
                  for l in range(1, len(cfg.hidden_dims) + 1)]
        return FfnnWeights(_tensors=t, embedding=t["ffnn.E"], layers=layers,
                           output=t["ffnn.U"], context_width=cfg.max_len)
    if cfg.arch == "rnn":
        layers = [RnnLayerWeights(t[f"rnn.l{l}.W"], t[f"rnn.l{l}.U"], t[f"rnn.l{l}.b"],
                                  cfg.activation)
                  for l in range(1, cfg.L + 1)]
        return RnnWeights(_tensors=t, embedding=t["emb.E"], layers=layers)
    if cfg.arch == "lstm":
        layers = [LstmLayerWeights(*(t[f"lstm.l{l}.{kind}{gate}"]
                                     for gate in "QPRS" for kind in ("U", "W", "b")))
                  for l in range(1, cfg.L + 1)]
        return LstmWeights(_tensors=t, embedding=t["emb.E"], layers=layers)
    blocks = [_assemble_block(f"blk{l}", cfg, t) for l in range(1, cfg.L + 1)]
    if cfg.arch == "gpt2":
        return Gpt2Weights(
            _tensors=t, embedding=t["emb.E"], positions=t["emb.pos"],
            emb_norm_gain=t["emb.lnG"], emb_norm_bias=t["emb.lnB"],
            blocks=blocks, norm_variant=cfg.norm_variant, gelu_mode=cfg.gelu_mode,
        )
    return BertWeights(
        _tensors=t, embedding=t["emb.E"], positions=t["emb.pos"],
        seg_a=t["emb.segA"], seg_b=t["emb.segB"],
        emb_norm_gain=t["emb.lnG"], emb_norm_bias=t["emb.lnB"],
        blocks=blocks,
        mlm_w=t["mlm.W"], mlm_b=t["mlm.b"],
        mlm_norm_gain=t["mlm.lnG"], mlm_norm_bias=t["mlm.lnB"],
        out_bias=t["mlm.outB"],
        pool_w=t["pool.W"], pool_b=t["pool.b"],
        nsp_w=t["nsp.W"], nsp_b=t["nsp.b"],
        norm_variant=cfg.norm_variant, gelu_mode=cfg.gelu_mode,
    )


def zeros_weights(cfg: ModelConfig) -> AnyWeights:
    return assemble_weights(cfg, {name: np.zeros(shape) for name, shape in tensor_layout(cfg)})


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
    tensors = {name: rng.uniform(INIT_LOW, INIT_HIGH, size=shape)
               for name, shape in tensor_layout(cfg)}
    return assemble_weights(cfg, tensors)
