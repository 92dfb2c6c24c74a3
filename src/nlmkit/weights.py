"""Trainable-parameter containers for every architecture.

Each architecture has a structured dataclass (used by the forward passes)
plus a flat named-tensor view (used by serialization, parameter audits,
and the trainer's gradients).  The two share the same underlying
arrays: mutating ``weights.named_tensors()["blk1.WO"]`` is visible to the
next forward call.  A record holds only what its builder gives it, so no
field has a default; rnn and lstm share ``RecurrentWeights``.

Tensor names are dotted paths such as ``blk2.WQ`` (block 2, query
projections); layer indices are 1-based.  Each layer is stored in the one
form its passes run: an attention layer's M heads stacked along the first
axis of ``blk1.WQ``, ``.WK``, ``.WV`` and the ``b`` forms (see
``MultiHeadWeights``), and an LSTM layer as three tensors, ``lstm.l1.U``,
``.W`` and ``.b``, its four gates stacked in the rows of each (see
``LstmLayerWeights``).
Each architecture has one builder in ``BUILDERS``.  It names every tensor
once, asking ``t(name, *shape)`` for its array in canonical order (Python
evaluates call arguments left to right), and returns the structured
weights.
``tensor_layout``, ``assemble_weights``, ``init_weights`` and
``zeros_weights`` differ only in where ``t`` gets the arrays from.  Adding
an architecture means adding its builder to ``BUILDERS``.  A deep copy of a
record (``training.gd_step`` makes one) is Python's default: its memo keeps
every structured field the same array as its ``named_tensors()`` entry.

``numerical_gradient`` takes central differences over that view: gpt2's
backward pass, and the oracle every reverse pass is tested against.

Weight initialization draws from a Philox counter-based generator
(identifier "philox-4x64-10"), uniform on (-0.05, 0.05), one tensor at a
time in canonical order, so a seed fully determines every bit of the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, NonFiniteLossError, ShapeError

INIT_GENERATOR = "philox-4x64-10"
INIT_LOW, INIT_HIGH = -0.05, 0.05
MAX_ELEMENTS = np.iinfo(np.intp).max // 8  # float64s one numpy array can address
FD_STEP = 1e-5


@dataclass
class MultiHeadWeights:
    """M heads stacked along axis 0: head m projects with w_q[m], w_k[m]
    (d_e x d_k) and w_v[m] (d_e x d_v) and adds b_q[m], b_k[m] and b_v[m];
    w_o ((M d_v) x d_e) reads its output from rows [m d_v, (m + 1) d_v).
    Biases are present only when zeta=1."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray | None
    b_k: np.ndarray | None
    b_v: np.ndarray | None
    w_o: np.ndarray
    b_o: np.ndarray | None


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

    _tensors: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

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


def numerical_gradient(loss_fn, weights) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar loss over every parameter.

    The weights are perturbed in place and restored; any probe that yields
    a non-finite loss aborts with a diagnostic naming the parameter.
    """
    grad: dict[str, np.ndarray] = {}
    for name, tensor in named_tensor_view(weights).items():
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
                raise NonFiniteLossError(f"non-finite loss while probing parameter {name}[{i}]: "
                                         f"J+={j_plus}, J-={j_minus}")
            g[i] = (j_plus - j_minus) / (2.0 * FD_STEP)
        grad[name] = g.reshape(tensor.shape)
    return grad


@dataclass
class FfnnLayer:
    w: np.ndarray
    b: np.ndarray
    activation: str


@dataclass
class FfnnWeights(_TensorBacked):
    """Untied feedforward LM: embeddings, dense layers, output projection."""

    embedding: np.ndarray
    layers: list[FfnnLayer]
    output: np.ndarray
    context_width: int


@dataclass
class RnnLayerWeights:
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    activation: str


@dataclass
class LstmLayerWeights:
    """Four gate blocks stacked in update order Q, P, R, S: gate k holds rows
    [k d, (k + 1) d) of U and W (4d x d) and of b (4d)."""

    u: np.ndarray
    w: np.ndarray
    b: np.ndarray


@dataclass
class RecurrentWeights(_TensorBacked):
    """Elman or LSTM LM: embeddings tied to the output head, layers of one cell kind."""

    embedding: np.ndarray
    layers: list[RnnLayerWeights] | list[LstmLayerWeights]


@dataclass
class Gpt2Weights(_TensorBacked):
    """Decoder LM with tied embeddings.

    With norm_variant="post" the (emb_norm_gain, emb_norm_bias) pair
    normalizes the input embeddings; with "pre" it normalizes the
    transformer output instead.
    """

    embedding: np.ndarray
    positions: np.ndarray
    emb_norm_gain: np.ndarray
    emb_norm_bias: np.ndarray
    blocks: list[BlockWeights]
    norm_variant: str
    gelu_mode: str


@dataclass
class BertWeights(_TensorBacked):
    """Encoder backbone plus MLM head, pooler, and detachable NSP head."""

    embedding: np.ndarray
    positions: np.ndarray
    seg_a: np.ndarray
    seg_b: np.ndarray
    emb_norm_gain: np.ndarray
    emb_norm_bias: np.ndarray
    blocks: list[BlockWeights]
    mlm_w: np.ndarray
    mlm_b: np.ndarray
    mlm_norm_gain: np.ndarray
    mlm_norm_bias: np.ndarray
    out_bias: np.ndarray
    pool_w: np.ndarray
    pool_b: np.ndarray
    nsp_w: np.ndarray
    nsp_b: np.ndarray
    norm_variant: str
    gelu_mode: str


AnyWeights = FfnnWeights | RecurrentWeights | Gpt2Weights | BertWeights


def _block(cfg: ModelConfig, t, p: str) -> BlockWeights:
    d_e, d_k, d_v, m = cfg.d_e, cfg.d_k, cfg.d_v, cfg.M

    def bias(name, *shape):  # attention biases exist only when zeta=1
        return t(name, *shape) if cfg.zeta else None

    mha = MultiHeadWeights(t(f"{p}.WQ", m, d_e, d_k), t(f"{p}.WK", m, d_e, d_k),
                           t(f"{p}.WV", m, d_e, d_v), bias(f"{p}.bQ", m, d_k),
                           bias(f"{p}.bK", m, d_k), bias(f"{p}.bV", m, d_v),
                           t(f"{p}.WO", m * d_v, d_e), bias(f"{p}.bO", d_e))
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


def _rnn(cfg: ModelConfig, t) -> RecurrentWeights:
    d = cfg.d_e
    return RecurrentWeights(embedding=_embedding(cfg, t), layers=[
        RnnLayerWeights(t(f"rnn.l{l}.W", d, d), t(f"rnn.l{l}.U", d, d), t(f"rnn.l{l}.b", d),
                        cfg.activation)
        for l in range(1, cfg.L + 1)])


def _lstm(cfg: ModelConfig, t) -> RecurrentWeights:
    d = cfg.d_e
    return RecurrentWeights(embedding=_embedding(cfg, t), layers=[
        LstmLayerWeights(t(f"lstm.l{l}.U", 4 * d, d), t(f"lstm.l{l}.W", 4 * d, d),
                         t(f"lstm.l{l}.b", 4 * d))
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
        if math.prod(shape) > MAX_ELEMENTS:
            raise ConfigError(f"tensor {name} of shape {shape} is too big to address")
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
