"""Model configuration records and the key=value config file format.

A config file holds one ``key=value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Unknown keys are rejected, as are
configs missing a key their architecture requires.  ``ARCH_KEYS`` holds
each architecture's keys and defaults; adding an architecture means adding
its entry there and its range checks to ``ModelConfig.validate``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .kernels import ACTIVATIONS

_INT_KEYS = {"d_e", "d_k", "d_v", "d_f", "M", "L", "vocab_size", "max_len", "zeta"}
_STR_KEYS = {"arch", "norm_variant", "gelu_mode", "activation"}
_LIST_KEYS = {"hidden_dims"}
_ALL_KEYS = _INT_KEYS | _STR_KEYS | _LIST_KEYS

_BASE_REQUIRED = {"arch", "d_e", "vocab_size", "max_len"}


@dataclass(frozen=True)
class ArchKeys:
    """The config keys of one architecture beyond ``_BASE_REQUIRED``, and
    the values its empty ``norm_variant`` and ``activation`` take."""

    required: frozenset[str]
    optional: frozenset[str] = frozenset()
    norm_variant: str = "post"
    activation: str = "tanh"


_TRANSFORMER_REQUIRED = frozenset({"d_k", "d_v", "d_f", "M", "L"})
_TRANSFORMER_OPTIONAL = frozenset({"zeta", "norm_variant", "gelu_mode"})
ARCH_KEYS = {
    "ffnn": ArchKeys(frozenset({"hidden_dims"}), frozenset({"activation"}), activation="sigmoid"),
    "rnn": ArchKeys(frozenset({"L"}), frozenset({"activation"})),
    "lstm": ArchKeys(frozenset({"L"})),
    "gpt2": ArchKeys(_TRANSFORMER_REQUIRED, _TRANSFORMER_OPTIONAL, norm_variant="pre"),
    "bert": ArchKeys(_TRANSFORMER_REQUIRED, _TRANSFORMER_OPTIONAL),
}
ARCHITECTURES = tuple(ARCH_KEYS)


def arch_keys(arch: str) -> ArchKeys:
    try:
        return ARCH_KEYS[arch]
    except KeyError:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {ARCHITECTURES}") from None


@dataclass
class ModelConfig:
    """Hyperparameters for one architecture.

    For transformers, ``norm_variant`` selects the block layout: "post"
    normalizes after attention/feedforward, "pre" before them.  The decoder
    (gpt2) normalizes its embeddings under "post" and its transformer output
    under "pre"; the encoder (bert) normalizes its input under both.
    ``zeta`` switches the optional attention biases on (1) or off (0).

    For the feedforward LM, ``d_e`` is the per-token embedding width and
    ``max_len`` the fixed context width; ``hidden_dims`` lists the dense
    layer widths.
    """

    arch: str
    d_e: int
    vocab_size: int
    max_len: int
    d_k: int = 0
    d_v: int = 0
    d_f: int = 0
    M: int = 0
    L: int = 0
    zeta: int = 1
    norm_variant: str = ""
    gelu_mode: str = "tanh"
    activation: str = ""
    hidden_dims: list[int] = field(default_factory=list)

    def __post_init__(self):
        keys = arch_keys(self.arch)
        self.norm_variant = self.norm_variant or keys.norm_variant
        self.activation = self.activation or keys.activation
        self.validate()

    def validate(self) -> None:
        def positive(name, value):
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
            if value > 2**63 - 1:  # numpy shapes are int64; far larger counts cannot be printed
                raise ConfigError(f"{name} must be at most 2**63 - 1")

        positive("d_e", self.d_e)
        positive("vocab_size", self.vocab_size)
        positive("max_len", self.max_len)
        if self.arch in ("gpt2", "bert"):
            for name in ("d_k", "d_v", "d_f", "M"):
                positive(name, getattr(self, name))
            if self.L < 0:
                raise ConfigError(f"L must be nonnegative, got {self.L}")
            if self.L:  # 0 is a model without blocks
                positive("L", self.L)
            if self.zeta not in (0, 1):
                raise ConfigError(f"zeta must be 0 or 1, got {self.zeta}")
            if self.norm_variant not in ("post", "pre"):
                raise ConfigError(f"norm_variant must be 'post' or 'pre', got {self.norm_variant!r}")
            if self.gelu_mode not in ("tanh", "exact"):
                raise ConfigError(f"gelu_mode must be 'tanh' or 'exact', got {self.gelu_mode!r}")
        elif self.arch in ("rnn", "lstm"):
            positive("L", self.L)
            if self.arch == "rnn" and self.activation not in ACTIVATIONS:
                raise ConfigError(f"rnn activation must be tanh/sigmoid/identity, got {self.activation!r}")
        elif self.arch == "ffnn":
            if not self.hidden_dims:
                raise ConfigError("ffnn requires at least one hidden layer (hidden_dims)")
            for i, width in enumerate(self.hidden_dims, start=1):
                positive(f"hidden_dims[{i}]", width)
            if self.activation not in ACTIVATIONS:
                raise ConfigError(f"ffnn activation must be sigmoid/tanh/identity, got {self.activation!r}")


def parse_int(text: str) -> int | None:
    """The integer `text` spells in ASCII digits (at most 4300, int()'s default
    limit), with an optional leading '-' and surrounding whitespace; else None."""
    return int(text) if re.fullmatch(r"\s*-?[0-9]{1,4300}\s*", text) else None


def parse_config(text: str) -> ModelConfig:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    arch = pairs.get("arch")
    if arch is None:
        raise ConfigError("config is missing required key 'arch'")
    keys = arch_keys(arch)
    required = _BASE_REQUIRED | keys.required
    allowed = required | keys.optional
    for key in pairs:
        if key not in allowed:
            raise ConfigError(f"key {key!r} is not valid for arch {arch!r}")
    missing = required - pairs.keys()
    if missing:
        raise ConfigError(f"config for arch {arch!r} is missing keys: {sorted(missing)}")

    kwargs: dict = {}
    for key, value in pairs.items():
        if key in _INT_KEYS:
            kwargs[key] = parse_int(value)
            if kwargs[key] is None:
                raise ConfigError(f"key {key!r} expects an integer, got {value!r}")
        elif key in _LIST_KEYS:
            kwargs[key] = [parse_int(part) for part in value.split(",")]
            if None in kwargs[key]:
                raise ConfigError(f"key {key!r} expects comma-separated integers, got {value!r}")
        else:
            kwargs[key] = value
    return ModelConfig(**kwargs)


def read_text(path) -> str:
    """A UTF-8 text file's contents without a leading byte-order mark;
    other bytes are a ConfigError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def load_config(path) -> ModelConfig:
    return parse_config(read_text(path))
