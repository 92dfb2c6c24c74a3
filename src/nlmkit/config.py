"""Model configuration records and the key=value config file format.

A config file holds one ``key=value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Unknown keys are rejected, as are
configs missing a key their architecture requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

ARCHITECTURES = ("ffnn", "rnn", "lstm", "gpt2", "bert")

_INT_KEYS = {"d_e", "d_k", "d_v", "d_f", "M", "L", "vocab_size", "max_len", "zeta"}
_STR_KEYS = {"arch", "norm_variant", "gelu_mode", "activation"}
_LIST_KEYS = {"hidden_dims"}
_ALL_KEYS = _INT_KEYS | _STR_KEYS | _LIST_KEYS

# keys every architecture needs / keys each one adds
_BASE_REQUIRED = {"arch", "d_e", "vocab_size", "max_len"}
_ARCH_REQUIRED = {
    "gpt2": {"d_k", "d_v", "d_f", "M", "L"},
    "bert": {"d_k", "d_v", "d_f", "M", "L"},
    "rnn": {"L"},
    "lstm": {"L"},
    "ffnn": {"hidden_dims"},
}
_ARCH_ALLOWED = {
    "gpt2": _BASE_REQUIRED | _ARCH_REQUIRED["gpt2"] | {"zeta", "norm_variant", "gelu_mode"},
    "bert": _BASE_REQUIRED | _ARCH_REQUIRED["bert"] | {"zeta", "norm_variant", "gelu_mode"},
    "rnn": _BASE_REQUIRED | _ARCH_REQUIRED["rnn"] | {"activation"},
    "lstm": _BASE_REQUIRED | _ARCH_REQUIRED["lstm"],
    "ffnn": _BASE_REQUIRED | _ARCH_REQUIRED["ffnn"] | {"activation"},
}


@dataclass
class ModelConfig:
    """Hyperparameters for one architecture.

    For transformers, ``norm_variant`` selects the block layout: "post"
    normalizes after attention/feedforward with the embedding norm at the
    input; "pre" normalizes before them with the embedding norm moved to
    the transformer output.  ``zeta`` switches the optional attention
    biases on (1) or off (0).

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
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown arch {self.arch!r}; expected one of {ARCHITECTURES}")
        if not self.norm_variant:
            self.norm_variant = "pre" if self.arch == "gpt2" else "post"
        if not self.activation:
            self.activation = "sigmoid" if self.arch == "ffnn" else "tanh"
        if self.arch == "ffnn":
            self.L = len(self.hidden_dims)
        self.validate()

    def validate(self) -> None:
        def positive(name, value):
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")

        positive("d_e", self.d_e)
        positive("vocab_size", self.vocab_size)
        positive("max_len", self.max_len)
        if self.arch in ("gpt2", "bert"):
            for name in ("d_k", "d_v", "d_f", "M"):
                positive(name, getattr(self, name))
            if self.L < 0:
                raise ConfigError(f"L must be nonnegative, got {self.L}")
            if self.zeta not in (0, 1):
                raise ConfigError(f"zeta must be 0 or 1, got {self.zeta}")
            if self.norm_variant not in ("post", "pre"):
                raise ConfigError(f"norm_variant must be 'post' or 'pre', got {self.norm_variant!r}")
            if self.gelu_mode not in ("tanh", "exact"):
                raise ConfigError(f"gelu_mode must be 'tanh' or 'exact', got {self.gelu_mode!r}")
        elif self.arch in ("rnn", "lstm"):
            positive("L", self.L)
            if self.arch == "rnn" and self.activation not in ("tanh", "sigmoid", "identity"):
                raise ConfigError(f"rnn activation must be tanh/sigmoid/identity, got {self.activation!r}")
        elif self.arch == "ffnn":
            if not self.hidden_dims:
                raise ConfigError("ffnn requires at least one hidden layer (hidden_dims)")
            for i, width in enumerate(self.hidden_dims, start=1):
                positive(f"hidden_dims[{i}]", width)
            if self.activation not in ("sigmoid", "tanh", "identity"):
                raise ConfigError(f"ffnn activation must be sigmoid/tanh/identity, got {self.activation!r}")


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
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {ARCHITECTURES}")

    allowed = _ARCH_ALLOWED[arch]
    for key in pairs:
        if key not in allowed:
            raise ConfigError(f"key {key!r} is not valid for arch {arch!r}")
    missing = (_BASE_REQUIRED | _ARCH_REQUIRED[arch]) - pairs.keys()
    if missing:
        raise ConfigError(f"config for arch {arch!r} is missing keys: {sorted(missing)}")

    kwargs: dict = {}
    for key, value in pairs.items():
        if key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"key {key!r} expects an integer, got {value!r}") from None
        elif key in _LIST_KEYS:
            try:
                kwargs[key] = [int(part) for part in value.split(",")]
            except ValueError:
                raise ConfigError(f"key {key!r} expects comma-separated integers, got {value!r}") from None
        else:
            kwargs[key] = value
    return ModelConfig(**kwargs)


def load_config(path) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
