"""Architecture dispatch: forward passes, next-token scoring, generation.

Thin glue shared by the CLI and the trainer so every architecture answers
the same three questions: distributions for a sequence, the distribution
of the next token after a context, and a greedy continuation.
"""

from __future__ import annotations

from .config import ModelConfig
from .errors import ConfigError
from .ffnn import ffnn_forward, ffnn_generate
from .recurrent import recurrent_generate, recurrent_lm_forward
from .transformer import gpt2_forward, greedy_decode

AR_ARCHS = ("ffnn", "rnn", "lstm", "gpt2")


def make_forward(cfg: ModelConfig, weights):
    """Per-position distribution function (|V| x len) for sequence models."""
    if cfg.arch == "gpt2":
        return lambda ids: gpt2_forward(ids, weights)
    if cfg.arch in ("rnn", "lstm"):
        return lambda ids: recurrent_lm_forward(ids, weights)
    raise ConfigError(f"arch {cfg.arch!r} has no per-position forward pass")


def make_predict_next(cfg: ModelConfig, weights):
    """Map a context (list of ids) to the next-token distribution."""
    if cfg.arch == "ffnn":
        return lambda ctx: ffnn_forward(ctx, weights)
    if cfg.arch in ("rnn", "lstm"):
        return lambda ctx: recurrent_lm_forward(ctx, weights)[:, -1]
    if cfg.arch == "gpt2":
        return lambda ctx: gpt2_forward(ctx, weights)[:, -1]
    raise ConfigError(f"arch {cfg.arch!r} is not autoregressive; cannot score next tokens")


def generate_tokens(cfg: ModelConfig, weights, prompt_ids: list[int], steps: int) -> list[int]:
    """Greedy continuation of the prompt for any autoregressive arch."""
    if cfg.arch == "gpt2":
        return greedy_decode(prompt_ids, weights, steps)
    if cfg.arch in ("rnn", "lstm"):
        return recurrent_generate(prompt_ids, weights, steps)
    if cfg.arch == "ffnn":
        return ffnn_generate(prompt_ids, weights, steps)
    raise ConfigError(f"arch {cfg.arch!r} cannot generate autoregressively")


def min_context(cfg: ModelConfig) -> int:
    """Shortest context the architecture can condition on."""
    return cfg.max_len if cfg.arch == "ffnn" else 1
