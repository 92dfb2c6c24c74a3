"""Closed-form parameter counts and the enumeration cross-check.

Every architecture gets two independent answers to "how many trainable
scalars": a closed-form formula over the hyperparameters, and a literal
element count over an instantiated weight set.  ``audit_config`` asserts
they agree.

Tied output projections are listed with zero incremental cost so reports
stay honest about what sharing saves.

The formulas live in ``COUNTS``, one entry per architecture; adding an
architecture means adding its entry there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ModelConfig
from .errors import AuditMismatchError
from .weights import named_tensor_view


@dataclass
class CountReport:
    """Named subtotals that sum exactly to the grand total."""

    arch: str
    components: list[tuple[str, int]]

    @property
    def total(self) -> int:
        return sum(count for _, count in self.components)

    def as_table(self) -> str:
        width = max(len(name) for name, _ in self.components + [("total", 0)])
        lines = [f"parameter count for {self.arch}"]
        lines += [f"  {name.ljust(width)}  {count:>14,}" for name, count in self.components]
        lines.append(f"  {'total'.ljust(width)}  {self.total:>14,}")
        return "\n".join(lines)

    def as_key_values(self) -> str:
        lines = [f"arch={self.arch}"]
        lines += [f"{name}={count}" for name, count in self.components]
        lines.append(f"total={self.total}")
        return "\n".join(lines)


def _transformer(cfg: ModelConfig, segments: bool) -> list[tuple[str, int]]:
    """Subtotals shared by the decoder and the encoder, segment vectors optional."""
    d_e = cfg.d_e
    attention = (2 * cfg.M * d_e * (cfg.d_k + cfg.d_v)
                 + cfg.zeta * (cfg.M * (2 * cfg.d_k + cfg.d_v) + d_e))
    return [
        ("embedding", d_e * cfg.vocab_size),
        ("positional_encoding", d_e * cfg.max_len),
        *([("segment_encoding", 2 * d_e)] if segments else []),
        ("embedding_layer_norm", 2 * d_e),
        ("attention", cfg.L * attention),
        ("feedforward", cfg.L * (2 * d_e * cfg.d_f + d_e + cfg.d_f)),
        ("block_layer_norms", cfg.L * 4 * d_e),  # two gain/bias pairs per block
    ]


def _gpt2(cfg: ModelConfig, include_mlm: bool, include_nsp: bool) -> list[tuple[str, int]]:
    return _transformer(cfg, segments=False) + [("output_projection_tied", 0)]


def _bert(cfg: ModelConfig, include_mlm: bool, include_nsp: bool) -> list[tuple[str, int]]:
    d_e = cfg.d_e
    components = _transformer(cfg, segments=True) + [
        ("pooler", d_e * (d_e + 1)),
        ("output_projection_tied", 0),
    ]
    if include_mlm:
        components += [
            ("mlm_transform", d_e * (d_e + 1)),
            ("mlm_layer_norm", 2 * d_e),
            ("mlm_output_bias", cfg.vocab_size),
        ]
    if include_nsp:
        components.append(("nsp_head", 2 * (d_e + 1)))
    return components


def _recurrent(per_layer):
    """Counter of a tied recurrent LM whose layers hold per_layer(d_e) scalars each."""
    return lambda cfg, include_mlm, include_nsp: [
        ("embedding", cfg.d_e * cfg.vocab_size),
        ("recurrent_layers", cfg.L * per_layer(cfg.d_e)),
        ("output_projection_tied", 0),
    ]


def _ffnn(cfg: ModelConfig, include_mlm: bool, include_nsp: bool) -> list[tuple[str, int]]:
    hidden, width_in = 0, cfg.max_len * cfg.d_e
    for width in cfg.hidden_dims:
        hidden += width * (width_in + 1)
        width_in = width
    return [
        ("embedding", cfg.d_e * cfg.vocab_size),
        ("hidden_layers", hidden),
        ("output_projection", cfg.vocab_size * width_in),
    ]


# closed-form (name, count) subtotals; the flags add BERT's MLM and NSP heads
COUNTS = {
    "ffnn": _ffnn,
    "rnn": _recurrent(lambda d: 2 * d * d + d),
    "lstm": _recurrent(lambda d: 4 * d * (2 * d + 1)),
    "gpt2": _gpt2,
    "bert": _bert,
}


def count_for_config(cfg: ModelConfig, include_mlm: bool = False,
                     include_nsp: bool = False) -> CountReport:
    return CountReport(cfg.arch, COUNTS[cfg.arch](cfg, include_mlm, include_nsp))


def enumerate_weights(weights) -> int:
    """Literal element count over every named tensor."""
    return int(sum(t.size for t in named_tensor_view(weights).values()))


def audit_config(cfg: ModelConfig, weights) -> CountReport:
    """Assert formula count == enumerated count for a full weight set.

    BERT weight sets always carry the MLM head, pooler, and NSP head, so
    the formula side includes them here.
    """
    report = count_for_config(cfg, include_mlm=True, include_nsp=True)
    enumerated = enumerate_weights(weights)
    if report.total != enumerated:
        raise AuditMismatchError(
            f"closed-form count {report.total} != enumerated count {enumerated} "
            f"for arch {cfg.arch!r}"
        )
    return report

