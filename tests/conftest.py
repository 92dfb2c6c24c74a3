import numpy as np
import pytest
from hypothesis import settings

from nlmkit.config import ModelConfig

# Every property test draws the same examples on every run, from its own
# source, and keeps no example database; only max_examples is set per test.
settings.register_profile("nlmkit", derandomize=True, database=None, deadline=None)
settings.load_profile("nlmkit")


# The fixed configs of the tests that pin exact values (archive hashes,
# hand-counted parameters), by name; tests/strategies.py draws the rest.
# The strategy reaches max_len <= 4, d_e <= 4, L <= 2 and at most two hidden
# layers: a fixed case stays only where it pins an exact value or a size
# beyond that reach.
FIXED = {
    **{f"{arch}-zeta{zeta}-{variant}": ModelConfig(
        arch=arch, d_e=6, d_k=3, d_v=2, d_f=7, M=3, L=2, vocab_size=13, max_len=5, zeta=zeta,
        norm_variant=variant)
       for arch, zeta, variant in [("gpt2", 0, "post"), ("gpt2", 1, "post"), ("gpt2", 1, "pre"),
                                   ("bert", 0, "post"), ("bert", 1, "post")]},
    **{f"{arch}-L{depth}": ModelConfig(arch=arch, d_e=4, vocab_size=9, max_len=5, L=depth)
       for arch, depth in [("rnn", 1), ("rnn", 2), ("rnn", 3), ("lstm", 2), ("lstm", 3)]},
    **{f"ffnn-{len(dims)}": ModelConfig(arch="ffnn", d_e=3, vocab_size=7, max_len=4,
                                        hidden_dims=dims)
       for dims in ([5], [5, 2], [6, 4, 3])},
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def tiny_gpt2_config(zeta=1, variant="pre", vocab_size=11, max_len=6):
    return ModelConfig(arch="gpt2", d_e=8, d_k=4, d_v=4, d_f=16, M=2, L=2,
                       vocab_size=vocab_size, max_len=max_len, zeta=zeta,
                       norm_variant=variant)


def tiny_bert_config(zeta=1, vocab_size=11, max_len=6):
    return ModelConfig(arch="bert", d_e=8, d_k=4, d_v=4, d_f=16, M=2, L=2,
                       vocab_size=vocab_size, max_len=max_len, zeta=zeta)


def per_gate_lstm_tensors(cfg):
    """Zero tensors of an lstm config in the per-gate layout the package once
    stored (``lstm.l{l}.UQ``, ``.WQ``, ``.bQ``, ... ``.bS``) and now refuses."""
    d = cfg.d_e
    tensors = {"emb.E": np.zeros((d, cfg.vocab_size))}
    for l in range(1, cfg.L + 1):
        for gate in "QPRS":
            tensors.update({f"lstm.l{l}.U{gate}": np.zeros((d, d)),
                            f"lstm.l{l}.W{gate}": np.zeros((d, d)),
                            f"lstm.l{l}.b{gate}": np.zeros(d)})
    return tensors


def per_head_attention_tensors(tensors):
    """A gpt2 or bert weight set's tensors in the per-head layout the package
    once stored (``blk{l}.h{m}.WQ``, ... ``.bV``) and now refuses: each
    stacked attention tensor split into its heads."""
    split = {}
    for name, tensor in tensors.items():
        block, _, kind = name.partition(".")
        if kind in ("WQ", "WK", "WV", "bQ", "bK", "bV"):
            split.update({f"{block}.h{m}.{kind}": tensor[m - 1] for m in range(1, len(tensor) + 1)})
        else:
            split[name] = tensor
    return split


def random_distribution(rng, size):
    p = rng.uniform(0.05, 1.0, size=size)
    return p / p.sum()
