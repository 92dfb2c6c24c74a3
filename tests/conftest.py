import numpy as np
import pytest

from nlmkit.config import ModelConfig


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


def random_distribution(rng, size):
    p = rng.uniform(0.05, 1.0, size=size)
    return p / p.sum()
