"""Closed-form parameter counts against a literal count of the tensors."""

import pytest

from nlmkit.audit import audit_config, count_for_config, enumerate_weights
from nlmkit.config import ModelConfig
from nlmkit.errors import AuditMismatchError
from nlmkit.weights import init_weights, zeros_weights


def transformer(arch, zeta, variant):
    return ModelConfig(arch=arch, d_e=6, d_k=3, d_v=2, d_f=7, M=3, L=2, vocab_size=13,
                       max_len=5, zeta=zeta, norm_variant=variant)


CONFIGS = {
    **{f"{arch}-zeta{zeta}-{variant}": transformer(arch, zeta, variant)
       for arch in ("gpt2", "bert") for zeta in (0, 1) for variant in ("pre", "post")},
    **{f"{arch}-L{depth}": ModelConfig(arch=arch, d_e=4, vocab_size=9, max_len=5, L=depth)
       for arch in ("rnn", "lstm") for depth in (1, 3)},
    **{f"ffnn-{len(dims)}": ModelConfig(arch="ffnn", d_e=3, vocab_size=7, max_len=4, hidden_dims=dims)
       for dims in ([5], [5, 2], [6, 4, 3])},
}

COMPONENTS = {
    "gpt2": ["embedding", "positional_encoding", "embedding_layer_norm", "attention",
             "feedforward", "block_layer_norms", "output_projection_tied"],
    "bert": ["embedding", "positional_encoding", "segment_encoding", "embedding_layer_norm",
             "attention", "feedforward", "block_layer_norms", "pooler", "output_projection_tied"],
    "rnn": ["embedding", "recurrent_layers", "output_projection_tied"],
    "lstm": ["embedding", "recurrent_layers", "output_projection_tied"],
    "ffnn": ["embedding", "hidden_layers", "output_projection"],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_formula_count_equals_enumerated_count(name):
    cfg = CONFIGS[name]
    w = init_weights(cfg, 3)
    report = audit_config(cfg, w)
    assert report.total == enumerate_weights(w) == enumerate_weights(zeros_weights(cfg))
    assert report.arch == cfg.arch


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_component_names(name):
    cfg = CONFIGS[name]
    assert [c for c, _ in count_for_config(cfg).components] == COMPONENTS[cfg.arch]


def tensor_total(w, prefixes):
    return sum(t.size for name, t in w.named_tensors().items() if name.startswith(prefixes))


@pytest.mark.parametrize("zeta", [0, 1])
def test_bert_heads_are_counted_only_when_asked(zeta):
    cfg = transformer("bert", zeta, "post")
    w = zeros_weights(cfg)
    base = count_for_config(cfg)
    mlm = count_for_config(cfg, include_mlm=True)
    nsp = count_for_config(cfg, include_nsp=True)
    both = count_for_config(cfg, include_mlm=True, include_nsp=True)
    assert [c for c, _ in mlm.components] == COMPONENTS["bert"] + [
        "mlm_transform", "mlm_layer_norm", "mlm_output_bias"]
    assert [c for c, _ in nsp.components] == COMPONENTS["bert"] + ["nsp_head"]
    assert [c for c, _ in both.components] == COMPONENTS["bert"] + [
        "mlm_transform", "mlm_layer_norm", "mlm_output_bias", "nsp_head"]
    assert mlm.total - base.total == tensor_total(w, "mlm.") == 6 * 7 + 2 * 6 + 13
    assert nsp.total - base.total == tensor_total(w, "nsp.") == 2 * 7
    assert both.total == base.total + tensor_total(w, ("mlm.", "nsp."))
    assert base.total == enumerate_weights(w) - tensor_total(w, ("mlm.", "nsp."))


@pytest.mark.parametrize("arch", ["gpt2", "rnn", "lstm", "ffnn"])
def test_head_flags_do_not_change_other_archs(arch):
    cfg = next(c for c in CONFIGS.values() if c.arch == arch)
    assert (count_for_config(cfg, include_mlm=True, include_nsp=True).components
            == count_for_config(cfg).components)


def test_subtotals_by_hand():
    cfg = transformer("gpt2", 1, "pre")
    attention = 2 * 3 * 6 * (3 + 2) + 3 * (2 * 3 + 2) + 6
    assert dict(count_for_config(cfg).components) == {
        "embedding": 6 * 13, "positional_encoding": 6 * 5, "embedding_layer_norm": 12,
        "attention": 2 * attention, "feedforward": 2 * (2 * 6 * 7 + 6 + 7),
        "block_layer_norms": 2 * 24, "output_projection_tied": 0,
    }
    rnn = ModelConfig(arch="rnn", d_e=4, vocab_size=9, max_len=5, L=3)
    assert dict(count_for_config(rnn).components)["recurrent_layers"] == 3 * (2 * 16 + 4)
    lstm = ModelConfig(arch="lstm", d_e=4, vocab_size=9, max_len=5, L=3)
    assert dict(count_for_config(lstm).components)["recurrent_layers"] == 3 * 4 * 4 * 9
    ffnn = CONFIGS["ffnn-2"]
    assert dict(count_for_config(ffnn).components) == {
        "embedding": 21, "hidden_layers": 5 * 13 + 2 * 6, "output_projection": 14}


@pytest.mark.parametrize("name", ["gpt2-zeta1-pre", "bert-zeta0-post", "lstm-L3", "ffnn-3"])
def test_missing_tensor_is_an_audit_mismatch(name):
    cfg = CONFIGS[name]
    tensors = dict(init_weights(cfg, 3).named_tensors())
    tensors.pop(list(tensors)[-1])
    with pytest.raises(AuditMismatchError, match=f"for arch '{cfg.arch}'"):
        audit_config(cfg, tensors)


def test_report_formats():
    report = count_for_config(CONFIGS["rnn-L1"])
    assert report.as_key_values().splitlines() == [
        "arch=rnn", "embedding=36", "recurrent_layers=36", "output_projection_tied=0", "total=72"]
    table = report.as_table().splitlines()
    assert table[0] == "parameter count for rnn"
    assert table[-1].split() == ["total", "72"]
