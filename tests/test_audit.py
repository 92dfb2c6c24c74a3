"""Closed-form parameter counts against a literal count of the tensors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmkit.audit import audit_config, count_for_config, enumerate_weights
from nlmkit.config import ARCHITECTURES
from nlmkit.errors import AuditMismatchError
from nlmkit.weights import zeros_weights

from conftest import FIXED
from strategies import models

COMPONENTS = {
    "gpt2": ["embedding", "positional_encoding", "embedding_layer_norm", "attention",
             "feedforward", "block_layer_norms", "output_projection_tied"],
    "bert": ["embedding", "positional_encoding", "segment_encoding", "embedding_layer_norm",
             "attention", "feedforward", "block_layer_norms", "pooler", "output_projection_tied"],
    "rnn": ["embedding", "recurrent_layers", "output_projection_tied"],
    "lstm": ["embedding", "recurrent_layers", "output_projection_tied"],
    "ffnn": ["embedding", "hidden_layers", "output_projection"],
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
@settings(max_examples=8)
@given(data=st.data())
def test_closed_form_count_over_the_family(arch, data):
    """The closed form against the enumerated count, its components (which
    the head flags change for bert only), and a weight set one tensor short."""
    cfg, w, _ = data.draw(models((arch,)))
    report = audit_config(cfg, w)
    assert report.arch == cfg.arch
    assert report.total == enumerate_weights(w) == enumerate_weights(zeros_weights(cfg))
    base = count_for_config(cfg, False, False).components
    assert [c for c, _ in base] == COMPONENTS[cfg.arch]
    if arch != "bert":  # only bert has heads the flags add
        assert count_for_config(cfg, True, True).components == base
    tensors = dict(w.named_tensors())
    tensors.pop(list(tensors)[-1])
    with pytest.raises(AuditMismatchError, match=f"for arch '{cfg.arch}'"):
        audit_config(cfg, tensors)


def tensor_total(w, prefixes):
    return sum(t.size for name, t in w.named_tensors().items() if name.startswith(prefixes))


@pytest.mark.parametrize("zeta", [0, 1])
def test_bert_heads_are_counted_only_when_asked(zeta):
    cfg = FIXED[f"bert-zeta{zeta}-post"]
    w = zeros_weights(cfg)
    base = count_for_config(cfg, False, False)
    mlm = count_for_config(cfg, True, False)
    nsp = count_for_config(cfg, False, True)
    both = count_for_config(cfg, True, True)
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
    cfg = next(c for c in FIXED.values() if c.arch == arch)
    assert (count_for_config(cfg, True, True).components
            == count_for_config(cfg, False, False).components)


def test_subtotals_by_hand():
    cfg = FIXED["gpt2-zeta1-pre"]
    attention = 2 * 3 * 6 * (3 + 2) + 3 * (2 * 3 + 2) + 6
    assert dict(count_for_config(cfg, False, False).components) == {
        "embedding": 6 * 13, "positional_encoding": 6 * 5, "embedding_layer_norm": 12,
        "attention": 2 * attention, "feedforward": 2 * (2 * 6 * 7 + 6 + 7),
        "block_layer_norms": 2 * 24, "output_projection_tied": 0,
    }
    rnn, lstm = FIXED["rnn-L3"], FIXED["lstm-L3"]
    assert dict(count_for_config(rnn, False, False).components)["recurrent_layers"] == 3 * (2 * 16 + 4)
    assert dict(count_for_config(lstm, False, False).components)["recurrent_layers"] == 3 * 4 * 4 * 9
    ffnn = FIXED["ffnn-2"]
    assert dict(count_for_config(ffnn, False, False).components) == {
        "embedding": 21, "hidden_layers": 5 * 13 + 2 * 6, "output_projection": 14}


def test_report_formats():
    report = count_for_config(FIXED["rnn-L1"], False, False)
    assert report.as_key_values().splitlines() == [
        "arch=rnn", "embedding=36", "recurrent_layers=36", "output_projection_tied=0", "total=72"]
    table = report.as_table().splitlines()
    assert table[0] == "parameter count for rnn"
    assert table[-1].split() == ["total", "72"]
