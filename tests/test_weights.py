"""Seeded initialization: determinism, the seed's range, archive bytes, the
checks of assemble_weights, records that take every field from their builder,
and deep copies."""

import copy
import dataclasses
import hashlib
import re

import numpy as np
import pytest

from nlmkit.archive import load_weights, save_weights
from nlmkit.errors import ConfigError, NlmError, ShapeError
from nlmkit.training import named_tensor_view
from nlmkit.weights import BUILDERS, assemble_weights, init_weights, tensor_layout, zeros_weights

from conftest import FIXED, per_gate_lstm_tensors, per_head_attention_tensors, tiny_gpt2_config


class TestInitWeightsSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError) as err:
            init_weights(tiny_gpt2_config(), seed)
        assert isinstance(err.value, NlmError)

    def test_tensor_numpy_cannot_address_is_refused_before_any_array(self):
        cfg = tiny_gpt2_config(max_len=2**62)  # emb.pos holds 8 * 2**62 float64
        with pytest.raises(ConfigError, match=rf"tensor emb.pos of shape \(8, {2**62}\)"):
            init_weights(cfg, 0)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_are_accepted_and_deterministic(self, seed):
        a = named_tensor_view(init_weights(tiny_gpt2_config(), seed))
        b = named_tensor_view(init_weights(tiny_gpt2_config(), seed))
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)


# The fixed configs this file pins, under its test ids
VARIANTS = {name: FIXED[key] for name, key in [
    ("gpt2-zeta0", "gpt2-zeta0-post"), ("gpt2-zeta1", "gpt2-zeta1-post"),
    ("gpt2-zeta1-pre", "gpt2-zeta1-pre"), ("bert-zeta0", "bert-zeta0-post"),
    ("bert-zeta1", "bert-zeta1-post"), ("rnn", "rnn-L2"), ("lstm", "lstm-L2"),
    ("ffnn-1", "ffnn-1"), ("ffnn-3", "ffnn-3")]}

# sha256 of save_weights(init_weights(cfg, 7)): the names, their order and
# every bit of the seeded values
GOLDEN = {
    "gpt2-zeta0": "f43659aea1f19daaff4f3fba96bcb3ea6deb5077763c72355e5e85e27fe69ca8",
    "gpt2-zeta1": "e1624bb18a72e4d4af1a834fab962b2536d59ba896fea897e388d97f7799fb64",
    "gpt2-zeta1-pre": "e1624bb18a72e4d4af1a834fab962b2536d59ba896fea897e388d97f7799fb64",
    "bert-zeta0": "161fb05786a2d2d9b2c6067134bd1c76befcc04dbad89e68191d2f878fac39c2",
    "bert-zeta1": "18f1b4b648e16b387f237d400f9973755c3f313e1c33709e4983103f438b295d",
    "rnn": "e9f5b335d8287c844b794fad20bc351c0f64d9d5c9e8ccc2c523a5c8f13ac5c0",
    "lstm": "79806ac7622ecd8cb71d883cabeaa53d2b39257517fc88f93d4c03a7cdc37baf",
    "ffnn-1": "a5240211dd129014e5436d4f0066f219a3e2d32405d8050bb5d44d15e27df37c",
    "ffnn-3": "75d3a50edce33c91b0714cad79a982a450790e98c0e4f63646dc045aa6f29d6d",
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_archive_bytes_are_golden(tmp_path, name):
    path = tmp_path / "w.anlm"
    save_weights(init_weights(VARIANTS[name], 7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_every_constructor_gives_the_canonical_layout(name):
    cfg = VARIANTS[name]
    layout = tensor_layout(cfg)
    for w in (init_weights(cfg, 1), zeros_weights(cfg),
              assemble_weights(cfg, {n: np.ones(s) for n, s in reversed(layout)})):
        assert [(n, t.shape) for n, t in w.named_tensors().items()] == layout


@pytest.mark.parametrize("arch", sorted(BUILDERS))
def test_a_loaded_archive_is_assembled_without_a_copy(tmp_path, arch):
    # a set-up reads each tensor once, into the array its model then runs on
    cfg = next(cfg for cfg in VARIANTS.values() if cfg.arch == arch)
    path = tmp_path / "w.anlm"
    save_weights(init_weights(cfg, 5), path)
    loaded = load_weights(path)
    adopted = assemble_weights(cfg, loaded).named_tensors()
    assert list(adopted) == list(loaded) and all(adopted[k] is t for k, t in loaded.items())


def records(value):
    """The dataclass instances in a weights tree, outermost first."""
    if dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from records(getattr(value, f.name))
    elif isinstance(value, list):
        for item in value:
            yield from records(item)


@pytest.mark.parametrize("arch", sorted(BUILDERS))
def test_every_record_field_comes_from_its_builder(arch):
    # fields written through ** escape the default scans of tests/test_reachability.py
    built = [zeros_weights(cfg) for cfg in VARIANTS.values() if cfg.arch == arch]
    defaulted = {f"{type(r).__name__}.{f.name}" for w in built for r in records(w)
                 for f in dataclasses.fields(r) if f.init and (
                     f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING)}
    assert built and defaulted == set()


class TestAssembleRefuses:
    def tensors(self):
        return dict(init_weights(VARIANTS["gpt2-zeta1"], 2).named_tensors())

    def test_missing_tensor(self):
        tensors = self.tensors()
        del tensors["blk2.bV"]
        with pytest.raises(ConfigError, match=r"missing tensors: \['blk2.bV'\]"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_extra_tensor(self):
        tensors = self.tensors()
        tensors["blk3.WO"] = np.zeros((6, 6))
        with pytest.raises(ConfigError, match=r"unexpected tensors: \['blk3.WO'\]"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_zeta_zero_refuses_bias_tensors(self):
        with pytest.raises(ConfigError, match="unexpected tensors"):
            assemble_weights(VARIANTS["gpt2-zeta0"], self.tensors())

    @pytest.mark.parametrize("shape", [(6, 3), (3, 3, 6), (3, 6, 3, 1), (54,)])
    def test_mis_shaped_tensor(self, shape):
        tensors = self.tensors()
        tensors["blk1.WK"] = np.zeros(shape)
        with pytest.raises(ShapeError, match=r"blk1.WK has shape .*, expected \(3, 6, 3\)"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_adopts_arrays_by_reference(self):
        tensors = self.tensors()
        w = assemble_weights(VARIANTS["gpt2-zeta1"], tensors)
        assert w.blocks[1].mha.w_q is tensors["blk2.WQ"]
        assert w.named_tensors()["emb.E"] is w.embedding
        tensors = dict(init_weights(VARIANTS["lstm"], 2).named_tensors())
        w = assemble_weights(VARIANTS["lstm"], tensors)  # the passes read no gate copy
        assert w.layers[0].u is tensors["lstm.l1.U"]
        assert w.layers[1].b is tensors["lstm.l2.b"]

    @pytest.mark.parametrize("name", ["gpt2-zeta1", "bert-zeta0"])
    def test_attention_archive_in_the_per_head_layout(self, name):
        tensors = per_head_attention_tensors(init_weights(VARIANTS[name], 2).named_tensors())
        assert "blk1.h1.WQ" in tensors
        kinds = "WQ WK WV bQ bK bV".split()[:6 if VARIANTS[name].zeta else 3]
        stacked = [f"blk{l}.{kind}" for l in (1, 2) for kind in kinds]
        with pytest.raises(ConfigError, match=re.escape(f"missing tensors: {sorted(stacked)}")):
            assemble_weights(VARIANTS[name], tensors)

    def test_lstm_archive_in_the_per_gate_layout(self):
        tensors = per_gate_lstm_tensors(VARIANTS["lstm"])
        stacked = [f"lstm.l{l}.{kind}" for l in (1, 2) for kind in "UWb"]
        with pytest.raises(ConfigError, match=re.escape(f"missing tensors: {sorted(stacked)}")):
            assemble_weights(VARIANTS["lstm"], tensors)


@pytest.mark.parametrize("name", ["ffnn-3", "rnn", "lstm", "gpt2-zeta1", "bert-zeta1"])
def test_deep_copy_is_equal_independent_and_wired_like_the_original(name):
    w = init_weights(VARIANTS[name], 3)
    c = copy.deepcopy(w)
    original, copied = w.named_tensors(), c.named_tensors()
    assert list(copied) == list(original)
    for k, t in original.items():
        assert copied[k].shape == t.shape and copied[k].tobytes() == t.tobytes()
        assert not np.shares_memory(copied[k], t)
    # each field is its named entry, so gd_step's in-place update reaches the passes
    name_of, reached = {id(t): k for k, t in original.items()}, set()
    for record, twin in zip(records(w), records(c), strict=True):
        for f in dataclasses.fields(record):
            t = getattr(record, f.name)
            if isinstance(t, np.ndarray):
                reached.add(name_of[id(t)])
                assert getattr(twin, f.name) is copied[name_of[id(t)]]
    assert reached == original.keys()
