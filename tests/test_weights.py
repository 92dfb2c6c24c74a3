"""Seeded initialization: determinism, the seed's range, archive bytes, the
checks of assemble_weights, and records that take every field from their builder."""

import dataclasses
import hashlib

import numpy as np
import pytest

from nlmkit.archive import save_weights
from nlmkit.config import ModelConfig
from nlmkit.errors import ConfigError, NlmError, ShapeError
from nlmkit.training import named_tensor_view
from nlmkit.weights import BUILDERS, assemble_weights, init_weights, tensor_layout, zeros_weights

from conftest import tiny_gpt2_config


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


def transformer(arch, zeta, variant="post"):
    return ModelConfig(arch=arch, d_e=6, d_k=3, d_v=2, d_f=7, M=3, L=2, vocab_size=13,
                       max_len=5, zeta=zeta, norm_variant=variant)


VARIANTS = {
    "gpt2-zeta0": transformer("gpt2", 0),
    "gpt2-zeta1": transformer("gpt2", 1),
    "gpt2-zeta1-pre": transformer("gpt2", 1, "pre"),
    "bert-zeta0": transformer("bert", 0),
    "bert-zeta1": transformer("bert", 1),
    "rnn": ModelConfig(arch="rnn", d_e=4, vocab_size=9, max_len=5, L=2),
    "lstm": ModelConfig(arch="lstm", d_e=4, vocab_size=9, max_len=5, L=2),
    "ffnn-1": ModelConfig(arch="ffnn", d_e=3, vocab_size=7, max_len=4, hidden_dims=[5]),
    "ffnn-3": ModelConfig(arch="ffnn", d_e=3, vocab_size=7, max_len=4, hidden_dims=[6, 4, 3]),
}

# sha256 of save_weights(init_weights(cfg, 7)): the names, their order and
# every bit of the seeded values
GOLDEN = {
    "gpt2-zeta0": "3e6faaa111651aeb1fc045194f8f3b1eca3d80d9615b750ecfac000abf6a43d3",
    "gpt2-zeta1": "ec766375ff7ce7bf88cbfb88a0060fff4cfad0a4846b6e4b33cc72689adf03f4",
    "gpt2-zeta1-pre": "ec766375ff7ce7bf88cbfb88a0060fff4cfad0a4846b6e4b33cc72689adf03f4",
    "bert-zeta0": "64f2737e3f7973ff920440b4f05c4ff5d1af4d77bfdd384e7fe9da20cd90a957",
    "bert-zeta1": "822cecabb5a417031df538b5a21e094c02411bb61c0ee84f793cf8c566358df3",
    "rnn": "e9f5b335d8287c844b794fad20bc351c0f64d9d5c9e8ccc2c523a5c8f13ac5c0",
    "lstm": "4494fb0f0499c8280b1803980007b2097e8b587de25c7746a6fd1ca80fc7f400",
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
        del tensors["blk2.h3.bV"]
        with pytest.raises(ConfigError, match=r"missing tensors: \['blk2.h3.bV'\]"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_extra_tensor(self):
        tensors = self.tensors()
        tensors["blk3.WO"] = np.zeros((6, 6))
        with pytest.raises(ConfigError, match=r"unexpected tensors: \['blk3.WO'\]"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_zeta_zero_refuses_bias_tensors(self):
        with pytest.raises(ConfigError, match="unexpected tensors"):
            assemble_weights(VARIANTS["gpt2-zeta0"], self.tensors())

    @pytest.mark.parametrize("shape", [(6, 2), (3, 6), (6, 3, 1), (18,)])
    def test_mis_shaped_tensor(self, shape):
        tensors = self.tensors()
        tensors["blk1.h2.WK"] = np.zeros(shape)
        with pytest.raises(ShapeError, match=r"blk1.h2.WK has shape .*, expected \(6, 3\)"):
            assemble_weights(VARIANTS["gpt2-zeta1"], tensors)

    def test_adopts_arrays_by_reference(self):
        tensors = self.tensors()
        w = assemble_weights(VARIANTS["gpt2-zeta1"], tensors)
        assert w.blocks[1].mha.heads[2].w_q is tensors["blk2.h3.WQ"]
        assert w.named_tensors()["emb.E"] is w.embedding
