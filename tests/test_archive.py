"""ANLM archive round trips and the rejection of malformed or hostile files."""

import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nlmkit.archive import MAGIC, load_weights, save_weights
from nlmkit.config import ARCHITECTURES, ModelConfig
from nlmkit.errors import (
    ArchiveDuplicateNameError,
    ArchiveError,
    ArchiveMagicError,
    ArchiveTruncatedError,
    ArchiveVersionError,
)
from nlmkit.weights import assemble_weights, init_weights

from strategies import models


def header(count=1, version=1) -> bytes:
    return MAGIC + struct.pack("<QQ", version, count)


def entry(name: bytes, dims, payload: bytes = b"", rank=None) -> bytes:
    rank = len(dims) if rank is None else rank
    return (struct.pack("<Q", len(name)) + name + struct.pack("<Q", rank)
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


def write(tmp_path, data: bytes):
    path = tmp_path / "w.anlm"
    path.write_bytes(data)
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @settings(max_examples=6)
    @given(data=st.data())
    def test_model_weights_round_trip_bitwise_and_assemble_by_reference(self, tmp_path_factory,
                                                                         arch, data):
        cfg, w, _ = data.draw(models((arch,)))
        path = tmp_path_factory.mktemp("archive") / "w.anlm"
        save_weights(w, path)
        loaded, original = load_weights(path), w.named_tensors()
        assert list(loaded) == list(original)
        for name, t in original.items():
            assert loaded[name].shape == t.shape and loaded[name].tobytes() == t.tobytes()
        adopted = assemble_weights(cfg, loaded).named_tensors()
        assert all(adopted[name] is t for name, t in loaded.items())

    @settings(max_examples=100)
    @given(bits=st.dictionaries(
        st.text(max_size=8),  # any Unicode but lone surrogates, which UTF-8 cannot encode
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
            lambda shape: arrays(np.uint64, shape, elements=st.integers(0, 2**64 - 1))),
        max_size=4))
    def test_any_names_shapes_and_bit_patterns(self, tmp_path_factory, bits):
        # raw bit patterns cover -0.0, subnormals, infinities and NaN payloads
        path = tmp_path_factory.mktemp("archive") / "w.anlm"
        save_weights({name: b.view(np.float64) for name, b in bits.items()}, path)
        loaded = load_weights(path)
        assert list(loaded) == list(bits)
        for name, b in bits.items():
            assert loaded[name].shape == b.shape
            npt.assert_array_equal(loaded[name].view(np.uint64), b)

    def test_two_loads_share_no_memory(self, tmp_path, rng):
        path = tmp_path / "w.anlm"
        save_weights({"a": rng.normal(size=(3, 5)), "bb": rng.normal(size=7), "c": 1.5}, path)
        first, second = load_weights(path), load_weights(path)
        assert not any(np.shares_memory(first[name], second[name]) for name in first)
        first["a"][...] = 0.0
        assert (second["a"] != 0.0).all()

    def test_zero_size_tensor(self, tmp_path):
        path = write(tmp_path, header() + entry(b"z", (0, 7)))
        assert load_weights(path)["z"].shape == (0, 7)


class TestMalformed:
    def test_bad_magic(self, tmp_path):
        with pytest.raises(ArchiveMagicError):
            load_weights(write(tmp_path, b"NOPE" + header()[4:]))

    def test_bad_version(self, tmp_path):
        with pytest.raises(ArchiveVersionError):
            load_weights(write(tmp_path, header(version=2)))

    def test_truncated_payload(self, tmp_path):
        data = header() + entry(b"a", (2, 2), struct.pack("<3d", 1.0, 2.0, 3.0))
        with pytest.raises(ArchiveTruncatedError, match="payload of a"):
            load_weights(write(tmp_path, data))

    def test_duplicate_name(self, tmp_path):
        one = entry(b"a", (1,), struct.pack("<d", 1.0))
        with pytest.raises(ArchiveDuplicateNameError):
            load_weights(write(tmp_path, header(count=2) + one + one))

    def test_trailing_bytes(self, tmp_path):
        with pytest.raises(ArchiveError, match="trailing"):
            load_weights(write(tmp_path, header(count=0) + b"x"))


class TestHostileHeaders:
    """Declared lengths far beyond the file must fail before any allocation."""

    def test_huge_name_length(self, tmp_path):
        data = header() + struct.pack("<Q", 2**62) + b"abc"
        with pytest.raises(ArchiveTruncatedError, match="tensor name"):
            load_weights(write(tmp_path, data))

    def test_huge_rank(self, tmp_path):
        data = header() + entry(b"a", (), rank=2**61) + b"\0" * 16
        with pytest.raises(ArchiveTruncatedError, match="dims of a"):
            load_weights(write(tmp_path, data))

    def test_huge_dims(self, tmp_path):
        data = header() + entry(b"a", (2**40, 2**40), b"\0" * 64)
        with pytest.raises(ArchiveTruncatedError, match="payload of a"):
            load_weights(write(tmp_path, data))

    def test_huge_tensor_count(self, tmp_path):
        with pytest.raises(ArchiveTruncatedError, match="name length"):
            load_weights(write(tmp_path, header(count=2**64 - 1)))

    def test_unindexable_zero_size_dims(self, tmp_path):
        data = header() + entry(b"a", (0, 2**64 - 1))
        with pytest.raises(ArchiveError, match="unsupported dims"):
            load_weights(write(tmp_path, data))


def load_peak(path) -> int:
    """Bytes allocated at the peak of `load_weights(path)`."""
    tracemalloc.start()
    try:
        load_weights(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gpt2_archive(tmp_path, vocab_size: int):
    cfg = ModelConfig(arch="gpt2", d_e=16, d_k=4, d_v=4, d_f=32, M=4, L=2,
                      vocab_size=vocab_size, max_len=16)
    path = tmp_path / "gpt2.anlm"
    save_weights(init_weights(cfg, 1), path)
    return path


def zero_size_archive(tmp_path, count: int):
    """`count` distinct one-dim tensors of no entries: about 30 bytes of file
    each, and one array object, one name and one dict slot of memory each."""
    names = [str(i).encode() for i in range(count)]
    return write(tmp_path, header(count) + b"".join(entry(name, (0,)) for name in names))


# Per kind of archive, a load's peak over the file's size.  A payload is
# read once into its own array, so an archive of weights peaks near its
# size; an entry with no payload still makes Python objects worth about ten
# times its ~30 bytes.
ARCHIVES = {"gpt2": (gpt2_archive, 1.25), "zero-size": (zero_size_archive, 12)}
LOAD_SLACK = 64 * 1024  # the file object's buffer and the loader's fixed cost


class TestLoadAllocation:
    """Only the checks of declared lengths against the bytes left bound what a
    load allocates, so its peak grows linearly with the file's size."""

    @pytest.mark.parametrize("kind,scale", [("gpt2", 500), ("gpt2", 5000),
                                            ("zero-size", 2000), ("zero-size", 20000)])
    def test_peak_is_linear_in_the_file_size(self, tmp_path, kind, scale):
        make, factor = ARCHIVES[kind]
        path = make(tmp_path, scale)
        assert load_peak(path) <= factor * path.stat().st_size + LOAD_SLACK
