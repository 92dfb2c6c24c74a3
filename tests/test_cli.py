"""CLI exit codes: 1 for usage errors, 2 for data errors, never a traceback."""

import struct

import pytest

from nlmkit.archive import MAGIC
from nlmkit.cli import EXIT_DATA, EXIT_USAGE, main

GPT2_CONFIG = "arch=gpt2\nd_e=8\nd_k=4\nd_v=4\nd_f=16\nM=2\nL=1\nvocab_size=11\nmax_len=6\n"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "c", "--weights", "w", "--vocab", "v", "--prompt", "a",
     "--steps", "-2"],
    ["generate", "--config", "c", "--weights", "w", "--vocab", "v", "--prompt", "a",
     "--steps", "two"],
    ["train-toy", "--config", "c", "--vocab", "v", "--corpus", "t", "--steps", "1",
     "--lr", "0.1", "--seed", "-1", "--out", "o"],
    ["train-toy", "--config", "c", "--vocab", "v", "--corpus", "t", "--steps", "-1",
     "--lr", "0.1", "--out", "o"],
    ["train-toy", "--config", "c", "--vocab", "v", "--corpus", "t", "--steps", "1",
     "--lr", "0.1", "--seed", str(2**64), "--out", "o"],
])
def test_negative_or_malformed_counts_are_usage_errors(argv, capsys):
    code, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("body", [
    struct.pack("<Q", 2**62) + b"abc",                   # name length
    struct.pack("<Q", 1) + b"a" + struct.pack("<Q", 2**61) + b"\0" * 16,   # rank
    struct.pack("<Q", 1) + b"a" + struct.pack("<3Q", 2, 2**40, 2**40),   # dims
])
def test_audit_of_hostile_archive_exits_with_data_error(tmp_path, capsys, body):
    config = tmp_path / "model.cfg"
    config.write_text(GPT2_CONFIG)
    weights = tmp_path / "w.anlm"
    weights.write_bytes(MAGIC + struct.pack("<QQ", 1, 1) + body)
    code, err = run(["audit", "--config", str(config), "--weights", str(weights)], capsys)
    assert code == EXIT_DATA
    assert "archive ends inside" in err
    assert "Traceback" not in err
