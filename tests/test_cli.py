"""CLI exit codes: 1 for usage errors, 2 for data errors, never a traceback."""

import struct

import numpy as np
import pytest

from nlmkit.archive import MAGIC, save_weights
from nlmkit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from nlmkit.config import load_config
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.transformer import gpt2_forward
from nlmkit.weights import init_weights

import oracles

GPT2_CONFIG = "arch=gpt2\nd_e=8\nd_k=4\nd_v=4\nd_f=16\nM=2\nL=1\nvocab_size=11\nmax_len=6\n"


def run(argv, capsys, out=False):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return (code, captured.out, captured.err) if out else (code, captured.err)


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


WORDS = [f"w{i}" for i in range(11)]
TINY_MODELS = {
    "gpt2": GPT2_CONFIG,
    "lstm": "arch=lstm\nd_e=5\nL=2\nvocab_size=11\nmax_len=6\n",
}


def write_model(tmp_path, arch):
    """Config, vocabulary and archive of a tiny seeded model; returns the
    --config/--weights/--vocab arguments and the per-position forward pass."""
    config, vocab, archive = (tmp_path / f"{arch}.{ext}" for ext in ("cfg", "vocab", "anlm"))
    config.write_text(TINY_MODELS[arch])
    vocab.write_text("\n".join(WORDS) + "\n")
    w = init_weights(load_config(config), 5)
    save_weights(w, archive)
    forward = gpt2_forward if arch == "gpt2" else recurrent_lm_forward
    args = ["--config", str(config), "--weights", str(archive), "--vocab", str(vocab)]
    return args, lambda ids: forward(ids, w)


@pytest.mark.parametrize("arch", sorted(TINY_MODELS))
def test_generate_prints_the_full_recompute_continuation(tmp_path, capsys, arch):
    args, forward = write_model(tmp_path, arch)
    code, out, err = run(["generate", *args, "--prompt", "w3 w1", "--steps", "4"], capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    want = oracles.greedy_decode([3, 1], lambda ids: forward(ids).T, 4)
    assert out.split() == [WORDS[i] for i in want]


@pytest.mark.parametrize("arch", sorted(TINY_MODELS))
def test_score_prints_the_per_context_nll(tmp_path, capsys, arch):
    args, forward = write_model(tmp_path, arch)
    ids = np.random.default_rng(2).integers(0, 11, 20).tolist()
    text = " ".join(WORDS[i] for i in ids)
    code, out, err = run(["score", *args, "--text", text], capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    want = oracles.corpus_nll(ids, lambda ctx: forward(ctx)[:, -1], 6)
    assert float(out) == pytest.approx(want, rel=1e-10)
