"""CLI exit codes: 1 for usage errors, 2 for data errors, never a traceback."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlmkit.archive import MAGIC, save_weights
from nlmkit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from nlmkit.config import load_config
from nlmkit.inference import MAX_TOKENS
from nlmkit.kernels import softmax
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.transformer import gpt2_forward
from nlmkit.weights import init_weights

import oracles
from conftest import per_gate_lstm_tensors

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
    ["generate", "--config", "c", "--weights", "w", "--vocab", "v", "--prompt", "a",
     "--steps", "\u0663"],
    ["train-toy", "--config", "c", "--vocab", "v", "--corpus", "t", "--steps", "1",
     "--lr", "0.1", "--seed", "1_0", "--out", "o"],
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


def test_audit_of_per_gate_lstm_archive_exits_with_data_error(tmp_path, capsys):
    # an archive from before the gates were stored stacked in lstm.l{l}.U, .W and .b
    config = tmp_path / "model.cfg"
    config.write_text("arch=lstm\nd_e=5\nL=2\nvocab_size=11\nmax_len=6\n")
    weights = tmp_path / "w.anlm"
    save_weights(per_gate_lstm_tensors(load_config(config)), weights)
    code, err = run(["audit", "--config", str(config), "--weights", str(weights)], capsys)
    assert code == EXIT_DATA
    assert err.startswith("nlmkit: error: weights are missing tensors: ['lstm.l1.U', ")
    assert err.count("\n") == 1 and "Traceback" not in err


WORDS = [f"w{i}" for i in range(11)]
TINY_MODELS = {
    "gpt2": GPT2_CONFIG,
    "lstm": "arch=lstm\nd_e=5\nL=2\nvocab_size=11\nmax_len=6\n",
}


def write_model(tmp_path, arch, text=None):
    """Config (`text`, or the arch's tiny one), vocabulary and archive of a
    seeded model; returns the --config/--weights/--vocab arguments and the
    per-position forward pass."""
    config, vocab, archive = (tmp_path / f"{arch}.{ext}" for ext in ("cfg", "vocab", "anlm"))
    config.write_text(text or TINY_MODELS[arch])
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


@pytest.mark.parametrize("arch,text", [
    ("lstm", None),
    ("ffnn", "arch=ffnn\nd_e=2\nhidden_dims=3\nvocab_size=11\nmax_len=2\n"),
])
def test_generate_refuses_more_steps_than_the_token_bound(tmp_path, arch, text):
    # a child process, so that a count the bound misses times out instead
    # of growing the test process until it is killed
    args, _ = write_model(tmp_path, arch, text)
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["generate", *args, "--prompt", "w3 w1", "--steps", str(2**64 - 1)]
    done = subprocess.run([sys.executable, "-m", "nlmkit.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == EXIT_DATA
    want = f"nlmkit: error: prompt plus steps is {2**64 + 1} tokens, over {MAX_TOKENS}\n"
    assert done.stderr == want


@pytest.mark.parametrize("arch", sorted(TINY_MODELS))
def test_score_prints_the_per_context_nll(tmp_path, capsys, arch):
    args, forward = write_model(tmp_path, arch)
    ids = np.random.default_rng(2).integers(0, 11, 20).tolist()
    text = " ".join(WORDS[i] for i in ids)
    code, out, err = run(["score", *args, "--text", text], capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    want = oracles.corpus_nll(ids, lambda ctx: softmax(forward(ctx)[:, -1]), 6)
    assert float(out) == pytest.approx(want, rel=1e-10)


def test_score_of_a_gpt2_without_blocks_prints_the_per_context_nll(tmp_path, capsys):
    args, forward = write_model(tmp_path, "gpt2", GPT2_CONFIG.replace("L=1", "L=0"))
    ids = [3, 1, 4, 1, 5, 9, 2, 6]  # more than max_len=6, so full windows are scored
    code, out, err = run(["score", *args, "--text", " ".join(WORDS[i] for i in ids)], capsys,
                         out=True)
    assert code == EXIT_OK and "Traceback" not in err
    want = oracles.corpus_nll(ids, lambda ctx: softmax(forward(ctx)[:, -1]), 6)
    assert float(out) == pytest.approx(want, rel=1e-10)


BERT_CONFIG = "arch=bert\nd_e=8\nd_k=4\nd_v=4\nd_f=16\nM=2\nL=1\nvocab_size=11\nmax_len=8\n"
BERT_WORDS = ["[CLS]", "[SEP]", "[MASK]"] + [f"w{i}" for i in range(3, 11)]


def write_bert(tmp_path):
    """A tiny seeded bert archive and its vocabulary; returns the CLI
    arguments and the weights."""
    config, vocab, archive = (tmp_path / f"bert.{ext}" for ext in ("cfg", "vocab", "anlm"))
    config.write_text(BERT_CONFIG)
    vocab.write_text("\n".join(BERT_WORDS) + "\n")
    w = init_weights(load_config(config), 9)
    save_weights(w, archive)
    return ["--config", str(config), "--weights", str(archive), "--vocab", str(vocab)], w


def test_fill_mask_prints_the_oracle_argmax_at_each_mask(tmp_path, capsys):
    args, w = write_bert(tmp_path)
    text = "[CLS] w3 [MASK] w5 [SEP] w7 [MASK] [SEP]"
    code, out, err = run(["fill-mask", *args, "--text", text], capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    ids = [BERT_WORDS.index(t) for t in text.split()]
    segments = ["A"] * 5 + ["B"] * 3
    dists = oracles.bert_mlm(oracles.bert_hidden(ids, segments, w), w)
    want = [BERT_WORDS[max(range(len(d)), key=d.__getitem__)] for d in (dists[2], dists[6])]
    assert out.split() == want


def test_fill_mask_without_mask_is_a_data_error(tmp_path, capsys):
    args, _ = write_bert(tmp_path)
    code, err = run(["fill-mask", *args, "--text", "[CLS] w3 w4 [SEP]"], capsys)
    assert code == EXIT_DATA
    assert "[MASK]" in err and "Traceback" not in err


def test_fill_mask_on_a_non_bert_model_is_a_data_error(tmp_path, capsys):
    args, _ = write_model(tmp_path, "gpt2")
    code, err = run(["fill-mask", *args, "--text", "w3 w4"], capsys)
    assert code == EXIT_DATA
    assert "arch=bert" in err and "Traceback" not in err


PAPER_SCALE = "d_e=768\nd_k=64\nd_v=64\nd_f=3072\nM=12\nL=12\n"


@pytest.mark.parametrize("arch,sizes,flags,total", [
    ("gpt2", "vocab_size=50257\nmax_len=1024\n", [], "124,439,808"),
    ("bert", "vocab_size=30522\nmax_len=512\n", [], "109,482,240"),
    ("bert", "vocab_size=30522\nmax_len=512\n", ["--with-mlm", "--with-nsp"], "110,106,428"),
])
def test_count_params_prints_paper_scale_totals(tmp_path, capsys, arch, sizes, flags, total):
    config = tmp_path / f"{arch}.cfg"
    config.write_text(f"arch={arch}\n" + PAPER_SCALE + sizes)
    code, out, err = run(["count-params", "--config", str(config), *flags], capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    assert out.splitlines()[-1].split() == ["total", total]


@pytest.mark.parametrize("fmt", ["table", "kv"])
def test_count_params_refuses_sizes_past_int64(tmp_path, capsys, fmt):
    # the embedding count would have 5,000 digits, past int-to-str's limit
    config = tmp_path / "rnn.cfg"
    config.write_text(f"arch=rnn\nd_e={'9' * 2500}\nL=1\nvocab_size={'9' * 2500}\nmax_len=4\n")
    code, out, err = run(["count-params", "--config", str(config), "--format", fmt], capsys,
                         out=True)
    assert code == EXIT_DATA and out == ""
    assert err == "nlmkit: error: d_e must be at most 2**63 - 1\n"


def test_count_params_counts_the_largest_size(tmp_path, capsys):
    config = tmp_path / "rnn.cfg"
    config.write_text(f"arch=rnn\nd_e=1\nL=1\nvocab_size={2**63 - 1}\nmax_len=4\n")
    code, out, err = run(["count-params", "--config", str(config), "--format", "kv"], capsys,
                         out=True)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-1] == f"total={2**63 - 1 + 3}"


FFNN_CONFIG = "arch=ffnn\nd_e=2\nhidden_dims=3\nvocab_size=4\nmax_len=2\n"


def train_toy_files(tmp_path, vocab="a\nb\nc\nd\n", corpus="a b c d a b c d"):
    """--config/--vocab/--corpus/--out files of a tiny feedforward model."""
    paths = {name: tmp_path / name for name in ("cfg", "vocab", "corpus", "out")}
    paths["cfg"].write_text(FFNN_CONFIG)
    for name, text in (("vocab", vocab), ("corpus", corpus)):
        if isinstance(text, bytes):
            paths[name].write_bytes(text)
        else:
            paths[name].write_text(text, encoding="utf-8")
    return paths


def train_toy_argv(paths, lr="0.1"):
    return ["train-toy", "--config", str(paths["cfg"]), "--vocab", str(paths["vocab"]),
            "--corpus", str(paths["corpus"]), "--steps", "1", "--lr", lr,
            "--out", str(paths["out"])]


def test_train_toy_runs(tmp_path, capsys):
    code, out, err = run(train_toy_argv(train_toy_files(tmp_path)), capsys, out=True)
    assert code == EXIT_OK and "Traceback" not in err
    assert out.splitlines()[0].startswith("1\t")


def test_config_too_big_to_allocate_is_a_data_error(tmp_path, capsys):
    # the first hidden layer is 10**15 x 2 float64 (14 PiB), more than any
    # address space holds, so the allocation fails without touching memory
    paths = train_toy_files(tmp_path)
    paths["cfg"].write_text("arch=ffnn\nd_e=1\nvocab_size=4\nmax_len=2\n"
                            "hidden_dims=1000000000000000\n")
    code, err = run(train_toy_argv(paths), capsys)
    assert code == EXIT_DATA
    assert err.startswith("nlmkit: error: ") and err.count("\n") == 1


def test_non_ascii_digit_in_vocab_header_is_a_data_error(tmp_path, capsys):
    paths = train_toy_files(tmp_path, vocab="#special UNK=\u00b2\na\nb\nc\nd\n")
    code, err = run(train_toy_argv(paths), capsys)
    assert code == EXIT_DATA
    assert "bad special-token header" in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["cfg", "vocab", "corpus"])
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, which):
    paths = train_toy_files(tmp_path)
    paths[which].write_bytes(paths[which].read_bytes() + b"\xff\xfe\n")
    code, err = run(train_toy_argv(paths), capsys)
    assert code == EXIT_DATA
    assert "not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["cfg", "vocab", "corpus"])
def test_directory_as_input_is_a_usage_error(tmp_path, capsys, which):
    paths = train_toy_files(tmp_path)
    paths[which] = tmp_path
    code, err = run(train_toy_argv(paths), capsys)
    assert code == EXIT_USAGE
    assert "cannot read file" in err and "Traceback" not in err


def test_directory_as_config_of_count_params_is_a_usage_error(tmp_path, capsys):
    code, err = run(["count-params", "--config", str(tmp_path)], capsys)
    assert code == EXIT_USAGE
    assert "cannot read file" in err and "Traceback" not in err


@pytest.mark.parametrize("lr", ["0", "-1", "nan", "inf", "abc"])
def test_learning_rate_must_be_finite_and_positive(tmp_path, capsys, lr):
    code, err = run(train_toy_argv(train_toy_files(tmp_path), lr=lr), capsys)
    assert code == EXIT_USAGE
    assert "usage:" in err and "--lr" in err and "Traceback" not in err


@pytest.mark.parametrize("out", ["", "missing/w.anlm"], ids=["directory", "missing-parent"])
def test_unwritable_out_fails_before_training(tmp_path, capsys, out):
    paths = train_toy_files(tmp_path)
    paths["out"] = tmp_path / out  # the directory itself, or a file in a missing directory
    code, stdout, err = run(train_toy_argv(paths), capsys, out=True)
    assert code == EXIT_USAGE and stdout == ""
    assert "cannot write file" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_toy_stops_at_a_non_finite_loss_and_writes_nothing(tmp_path, capsys):
    paths = train_toy_files(tmp_path, vocab="a\nb\nc\nd\ne\nf\n", corpus="a b c d e f a b c d e f")
    paths["cfg"].write_text(FFNN_CONFIG.replace("vocab_size=4", "vocab_size=6"))
    argv = train_toy_argv(paths, lr="1e308")
    argv[argv.index("--steps") + 1] = "3"
    code, stdout, err = run(argv, capsys, out=True)
    assert code == EXIT_DATA and not paths["out"].exists()
    assert err.startswith("nlmkit: error: training diverged: the loss after step 2 of 3 is inf")
    assert err.count("\n") == 1 and stdout.count("\n") == 1


@pytest.mark.parametrize("config", [
    "arch=rnn\nd_e=2\nL=1\nvocab_size=4\nmax_len=1\n",
    "arch=lstm\nd_e=2\nL=1\nvocab_size=4\nmax_len=1\n",
    GPT2_CONFIG.replace("vocab_size=11\nmax_len=6", "vocab_size=4\nmax_len=1"),
], ids=["rnn", "lstm", "gpt2"])
def test_train_toy_refuses_max_len_one(tmp_path, capsys, config):
    paths = train_toy_files(tmp_path)
    paths["cfg"].write_text(config)
    argv = train_toy_argv(paths)
    argv[argv.index("--steps") + 1] = "0"
    code, stdout, err = run(argv, capsys, out=True)
    assert code == EXIT_DATA and stdout == ""
    assert err.startswith("nlmkit: error: ") and err.count("\n") == 1 and "max_len 1" in err


def test_tensor_numpy_cannot_address_is_a_data_error(tmp_path, capsys):
    # emb.pos is 2 x 2**62 float64, 2**66 bytes: refused before any array is asked for
    paths = train_toy_files(tmp_path)
    paths["cfg"].write_text(GPT2_CONFIG.replace("vocab_size=11\nmax_len=6",
                                                f"vocab_size=4\nmax_len={2**62}"))
    argv = train_toy_argv(paths)
    argv[argv.index("--steps") + 1] = "0"
    code, stdout, err = run(argv, capsys, out=True)
    assert code == EXIT_DATA and stdout == ""
    assert err.startswith("nlmkit: error: tensor emb.pos") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    GPT2_CONFIG.replace("d_e=8", "d_e=\u0664"),
    GPT2_CONFIG.replace("L=1", "L=1_0"),
    FFNN_CONFIG.replace("hidden_dims=3", "hidden_dims=4,\u0664"),
], ids=["arabic-indic-digit", "underscore", "hidden-dims"])
def test_integer_outside_ascii_digits_in_config_is_a_data_error(tmp_path, capsys, config):
    path = tmp_path / "model.cfg"
    path.write_text(config, encoding="utf-8")
    code, stdout, err = run(["count-params", "--config", str(path)], capsys, out=True)
    assert code == EXIT_DATA and stdout == ""
    assert err.startswith("nlmkit: error: key ") and " expects " in err and err.count("\n") == 1


def test_config_with_byte_order_mark_is_read(tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbf" + GPT2_CONFIG.encode())
    code, out, err = run(["count-params", "--config", str(config)], capsys, out=True)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-1].split()[0] == "total"
