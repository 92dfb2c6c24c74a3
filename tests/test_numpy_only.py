"""The package runs on numpy alone: with every ``scipy`` import refused, it
imports, runs a forward pass of each architecture and the CLI, and leaves
no ``scipy`` module loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = r'''
import contextlib, importlib.abc, io, json, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

import nlmkit
import nlmkit.cli
from nlmkit import (TokenSequence, Vocabulary, bert_forward, ffnn_batch_forward,
                    gpt2_forward, init_weights, parse_config, recurrent_lm_forward)

configs = json.loads(sys.argv[1])
ids = [3, 4, 5, 6]
shapes = {}
for arch, text in configs.items():
    cfg = parse_config(text)
    w = init_weights(cfg, 7)
    if arch == "ffnn":
        out = ffnn_batch_forward(np.array([ids[:2], ids[2:]]), w)
    elif arch == "bert":
        vocab = Vocabulary(["[CLS]", "[SEP]", "[MASK]"] + [str(i) for i in range(8)], {})
        out = bert_forward(TokenSequence([0] + ids + [1]), w, vocab)
    elif arch == "gpt2":
        out = gpt2_forward(ids, w)
    else:
        out = recurrent_lm_forward(ids, w)
    assert np.isfinite(out).all(), arch
    shapes[arch] = list(out.shape)
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = nlmkit.cli.main(["count-params", "--config", sys.argv[2]])
try:
    import scipy.special  # noqa: F401
    refused = False
except ImportError:
    refused = True
print(json.dumps({"shapes": shapes, "count_params": code, "total": stdout.getvalue().split()[-1],
                  "refused": refused, "scipy": sorted(m for m in sys.modules
                                                      if m.split(".")[0] == "scipy")}))
'''

SIZES = "vocab_size=11\nmax_len=6\n"
TRANSFORMER = "d_e=8\nd_k=4\nd_v=4\nd_f=16\nM=2\nL=1\n"
CONFIGS = {
    "ffnn": "arch=ffnn\nd_e=2\nhidden_dims=3\nactivation=sigmoid\nvocab_size=11\nmax_len=2\n",
    "rnn": "arch=rnn\nd_e=4\nL=2\n" + SIZES,
    "lstm": "arch=lstm\nd_e=4\nL=2\n" + SIZES,
    "gpt2": "arch=gpt2\n" + TRANSFORMER + "gelu_mode=exact\n" + SIZES,
    "bert": "arch=bert\n" + TRANSFORMER + "gelu_mode=exact\n" + SIZES,
}


def test_package_and_cli_run_with_scipy_refused(tmp_path):
    config = tmp_path / "lstm.cfg"
    config.write_text(CONFIGS["lstm"])
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(CONFIGS), str(config)],
                           capture_output=True, text=True, timeout=120, env=env)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["shapes"] == {"ffnn": [11, 2], "rnn": [11, 4], "lstm": [11, 4],
                                "gpt2": [11, 4], "bert": [8, 6]}
    assert report["count_params"] == 0 and report["total"] == "332"
    assert report["refused"] and report["scipy"] == []
