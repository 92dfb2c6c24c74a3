"""Ids are checked once, where they enter the package.

Every public path that takes ids refuses every kind of bad id with its
documented error, and the steps behind an entry run unchecked: a decode
step or a loss evaluation of the trainer checks no id and builds no mask.
"""

import functools
import sys

import numpy as np
import pytest

from nlmkit import attention, embeddings, inference
from nlmkit.config import ModelConfig
from nlmkit.errors import OutOfVocabularyError
from nlmkit.ffnn import ffnn_batch_forward, ffnn_forward
from nlmkit.inference import generate_tokens, make_forward, make_predict_next, min_context
from nlmkit.losses import WINDOW_BATCH, MlmTarget, ar_loss, corpus_nll, mlm_loss
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.training import train_toy
from nlmkit.transformer import bert_forward, gpt2_forward
from nlmkit.vocab import TokenSequence, Vocabulary
from nlmkit.weights import init_weights

from conftest import tiny_bert_config, tiny_gpt2_config

VOCAB = 11
MAX_LEN = 6
AT = 3  # the position a bad id replaces: an input and a target on every path
IDS = [4, 5, 6, 7, 8, 9, 10, 4, 5]  # [CLS] 0 and [SEP] 1 of the bert vocabulary are left out

CONFIGS = {
    "gpt2": tiny_gpt2_config(vocab_size=VOCAB, max_len=MAX_LEN),
    "rnn": ModelConfig(arch="rnn", d_e=3, vocab_size=VOCAB, max_len=MAX_LEN, L=1),
    "lstm": ModelConfig(arch="lstm", d_e=3, vocab_size=VOCAB, max_len=MAX_LEN, L=2),
    "ffnn": ModelConfig(arch="ffnn", d_e=2, vocab_size=VOCAB, max_len=4, hidden_dims=[3]),
    "bert": tiny_bert_config(vocab_size=VOCAB, max_len=len(IDS) + 2),
}


def _put(ids, bad):
    return ids[:AT] + [bad] + ids[AT + 1:]


# each kind of bad id, made from a valid id list
KINDS = {
    "float": lambda ids: _put(ids, 1.5),
    "bool": lambda ids: np.asarray(ids) % 2 == 1,
    "bool-among-ints": lambda ids: _put(ids, True),
    "nested-bool-array": lambda ids: _put(ids, np.array(True)),
    "string": lambda ids: _put(ids, "3"),
    "negative": lambda ids: _put(ids, -1),
    "vocab-size": lambda ids: _put(ids, VOCAB),
    "beyond-int64": lambda ids: _put(ids, 2**63),
    "ragged": lambda ids: _put(ids, [2, 3]),
}


@functools.cache
def model(arch):
    return CONFIGS[arch], init_weights(CONFIGS[arch], 3)


def _rows(ids, n):
    return [list(ids[s:s + n]) for s in range(len(ids) - n + 1)]


def _bert(ids):
    cfg, w = model("bert")
    vocab = Vocabulary(["[CLS]", "[SEP]", "[MASK]"] + [f"w{i}" for i in range(3, VOCAB)], {})
    return bert_forward(TokenSequence([0, *ids, 1]), w, vocab)


def _mlm(ids):
    return mlm_loss(MlmTarget(TokenSequence([2] * len(ids)), [True] * len(ids), ids),
                    np.zeros((VOCAB, len(ids))))


def _corpus_nll(arch, ids):
    cfg, w = model(arch)
    return corpus_nll(ids, make_predict_next(cfg, w), cfg.max_len, min_context(cfg))


def _windows(arch, ids):
    return make_predict_next(*model(arch)).windows(ids, 4)


def _generate_tokens(arch, ids):
    return generate_tokens(*model(arch), ids[:5], 1)


def _train_toy(arch, ids):
    return train_toy(*model(arch), ids, 1, 0.1)


PATHS = {
    "embed": lambda ids: embeddings.embed(ids, model("gpt2")[1].embedding),
    "ffnn_forward": lambda ids: ffnn_forward(ids[:4], model("ffnn")[1]),
    "ffnn_batch_forward": lambda ids: ffnn_batch_forward(_rows(ids, 4), model("ffnn")[1]),
    "recurrent_lm_forward": lambda ids: recurrent_lm_forward(ids, model("lstm")[1]),
    "gpt2_forward": lambda ids: gpt2_forward(ids[:MAX_LEN], model("gpt2")[1]),
    "bert_forward": _bert,
    "ar_loss": lambda ids: ar_loss(ids[:MAX_LEN], make_forward(*model("gpt2"))),
    "mlm_loss": _mlm,
    **{f"{path.__name__[1:]}-{arch}": functools.partial(path, arch)
       for path in (_corpus_nll, _windows, _generate_tokens, _train_toy) for arch in inference.CAUSAL},
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_runs_on_the_valid_ids(path):
    PATHS[path](list(IDS))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_refuses_every_bad_id_kind(path, kind):
    with pytest.raises(OutOfVocabularyError):
        PATHS[path](KINDS[kind](list(IDS)))


CHECKED_IDS, BUILD_MASK = embeddings.checked_ids, attention._causal.__wrapped__


class Counted:
    """Counts the calls of ``checked_ids`` from every package module and the
    causal masks built, from an empty mask memo."""

    def __init__(self, monkeypatch):
        self.checks, self.masks = 0, []

        def counted_checks(*args, **kwargs):
            self.checks += 1
            return CHECKED_IDS(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("nlmkit.") and hasattr(module, "checked_ids"):
                monkeypatch.setattr(module, "checked_ids", counted_checks)

        @functools.lru_cache(maxsize=None)
        def counted_masks(length):
            self.masks.append(length)
            return BUILD_MASK(length)

        monkeypatch.setattr(attention, "_causal", counted_masks)


@pytest.mark.parametrize("arch", list(inference.CAUSAL))
def test_decode_steps_check_no_id_and_build_no_mask(arch, monkeypatch):
    cfg, w = model(arch)
    prompt = IDS[:min_context(cfg)]
    counts = []
    for steps in (1, MAX_LEN - len(prompt)):
        counted = Counted(monkeypatch)
        generate_tokens(cfg, w, prompt, steps)
        counts.append((counted.checks, counted.masks))
    assert counts[0] == counts[1] == (1, [MAX_LEN] if arch == "gpt2" else [])


@pytest.mark.parametrize("arch", list(inference.CAUSAL))
def test_corpus_nll_checks_each_window_batch_once(arch, monkeypatch):
    cfg, w = model(arch)
    ids = (IDS * 9)[:cfg.max_len + WINDOW_BATCH + 1]  # two batches of full windows
    counted = Counted(monkeypatch)
    corpus_nll(ids, make_predict_next(cfg, w), cfg.max_len, min_context(cfg))
    prefix = min_context(cfg) < cfg.max_len  # a pass over the contexts shorter than a window
    assert counted.checks == prefix + 1 + 2  # and the targets, once


def test_loss_evaluations_of_a_gpt2_step_check_no_id_and_build_no_mask(monkeypatch):
    cfg, w = model("gpt2")
    counts = []
    for steps in (0, 1):  # one loss evaluation, then 2 per parameter and 2 more
        counted = Counted(monkeypatch)
        train_toy(cfg, w, IDS, steps, 0.1)
        counts.append((counted.checks, counted.masks))
    assert counts[0] == counts[1] == (1, [MAX_LEN])


def test_memoized_masks_are_read_only():
    for mask in (attention.build_mask(MAX_LEN, "AR"), attention.build_mask(MAX_LEN, "AR", 2)):
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[-1, 0] = 1.0
    assert np.isneginf(attention.build_mask(MAX_LEN, "AR")[0, 1])
