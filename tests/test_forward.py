"""Every architecture's forward pass against the straight-line oracles of
tests/oracles.py, on models drawn from the whole family."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmkit.config import ARCHITECTURES
from nlmkit.ffnn import ffnn_forward
from nlmkit.kernels import softmax
from nlmkit.recurrent import recurrent_lm_forward
from nlmkit.transformer import bert_forward, gpt2_forward, mlm_head, nsp_head
from nlmkit.vocab import TokenSequence, Vocabulary

import oracles
from strategies import models

ATOL = 1e-10  # test_transformer.py's oracle bound, here on logits and bert's outputs alike

# (package, oracle) logits of each autoregressive model: a column per position
# of the ids for the sequence models, one after the window for ffnn
LOGITS = {
    "gpt2": lambda ids, w: (gpt2_forward(ids, w), oracles.gpt2_logits(ids, w)),
    "rnn": lambda ids, w: (recurrent_lm_forward(ids, w), oracles.recurrent_logits(ids, w, "rnn")),
    "lstm": lambda ids, w: (recurrent_lm_forward(ids, w),
                            oracles.recurrent_logits(ids, w, "lstm")),
    "ffnn": lambda ids, w: (ffnn_forward(ids, w)[:, None], [oracles.ffnn_logits(ids, w)]),
}


def check_bert(ids, w, data):
    """Hidden columns, masked-LM and NSP distributions of a [CLS] ... [SEP]
    sequence of one or two segments; the vocabulary's first id is [CLS] and
    its last [SEP]."""
    size = w.embedding.shape[1]
    vocab = Vocabulary([str(i) for i in range(size)], {"[CLS]": 0, "[SEP]": size - 1})
    ids = [0, *ids[1:-1], size - 1]
    first = data.draw(st.integers(1, len(ids)))
    segments = ["A"] * first + ["B"] * (len(ids) - first)
    h = bert_forward(TokenSequence(ids, segments), w, vocab)
    want = oracles.bert_hidden(ids, segments, w)
    npt.assert_allclose(h, np.array(want).T, rtol=0, atol=ATOL)
    npt.assert_allclose(softmax(mlm_head(h, w), axis=0), np.array(oracles.bert_mlm(want, w)).T,
                        rtol=0, atol=ATOL)
    npt.assert_allclose(softmax(nsp_head(h, w)), oracles.bert_nsp(want, w), rtol=0, atol=ATOL)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@settings(max_examples=20)
@given(data=st.data())
def test_every_architecture_matches_its_straight_line_oracle(arch, data):
    cfg, w, corpus = data.draw(models((arch,)))
    ids = corpus[:cfg.max_len]
    if cfg.arch == "bert":
        check_bert(ids, w, data)
    else:
        got, want = LOGITS[cfg.arch](ids, w)
        npt.assert_allclose(got, np.array(want).T, rtol=0, atol=ATOL)
