"""One seeded strategy for the whole model family: a tiny config of any of
the five architectures, its weights, and a corpus.

Sizes are drawn equal to each other as often as they are free, so square
matrices of every kind occur: vocab_size (at least 2) equal to d_e or
max_len (and to the last hidden width, which makes ``ffnn.U`` square), d_e
equal to M d_v (a square ``blk.WO``), d_k and d_f equal to d_e, and a
hidden width equal to the concatenated window.  A pass that reads a square matrix transposed
then fails on its values, never on a shape check, so tests compare tensors
by name and never match or orient them by shape.

The seeded weights are scaled by 1, 10 or 30 (to +-1.5), so every
nonlinearity is also checked off its linear part.  The corpus repeats an
id, and a sequence model's corpus falls into chunks of every layout: one
chunk or several, the last holding 2 tokens, max_len or any count between.

Its reach is max_len <= 4, d_e <= 4, L <= 2 (down to 0 for a
transformer) and at most two hidden layers, so a corpus of at most 11
tokens.  A hand-picked test whose every assertion a check over this
strategy makes is retired; one stays where it pins an exact value or a
size beyond this reach.

The tests that use it run under the profile ``tests/conftest.py`` loads
(``derandomize=True``), so every run draws the same examples.
"""

from hypothesis import strategies as st

from nlmkit.config import ARCHITECTURES, ModelConfig
from nlmkit.weights import init_weights, named_tensor_view

ACTIVATIONS = ("sigmoid", "tanh", "identity")
SCALES = (1.0, 10.0, 30.0)


def _size(draw, *equal_to, low=1, high=3):
    """A size equal to one of `equal_to` from `low` up as often as a free
    one in [low, high]."""
    free = draw(st.integers(low, high))
    return draw(st.sampled_from([size for size in equal_to if size >= low] + [free]))


@st.composite
def models(draw, archs=ARCHITECTURES, **pinned):
    """(config, weights, corpus) of one of `archs`; `pinned` fixes config
    keys (say ``activation="tanh"``) that would otherwise be drawn."""
    arch = draw(st.sampled_from(archs))
    max_len = draw(st.integers(1 if arch == "ffnn" else 2, 4))
    keys = dict(arch=arch, max_len=max_len)
    output_width = ()  # ffnn's: its U is vocab_size x the last hidden width
    if arch in ("gpt2", "bert"):
        M, d_v = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        d_e = _size(draw, M * d_v)
        keys.update(M=M, d_v=d_v, d_k=_size(draw, d_e), d_f=_size(draw, d_e),
                    L=draw(st.integers(0, 2)), zeta=draw(st.sampled_from((0, 1))),
                    norm_variant=draw(st.sampled_from(("pre", "post"))),
                    gelu_mode=draw(st.sampled_from(("tanh", "exact"))))
    else:
        d_e = draw(st.integers(1, 3))
        if arch != "lstm":
            keys.update(activation=draw(st.sampled_from(ACTIVATIONS)))
        if arch == "ffnn":
            hidden = [_size(draw, max_len * d_e) for _ in range(draw(st.integers(1, 2)))]
            keys.update(hidden_dims=hidden)
            output_width = (hidden[-1],)
        else:
            keys.update(L=draw(st.integers(1, 2)))
    keys.update(d_e=d_e, vocab_size=_size(draw, d_e, max_len, *output_width, low=2, high=5))
    keys.update(pinned)
    cfg = ModelConfig(**keys)

    if arch == "ffnn":  # one to four windows
        length = cfg.max_len + draw(st.integers(1, 4))
    else:  # chunks start every max_len - 1 tokens: up to three, and a last one of any size
        length = draw(st.integers(2, 3 * (cfg.max_len - 1) + 2))
    corpus = draw(st.lists(st.integers(0, cfg.vocab_size - 1), min_size=length, max_size=length))
    corpus[-1] = corpus[0]

    weights = init_weights(cfg, draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    for tensor in named_tensor_view(weights).values():
        tensor *= scale
    return cfg, weights, corpus
