"""Output checks against the straight-line oracles of ``tests/oracles.py``.

Each check takes one executed request and its output and returns None when
the output agrees with the oracle, or a one-line description of the
mismatch.  Losses and NLL must agree to RTOL; a greedy token must be the
oracle's argmax (a second token within ARGMAX_TIE of the top probability
also counts, since float rounding may break an exact tie either way).
All checks run outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
import oracles as O

from nlmkit import inference

from workloads import MASK_RATE, Request

RTOL = 1e-9
ARGMAX_TIE = 1e-12
FFNN_DECODE_POSITIONS = 4

_ACTIVATIONS = {"sigmoid": O.sigmoid_vec, "tanh": O.tanh_vec, "identity": lambda v: v}


def ce(dist, target: int) -> float:
    """Straight-line cross entropy against a one-hot target."""
    p = dist[target]
    return math.inf if p == 0.0 else -math.log(p)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), 1e-300)


class Oracle:
    """Oracle forward passes for one model, with its weights converted once."""

    def __init__(self, cfg, w):
        self.cfg, self.w = cfg, w
        self._cols = None
        self._ffnn = None

    @property
    def cols(self):
        if self._cols is None:
            self._cols = O.cols(self.w.embedding)
        return self._cols

    def dists(self, ids: list) -> list:
        """Next-token distribution at every position of a causal model."""
        if self.cfg.arch == "gpt2":
            return O.gpt2_forward(ids, self.w)
        hidden = O.unroll([self.cols[t] for t in ids], self.w.layers, self.cfg.arch)
        return [O.naive_softmax([O.dot(e, h) for e in self.cols]) for h in hidden]

    def next_dist(self, context: list) -> list:
        if self.cfg.arch != "ffnn":
            return self.dists(context)[-1]
        if self._ffnn is None:
            self._ffnn = ([(O.rows(layer.w), O.vec(layer.b), _ACTIVATIONS[layer.activation])
                           for layer in self.w.layers], O.rows(self.w.output))
        layers, output = self._ffnn
        x = [value for t in context for value in self.cols[t]]
        for w, b, act in layers:
            x = act(O.vec_add(O.mat_vec(w, x), b))
        return O.naive_softmax(O.mat_vec(output, x))


def _argmax_ok(dist, token: int) -> bool:
    return dist[token] >= max(dist) * (1.0 - ARGMAX_TIE)


def check_ar(req: Request, out: float, oracle: Oracle, rng):
    dists = oracle.dists(req.ids)
    want = sum(ce(dists[i], req.ids[i + 1]) for i in range(len(req.ids) - 1))
    if not _close(out, want):
        return f"ar_loss {out!r} != oracle {want!r}"
    return None


def check_mlm(req: Request, out, oracle: Oracle, rng):
    loss, target = out
    ids = target.corrupted.ids
    masked = target.masked_positions()
    expected = max(1, math.floor(MASK_RATE * (len(req.ids) - 2)))
    if len(masked) != expected or 0 in masked or len(req.ids) - 1 in masked:
        return f"mlm_corrupt masked {masked} of {len(req.ids)} tokens; expected {expected} inside [CLS]..[SEP]"
    if target.original_ids != req.ids or any(ids[i] != req.ids[i] for i in range(len(ids)) if i not in masked):
        return "mlm_corrupt changed an unmasked token"
    dists = O.bert_mlm(O.bert_hidden(ids, ["A"] * len(ids), oracle.w), oracle.w)
    want = sum(ce(dists[i], req.ids[i]) for i in masked)
    if not _close(loss, want):
        return f"mlm_loss {loss!r} != oracle {want!r}"
    return None


def check_decode(req: Request, out: list, oracle: Oracle, rng):
    start = len(req.ids)
    if list(out[:start]) != list(req.ids) or len(out) != start + req.steps:
        return f"generate returned {len(out)} ids; expected the prompt plus {req.steps}"
    if oracle.cfg.arch == "ffnn":
        n = oracle.cfg.max_len
        count = min(FFNN_DECODE_POSITIONS, req.steps)
        positions = sorted(rng.choice(np.arange(start, len(out)), size=count, replace=False).tolist())
        dists = {j: oracle.next_dist(out[j - n:j]) for j in positions}
    else:
        full = oracle.dists(out[:-1])
        dists = {j: full[j - 1] for j in range(start, len(out))}
    for j, dist in dists.items():
        if not _argmax_ok(dist, out[j]):
            return f"token {j} is {out[j]}; oracle argmax is {int(np.argmax(dist))}"
    return None


def check_nll(req: Request, out: float, oracle: Oracle, rng):
    """Sum of per-position package scores equals corpus_nll, and one seeded
    position's score equals the oracle's."""
    window, need = oracle.cfg.max_len, inference.min_context(oracle.cfg)
    predict = inference.make_predict_next(oracle.cfg, oracle.w)
    scores = {}
    for i in range(1, len(req.ids)):
        context = req.ids[max(0, i - window):i]
        if len(context) >= need:
            scores[i] = ce(np.asarray(predict(context)), req.ids[i])
    want = math.fsum(scores.values())
    if not _close(out, want):
        return f"corpus_nll {out!r} != sum of per-position scores {want!r}"
    i = int(rng.choice(list(scores)))
    ref = ce(oracle.next_dist(req.ids[max(0, i - window):i]), req.ids[i])
    if not _close(scores[i], ref):
        return f"position {i} scores {scores[i]!r}; oracle {ref!r}"
    return None


def train_loss(oracle: Oracle, corpus: list) -> float:
    """The trainer's mean next-token loss, re-evaluated with the oracles."""
    cfg = oracle.cfg
    n = cfg.max_len
    if cfg.arch == "ffnn":
        terms = [ce(oracle.next_dist(corpus[s:s + n]), corpus[s + n]) for s in range(len(corpus) - n)]
    else:
        terms = []
        for start in range(0, len(corpus) - 1, max(n - 1, 1)):
            chunk = corpus[start:start + n]
            if len(chunk) >= 2:
                dists = oracle.dists(chunk)
                terms += [ce(dists[i], chunk[i + 1]) for i in range(len(chunk) - 1)]
    return math.fsum(terms) / len(terms)


def check_train(req: Request, out, oracle: Oracle, rng):
    """The loss train_toy reports equals the oracle loss of the weights it returns."""
    new_weights, loss = out
    if not math.isfinite(loss):
        return f"training loss is {loss!r}"
    want = train_loss(Oracle(oracle.cfg, new_weights), req.ids)
    if not _close(loss, want):
        return f"reported loss {loss!r} != re-evaluated {want!r}"
    return None


CHECKS = {"ar": check_ar, "mlm": check_mlm, "decode": check_decode,
          "nll": check_nll, "train": check_train}


def check(req: Request, out, models: dict, rng, oracles: dict):
    """Check one request's output; ``oracles`` caches an Oracle per model key."""
    oracle = oracles.get(req.model)
    if oracle is None:
        model = models[req.model]
        oracle = oracles[req.model] = Oracle(model.cfg, model.weights)
    return CHECKS[req.kind](req, out, oracle, rng)
