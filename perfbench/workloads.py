"""Workloads: model configs, seeded request rounds and request execution.

Every workload is a closed loop with one caller.  A round is a fixed list of
requests, a few cycles of the workload's request kinds; a run executes the
same round again and again.

The package only ever receives token ids made here, and every package call
goes through a module attribute at call time so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from nlmkit import archive, config, inference, losses, training, transformer, vocab, weights

MASK_RATE = 0.15
TRAIN_LR = 0.1
TRAIN_CORPUS_LEN = 24
SPECIAL_TOKENS = ("[CLS]", "[SEP]", "[MASK]", "[UNK]")
CLS_ID, SEP_ID = 0, 1
FIRST_WORD = len(SPECIAL_TOKENS)
MAX_PROMPT = 8


def gpt2(d_e, m, l, v, n, d_f, d_k=16):
    return dict(arch="gpt2", d_e=d_e, M=m, L=l, vocab_size=v, max_len=n,
                d_k=d_k, d_v=d_k, d_f=d_f)


def bert(d_e, m, l, v, n, d_f, d_k=16):
    return dict(gpt2(d_e, m, l, v, n, d_f, d_k), arch="bert")


def recurrent(arch, d_e, l, v, n):
    return dict(arch=arch, d_e=d_e, L=l, vocab_size=v, max_len=n)


def ffnn(d_e, window, hidden, v):
    return dict(arch="ffnn", d_e=d_e, max_len=window, hidden_dims=list(hidden), vocab_size=v)


@dataclass(frozen=True)
class Workload:
    """A cycle of request kinds ("kind:model") over a set of models.

    ``tail_pct`` is fixed per workload so the tail metric compares across
    commits; a run repeats rounds until ten samples lie at or above it.
    ``check_shortest`` names kinds whose oracle is costly: their checked
    request is the shortest of its kind in the round.
    """

    models: dict
    cycle: tuple
    cycles_per_round: int
    tail_pct: float
    from_archive: bool = True
    check_shortest: frozenset = frozenset()


FULL = {
    "score": Workload(
        {"gpt2": gpt2(128, 8, 4, 5000, 128, 512),
         "lstm": recurrent("lstm", 64, 2, 1000, 64),
         "bert": bert(64, 4, 2, 1000, 64, 256)},
        ("ar:gpt2", "ar:lstm", "mlm:bert", "ar:gpt2", "ar:lstm", "ar:gpt2", "ar:lstm", "mlm:bert"),
        cycles_per_round=4,
        tail_pct=98.0,
        check_shortest=frozenset({"ar:gpt2"}),
    ),
    "incremental": Workload(
        {"gpt2": gpt2(64, 4, 2, 1000, 64, 256),
         "lstm": recurrent("lstm", 64, 2, 1000, 64),
         "ffnn": ffnn(64, 64, [64], 1000)},
        ("decode:gpt2", "decode:lstm", "decode:ffnn", "nll:gpt2", "nll:lstm", "nll:ffnn"),
        cycles_per_round=1,
        tail_pct=75.0,
    ),
    "train": Workload(
        {"gpt2": gpt2(4, 2, 1, 8, 8, 8, d_k=2),
         "rnn": recurrent("rnn", 4, 1, 8, 8),
         "ffnn": ffnn(3, 3, [8], 8)},
        ("train:gpt2", "train:rnn", "train:ffnn"),
        cycles_per_round=1,
        tail_pct=75.0,
        from_archive=False,
    ),
}

# The same workloads with models small enough for a one-second self-test.
SMOKE = {name: replace(FULL[name], models=models) for name, models in {
    "score": {"gpt2": gpt2(8, 2, 1, 40, 16, 16, d_k=4),
              "lstm": recurrent("lstm", 8, 1, 40, 16),
              "bert": bert(8, 2, 1, 40, 16, 16, d_k=4)},
    "incremental": {"gpt2": gpt2(8, 2, 1, 40, 16, 16, d_k=4),
                    "lstm": recurrent("lstm", 8, 1, 40, 16),
                    "ffnn": ffnn(8, 16, [8], 40)},
    "train": {"gpt2": gpt2(2, 1, 1, 8, 4, 2, d_k=1),
              "rnn": recurrent("rnn", 2, 1, 8, 4),
              "ffnn": ffnn(2, 2, [2], 8)},
}.items()}


@dataclass
class Model:
    cfg: object
    weights: object
    vocab: object = None


@dataclass
class Request:
    """One call into the package.

    ``tokens`` is the throughput unit: targets scored, tokens emitted, or
    corpus transitions trained on.  ``positions`` is the number of output
    positions the request needs at least, which is the denominator of
    ``inference.positions_per_token``.
    """

    kind: str
    model: str
    ids: list
    steps: int = 0
    seed: int = 0
    tokens: int = 0
    positions: int = 0


def transitions(cfg, corpus_len: int) -> int:
    """Predicted tokens in one evaluation of the training loss."""
    return corpus_len - cfg.max_len if cfg.arch == "ffnn" else corpus_len - 1


def model_configs(wl: Workload) -> dict:
    return {key: config.ModelConfig(**spec) for key, spec in wl.models.items()}


def _config_text(spec: dict) -> str:
    def fmt(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return "".join(f"{key}={fmt(value)}\n" for key, value in spec.items())


def model_files(directory: str, key: str) -> tuple[str, str, str]:
    return tuple(os.path.join(directory, f"{key}.{ext}") for ext in ("cfg", "vocab", "anlm"))


def write_models(wl: Workload, directory: str, seed: int) -> None:
    """Write config, vocabulary and ANLM archive of every model of the workload."""
    os.makedirs(directory, exist_ok=True)
    for key, spec in wl.models.items():
        cfg = config.ModelConfig(**spec)
        cfg_path, vocab_path, weights_path = model_files(directory, key)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(spec))
        words = [f"w{i}" for i in range(FIRST_WORD, cfg.vocab_size)]
        with open(vocab_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(list(SPECIAL_TOKENS) + words) + "\n")
        archive.save_weights(weights.init_weights(cfg, seed), weights_path)


def setup(wl: Workload, directory: str, seed: int) -> dict:
    """Bring every model of the workload to a ready state, as the CLI does."""
    models = {}
    for key, spec in wl.models.items():
        if not wl.from_archive:
            cfg = config.ModelConfig(**spec)
            models[key] = Model(cfg, weights.init_weights(cfg, seed))
            continue
        cfg_path, vocab_path, weights_path = model_files(directory, key)
        cfg = config.load_config(cfg_path)
        voc = vocab.load_vocab(vocab_path)
        if len(voc) != cfg.vocab_size:
            raise ValueError(f"{key}: vocabulary has {len(voc)} tokens, config says {cfg.vocab_size}")
        models[key] = Model(cfg, weights.assemble_weights(cfg, archive.load_weights(weights_path)), voc)
    return models


def _sizes(rng, lo: int, hi: int, count: int) -> list:
    """Midpoints of `count` equal slices of [lo, hi], in a seeded order."""
    width = (hi - lo + 1) / count
    return [lo + int((int(k) + 0.5) * width) for k in rng.permutation(count)]


def make_round(wl: Workload, seed: int) -> list:
    """The fixed request list one round executes: `cycles_per_round` cycles.

    Sizes are spread evenly over each kind's range, so a round's total work
    hardly depends on the seed; the seed picks the order and the token ids.
    """
    rng = np.random.default_rng(seed)
    cfgs = model_configs(wl)
    slots = list(wl.cycle) * wl.cycles_per_round
    corpus = rng.integers(0, 8, TRAIN_CORPUS_LEN).tolist()
    sizes = {}
    for slot in dict.fromkeys(slots):
        kind, key = slot.split(":")
        n = cfgs[key].max_len
        ranges = {"ar": (n // 4, n), "mlm": (n // 4, n), "decode": (1, MAX_PROMPT), "nll": (2 * n, 3 * n)}
        if kind in ranges:
            sizes[slot] = _sizes(rng, *ranges[kind], slots.count(slot))

    def words(cfg, count):
        return rng.integers(FIRST_WORD, cfg.vocab_size, count).tolist()

    requests = []
    for slot in slots:
        kind, key = slot.split(":")
        cfg, size = cfgs[key], sizes[slot].pop() if slot in sizes else 0
        n = cfg.max_len
        if kind == "ar":
            requests.append(Request(kind, key, words(cfg, size), tokens=size - 1, positions=size))
        elif kind == "mlm":
            masked = max(1, math.floor(MASK_RATE * (size - 2)))
            requests.append(Request(kind, key, [CLS_ID] + words(cfg, size - 2) + [SEP_ID],
                                    seed=int(rng.integers(2**32)), tokens=masked, positions=size))
        elif kind == "decode":
            steps = n - size
            prompt = words(cfg, n if cfg.arch == "ffnn" else size)
            requests.append(Request(kind, key, prompt, steps=steps, tokens=steps, positions=steps))
        elif kind == "nll":
            scored = size - inference.min_context(cfg)
            requests.append(Request(kind, key, words(cfg, size), tokens=scored, positions=scored))
        elif kind == "train":
            count = transitions(cfg, len(corpus))
            requests.append(Request(kind, key, list(corpus), steps=1, tokens=count, positions=count))
        else:
            raise ValueError(f"unknown request kind {kind!r}")
    return requests


def execute(req: Request, models: dict):
    """Run one request; training requests advance the model's weights."""
    m = models[req.model]
    if req.kind == "ar":
        return losses.ar_loss(req.ids, inference.make_forward(m.cfg, m.weights))
    if req.kind == "mlm":
        target = losses.mlm_corrupt(vocab.TokenSequence(list(req.ids)), MASK_RATE, req.seed, m.vocab)
        hidden = transformer.bert_forward(target.corrupted, m.weights, m.vocab)
        return losses.mlm_loss(target, transformer.mlm_head(hidden, m.weights)), target
    if req.kind == "decode":
        return inference.generate_tokens(m.cfg, m.weights, list(req.ids), req.steps)
    if req.kind == "nll":
        return losses.corpus_nll(req.ids, inference.make_predict_next(m.cfg, m.weights),
                                 m.cfg.max_len, min_context=inference.min_context(m.cfg))
    if req.kind == "train":
        new_weights, loss = training.train_toy(m.cfg, m.weights, req.ids, req.steps, TRAIN_LR)
        m.weights = new_weights
        return new_weights, loss
    raise ValueError(f"unknown request kind {req.kind!r}")
