"""In-memory span recorder that wraps nlmkit's public functions from outside.

A layer is a named group of package functions.  While a Tracer is installed,
every module-level reference to one of those functions, in every loaded
nlmkit module, points at a wrapper that records one span per call: the
function, the enclosing span, start and end.  Uninstalling puts the
originals back.  A function named here that the package no longer defines
is listed in ``missing`` and its layer stays empty.

Self time of a span is its duration minus the durations of the spans directly
inside it, so the self times of all spans in a phase sum to the duration of
its root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> (nlmkit module, functions).  Renamed or deleted functions are
# listed beside their successors so every name maps to the same layer.
LAYERS = {
    "kernels.softmax": ("kernels", ("softmax", "softmax_rows")),
    "kernels.layer_norm": ("kernels", ("layer_norm", "layer_norm_columns")),
    "kernels.gelu": ("kernels", ("gelu", "gelu_tanh", "gelu_exact")),
    "attention.scores": ("attention", ("attention_scores",)),
    "attention.head": ("attention", ("self_attention_head",)),
    "attention.mha": ("attention", ("multi_head_attention",)),
    "transformer.ffn": ("transformer", ("position_ffn",)),
    "transformer.block": ("transformer", ("transformer_block",)),
    "transformer.model": ("transformer", ("transformer_stack", "gpt2_hidden", "gpt2_forward",
                                          "bert_forward", "mlm_head", "greedy_decode")),
    "embeddings.embed": ("embeddings", ("embed", "add_positions")),
    "embeddings.tied_logits": ("embeddings", ("tied_logits", "tied_logits_columns")),
    "recurrent.cell": ("recurrent", ("rnn_cell", "lstm_cell")),
    "recurrent.model": ("recurrent", ("unroll", "recurrent_hidden", "recurrent_lm_forward",
                                      "recurrent_generate")),
    "ffnn.forward": ("ffnn", ("ffnn_forward",)),
    "ffnn.model": ("ffnn", ("ffnn_predict", "ffnn_generate")),
    "inference.dispatch": ("inference", ("make_forward", "make_predict_next", "generate_tokens")),
    "losses.ce": ("losses", ("ce_loss",)),
    "losses.loss": ("losses", ("ar_loss", "mlm_loss", "mlm_corrupt")),
    "losses.corpus_nll": ("losses", ("corpus_nll",)),
    "training.numerical_gradient": ("training", ("numerical_gradient",)),
    "training.gd_step": ("training", ("gd_step",)),
    "training.train_toy": ("training", ("train_toy",)),
    "config.load_config": ("config", ("load_config",)),
    "vocab.load_vocab": ("vocab", ("load_vocab",)),
    "archive.load_weights": ("archive", ("load_weights",)),
    "weights.assemble_weights": ("weights", ("assemble_weights",)),
    "weights.init_weights": ("weights", ("init_weights",)),
}

# make_corpus_loss returns the trainer's loss function; each call of that
# function is one span of this layer.
LOSS_FACTORY = ("training", "make_corpus_loss")
LOSS_LAYER = "training.loss"

# One call of any of these is one model forward pass.
FORWARD_FUNCTIONS = ("transformer.gpt2_forward", "transformer.bert_forward",
                     "recurrent.recurrent_lm_forward", "ffnn.ffnn_forward")


def _scores_flops(args, result):
    x, w = args[0], args[1]
    d_e, n = x.shape
    d_k = w.w_q.shape[1]
    return 2 * 2 * n * d_e * d_k + 2 * n * n * d_k  # Q and K projections, Q K^T


def _ffn_flops(args, result):
    c, w = args[0], args[1]
    d_f, d_e = w.ffn_w1.shape
    return 2 * 2 * d_f * d_e * c.shape[1]  # W1 and W2


def _columns(result):
    return result.shape[1] if result.ndim == 2 else 1


def _logits_flops(args, result):
    d, v = args[1].shape
    return 2 * d * v * _columns(result)


# function -> (layer whose computed FLOPs it adds to, flops(args, result))
FLOPS = {
    "attention.attention_scores": ("attention.scores", _scores_flops),
    "transformer.position_ffn": ("transformer.ffn", _ffn_flops),
    "embeddings.tied_logits": ("embeddings.tied_logits", _logits_flops),
    "embeddings.tied_logits_columns": ("embeddings.tied_logits", _logits_flops),
}

# function -> output positions computed by one call (output heads only)
POSITIONS = {
    "embeddings.tied_logits": _columns,
    "embeddings.tied_logits_columns": _columns,
    "ffnn.ffnn_forward": lambda result: 1,
}


class Tracer:
    def __init__(self):
        self.functions: list[str] = []
        self.layer_of: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.flops: dict[str, float] = {}
        self.positions = 0
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._wrappers: dict[int, tuple] = {}
        self._own: dict[str, int] = {}
        self._build()

    def _register(self, name: str, layer: str) -> int:
        self.functions.append(name)
        self.layer_of.append(layer)
        return len(self.functions) - 1

    def _build(self) -> None:
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(f"nlmkit.{modname}")
            for name in names:
                fn = getattr(module, name, None)
                qualname = f"{modname}.{name}"
                if fn is None:
                    self.missing.append(qualname)
                    continue
                fid = self._register(qualname, layer)
                self._wrappers[id(fn)] = (fn, self._wrap(fn, fid, qualname))
        modname, name = LOSS_FACTORY
        factory = getattr(importlib.import_module(f"nlmkit.{modname}"), name, None)
        if factory is None:
            self.missing.append(f"{modname}.{name}")
            return
        loss_fid = self._register(f"{modname}.{name}()", LOSS_LAYER)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            loss_fn = factory(*args, **kwargs)
            return self._wrap(loss_fn, loss_fid, None)

        self._wrappers[id(factory)] = (factory, traced_factory)

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, fid: int, qualname):
        # _open and _close inlined: a traced round makes up to a million
        # calls, and calling them raised the tracing overhead by a quarter
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        flops = FLOPS.get(qualname)
        positions = POSITIONS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if flops is not None or positions is not None:
                self._count(qualname, flops, positions, args, result)
            return result

        return traced

    def _count(self, qualname, flops, positions, args, result) -> None:
        if qualname in self.hook_errors:
            return
        try:
            if flops is not None:
                layer, fn = flops
                self.flops[layer] = self.flops.get(layer, 0.0) + fn(args, result)
            if positions is not None:
                self.positions += positions(result)
        except (AttributeError, IndexError, TypeError, ValueError):
            # the function's signature changed; stop deriving counts from it
            self.hook_errors.add(qualname)

    @contextmanager
    def span(self, name: str):
        """Span recorded by the benchmark itself, such as one whole request."""
        fid = self._own.get(name)
        if fid is None:
            fid = self._own[name] = self._register(name, name)
        idx = self._open(fid)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self):
        """Point every nlmkit module-level reference at the wrappers."""
        patched = []
        try:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "nlmkit" or modname.startswith("nlmkit.")):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def mark(self) -> int:
        """Index of the next span; phases are ranges between marks."""
        return len(self.fid)

    def reset_counts(self) -> None:
        self.flops = {}
        self.positions = 0

    def self_times(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-function self time and call count over spans [lo, hi)."""
        n_fn = len(self.functions)
        fid = np.asarray(self.fid[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_t = dur - child
        return (np.bincount(fid, weights=self_t, minlength=n_fn),
                np.bincount(fid, minlength=n_fn))

    def layer_totals(self, lo: int, hi: int) -> dict[str, tuple[float, int]]:
        self_t, calls = self.self_times(lo, hi)
        totals: dict[str, tuple[float, int]] = {}
        for f, layer in enumerate(self.layer_of):
            s, c = totals.get(layer, (0.0, 0))
            totals[layer] = (s + float(self_t[f]), c + int(calls[f]))
        return totals

    def calls_of(self, lo: int, hi: int, names) -> int:
        _, calls = self.self_times(lo, hi)
        return sum(int(calls[self.functions.index(n)]) for n in names if n in self.functions)

    def save(self, path: str) -> None:
        np.savez(path, function=np.array(self.functions), layer=np.array(self.layer_of),
                 fid=np.asarray(self.fid), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end))
