"""Command-line surface: parameter audits, scoring, generation, toy training.

Exit codes: 0 success, 1 usage error (bad arguments, unreadable or unwritable
files), 2 data or format error, 3 audit assertion failure.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

import numpy as np

from .archive import load_weights, save_weights
from .audit import audit_config, count_for_config
from .config import ModelConfig, load_config, parse_int, read_text
from .errors import AuditMismatchError, ConfigError, NlmError
from .inference import generate_tokens, make_predict_next, min_context
from .losses import corpus_nll
from .training import train_toy
from .transformer import bert_forward, mlm_head
from .vocab import Vocabulary, detokenize, infer_segments, load_vocab, TokenSequence, tokenize
from .weights import assemble_weights, init_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_AUDIT = 3


def _checked(convert, ok, expected: str):
    """argparse type: ``convert(text)``, refused unless ``ok`` holds for it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


# --steps and --seed span the uint64 that keys init_weights' Philox stream
_count = _checked(parse_int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_rate = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI keeps 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _check_vocab(cfg: ModelConfig, vocab: Vocabulary) -> None:
    if len(vocab) != cfg.vocab_size:
        raise ConfigError(
            f"vocab_size={cfg.vocab_size} but the vocabulary file has {len(vocab)} tokens"
        )


def _load_model(args) -> tuple[ModelConfig, object, Vocabulary]:
    cfg = load_config(args.config)
    weights = assemble_weights(cfg, load_weights(args.weights))
    vocab = load_vocab(args.vocab)
    _check_vocab(cfg, vocab)
    return cfg, weights, vocab


def cmd_count_params(args) -> int:
    cfg = load_config(args.config)
    report = count_for_config(cfg, include_mlm=args.with_mlm, include_nsp=args.with_nsp)
    print(report.as_key_values() if args.format == "kv" else report.as_table())
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg, weights, vocab = _load_model(args)
    prompt = tokenize(args.prompt, vocab)
    ids = generate_tokens(cfg, weights, prompt.ids, args.steps)
    print(detokenize(ids, vocab))
    return EXIT_OK


def cmd_score(args) -> int:
    cfg, weights, vocab = _load_model(args)
    ids = tokenize(args.text, vocab).ids
    nll = corpus_nll(ids, make_predict_next(cfg, weights), cfg.max_len,
                     min_context=min_context(cfg))
    print(f"{nll:.10f}")
    return EXIT_OK


def cmd_fill_mask(args) -> int:
    cfg, weights, vocab = _load_model(args)
    if cfg.arch != "bert":
        raise ConfigError(f"fill-mask requires arch=bert, config declares {cfg.arch!r}")
    ids = tokenize(args.text, vocab).ids
    seq = TokenSequence(ids, segments=infer_segments(ids, vocab))
    masked = [i for i, t in enumerate(ids) if t == vocab.mask_id]
    if not masked:
        raise ConfigError("text contains no [MASK] token")
    logits = mlm_head(bert_forward(seq, weights, vocab), weights)
    for pos in masked:
        print(vocab.token_of(int(logits[:, pos].argmax())))
    return EXIT_OK


def _check_writable(path) -> None:
    """Raise the OSError that creating or replacing file `path` would meet."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_train_toy(args) -> int:
    _check_writable(args.out)  # fail before the training run, not after it
    cfg = load_config(args.config)
    vocab = load_vocab(args.vocab)
    _check_vocab(cfg, vocab)
    corpus_ids = tokenize(read_text(args.corpus), vocab).ids
    weights = init_weights(cfg, args.seed)
    # a diverging run overflows on its way to the non-finite loss that
    # train_toy reports as one error
    with np.errstate(over="ignore", invalid="ignore"):
        weights, final_loss = train_toy(cfg, weights, corpus_ids, args.steps, args.lr,
                                        log_fn=print)
    save_weights(weights, args.out)
    print(f"{final_loss:.10f}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    report = audit_config(cfg, assemble_weights(cfg, load_weights(args.weights)))
    print(f"ok: {cfg.arch} formula count == enumerated count == {report.total}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nlmkit",
                     description="From-scratch language-model kit: audits, scoring, generation.")
    sub = parser.add_subparsers(dest="command", required=True)
    model = argparse.ArgumentParser(add_help=False)  # the model a command runs
    for name in ("--config", "--weights", "--vocab"):
        model.add_argument(name, required=True)

    p = sub.add_parser("count-params", help="closed-form parameter count for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--with-mlm", action="store_true", help="include the MLM head (bert)")
    p.add_argument("--with-nsp", action="store_true", help="include the NSP head (bert)")
    p.add_argument("--format", choices=("table", "kv"), default="table")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("generate", parents=[model], help="greedy continuation of a prompt")
    p.add_argument("--prompt", required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", parents=[model], help="negative log likelihood of a text")
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fill-mask", parents=[model], help="top-1 prediction per [MASK] slot (bert)")
    p.add_argument("--text", required=True,
                   help="whitespace tokens incl. [CLS] ... [SEP]; [MASK] marks slots to fill")
    p.set_defaults(func=cmd_fill_mask)

    p = sub.add_parser("train-toy", help="memorize a tiny corpus by gradient descent (reverse-mode "
                                         "gradients; finite differences for gpt2)")
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--lr", type=_rate, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("audit", help="assert formula count == enumerated tensor count")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        out = getattr(args, "out", None)
        action = "write" if out is not None and exc.filename == out else "read"
        print(f"nlmkit: error: cannot {action} file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditMismatchError as exc:
        print(f"nlmkit: audit failed: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (NlmError, MemoryError) as exc:  # MemoryError: a config too big to allocate
        print(f"nlmkit: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
