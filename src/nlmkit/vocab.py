"""Vocabulary handling and the whitespace tokenizer.

Vocabulary file format: UTF-8 text, one token per line; the 0-based index
of a token line is its id.  Lines of the form ``#special NAME=<id>`` may
precede the tokens to declare [CLS]/[SEP]/[MASK]/[UNK] ids explicitly;
tokens spelled literally "[CLS]", "[SEP]", "[MASK]" or "[UNK]" are also
recognized without a header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import read_text
from .errors import ConfigError, OutOfVocabularyError, SequenceLengthError

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
UNK_TOKEN = "[UNK]"

_SPECIAL_NAMES = {"CLS": CLS_TOKEN, "SEP": SEP_TOKEN, "MASK": MASK_TOKEN, "UNK": UNK_TOKEN}

SEGMENT_A = "A"
SEGMENT_B = "B"


@dataclass
class Vocabulary:
    """Ordered token list; a token's id is its position."""

    tokens: list[str]
    specials: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("vocabulary tokens are not unique")
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        for tok in (CLS_TOKEN, SEP_TOKEN, MASK_TOKEN, UNK_TOKEN):
            if tok in self._ids and tok not in self.specials:
                self.specials[tok] = self._ids[tok]
        for tok, i in self.specials.items():
            if not (0 <= i < len(self.tokens)):
                raise ConfigError(f"special token {tok} id {i} out of range")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            if UNK_TOKEN in self.specials:
                return self.specials[UNK_TOKEN]
            raise OutOfVocabularyError(
                f"token {token!r} is not in the vocabulary and no {UNK_TOKEN} is declared"
            ) from None

    def token_of(self, i: int) -> str:
        if not (0 <= i < len(self.tokens)):
            raise OutOfVocabularyError(f"id {i} out of range for vocabulary of {len(self.tokens)}")
        return self.tokens[i]

    @property
    def cls_id(self) -> int | None:
        return self.specials.get(CLS_TOKEN)

    @property
    def sep_id(self) -> int | None:
        return self.specials.get(SEP_TOKEN)

    @property
    def mask_id(self) -> int | None:
        return self.specials.get(MASK_TOKEN)


@dataclass
class TokenSequence:
    """Token ids with optional parallel segment labels and MLM flags."""

    ids: list[int]
    segments: list[str] | None = None
    mlm_mask: list[bool] | None = None

    def __post_init__(self):
        if len(self.ids) < 1:
            raise SequenceLengthError("a token sequence must contain at least one token")
        for name, parallel in (("segments", self.segments), ("mlm_mask", self.mlm_mask)):
            if parallel is not None and len(parallel) != len(self.ids):
                raise SequenceLengthError(
                    f"{name} length {len(parallel)} != ids length {len(self.ids)}"
                )
        if self.segments is not None:
            bad = set(self.segments) - {SEGMENT_A, SEGMENT_B}
            if bad:
                raise SequenceLengthError(f"segment labels must be 'A' or 'B', got {bad}")

    def __len__(self) -> int:
        return len(self.ids)


def parse_vocab(text: str) -> Vocabulary:
    tokens: list[str] = []
    specials: dict[str, int] = {}
    for raw in text.splitlines():
        if raw.startswith("#special"):
            decl = raw[len("#special"):].strip()
            name, _, value = decl.partition("=")
            name = name.strip().upper()
            value = value.strip()
            if name not in _SPECIAL_NAMES or not (value.isascii() and value.isdigit()):
                raise ConfigError(f"bad special-token header: {raw!r}")
            specials[_SPECIAL_NAMES[name]] = int(value)
            continue
        if raw.strip() == "":
            continue
        tokens.append(raw.strip())
    if not tokens:
        raise ConfigError("vocabulary file contains no tokens")
    return Vocabulary(tokens, specials)


def load_vocab(path) -> Vocabulary:
    return parse_vocab(read_text(path))


def save_vocab(vocab: Vocabulary, path) -> None:
    lines = [f"#special {name}={vocab.specials[tok]}"
             for name, tok in _SPECIAL_NAMES.items() if tok in vocab.specials]
    lines += vocab.tokens
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Whitespace-split text into ids; unknown tokens fall back to [UNK]."""
    words = text.split()
    if not words:
        raise SequenceLengthError("cannot tokenize empty text")
    return TokenSequence([vocab.id_of(w) for w in words])


def detokenize(seq: TokenSequence | list[int], vocab: Vocabulary) -> str:
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    return " ".join(vocab.token_of(i) for i in ids)


def infer_segments(ids: list[int], vocab: Vocabulary) -> list[str]:
    """Label tokens up to and including the first [SEP] as segment A, the rest B."""
    sep = vocab.sep_id
    segments = []
    current = SEGMENT_A
    for i in ids:
        segments.append(current)
        if sep is not None and i == sep:
            current = SEGMENT_B
    return segments
