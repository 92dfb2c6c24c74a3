"""Vocabulary handling and the whitespace tokenizer.

Vocabulary file format: UTF-8 text, one token per line; the 0-based index
of a token line is its id.  Lines of the form ``#special NAME=<id>`` may
precede the tokens to declare [CLS]/[SEP]/[MASK]/[UNK] ids explicitly;
tokens spelled literally "[CLS]", "[SEP]", "[MASK]" or "[UNK]" are also
recognized without a header.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import parse_int, read_text
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
    specials: dict[str, int]

    def __post_init__(self):
        self.specials = dict(self.specials)  # detected ids go into our copy, not the caller's dict
        self._ids = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self._ids) != len(self.tokens):
            raise ConfigError("vocabulary tokens are not unique")
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
    """Token ids with optional parallel segment labels."""

    ids: list[int]
    segments: list[str] | None = None

    def __post_init__(self):
        if len(self.ids) < 1:
            raise SequenceLengthError("a token sequence must contain at least one token")
        if self.segments is not None:
            if len(self.segments) != len(self.ids):
                raise SequenceLengthError(
                    f"segments length {len(self.segments)} != ids length {len(self.ids)}"
                )
            bad = set(self.segments) - {SEGMENT_A, SEGMENT_B}
            if bad:
                raise SequenceLengthError(f"segment labels must be 'A' or 'B', got {bad}")

    def __len__(self) -> int:
        return len(self.ids)


def parse_vocab(text: str) -> Vocabulary:
    lines = text.splitlines()
    specials: dict[str, int] = {}
    if "#special" in text:  # only then look for header lines among the tokens
        for raw in lines:
            if raw.startswith("#special"):
                name, _, value = raw.removeprefix("#special").partition("=")
                name = name.strip().upper()
                index = parse_int(value)
                if name not in _SPECIAL_NAMES or index is None or index < 0:
                    raise ConfigError(f"bad special-token header: {raw!r}")
                specials[_SPECIAL_NAMES[name]] = index
        lines = [raw for raw in lines if not raw.startswith("#special")]
    tokens = [token for token in map(str.strip, lines) if token]
    if not tokens:
        raise ConfigError("vocabulary file contains no tokens")
    return Vocabulary(tokens, specials)


def load_vocab(path) -> Vocabulary:
    return parse_vocab(read_text(path))


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Whitespace-split text into ids; unknown tokens fall back to [UNK]."""
    words = text.split()
    if not words:
        raise SequenceLengthError("cannot tokenize empty text")
    return TokenSequence([vocab.id_of(w) for w in words])


def detokenize(ids: list[int], vocab: Vocabulary) -> str:
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
