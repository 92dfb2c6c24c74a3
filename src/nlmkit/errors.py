"""Exception types shared across the package.

Every error raised on a contract violation derives from ``NlmError`` so the
CLI can map library failures onto its exit-code scheme.
"""


class NlmError(ValueError):
    """Base class for all nlmkit contract violations."""


class ShapeError(NlmError):
    """Operands have incompatible shapes; the message names both."""


class UndefinedDistributionError(NlmError):
    """softmax over a vector with no finite entry has no normalization."""


class OutOfVocabularyError(NlmError):
    """A token has no id and the vocabulary declares no [UNK] fallback."""


class SequenceLengthError(NlmError):
    """A token sequence is empty, too short, or exceeds the model maximum."""


class SequenceFormatError(NlmError):
    """A sequence violates structural requirements ([CLS]/[SEP] placement)."""


class ConfigError(NlmError):
    """A configuration file is missing keys, has unknown keys, or bad values."""


class NonFiniteLossError(NlmError):
    """A loss is not finite; names the probed parameter, or the training step."""


class AuditMismatchError(NlmError):
    """Closed-form parameter count disagrees with tensor enumeration."""


class ArchiveError(NlmError):
    """Base class for tensor-archive format violations."""


class ArchiveMagicError(ArchiveError):
    """The file does not start with the expected magic bytes."""


class ArchiveVersionError(ArchiveError):
    """The archive declares an unsupported format version."""


class ArchiveTruncatedError(ArchiveError):
    """The file ends before the declared payload is complete."""


class ArchiveDuplicateNameError(ArchiveError):
    """Two tensors in the archive share one name."""
