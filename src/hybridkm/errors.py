"""Exception types shared across the package."""


class HybridKmError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HybridKmError):
    """A file could not be parsed (malformed JSON, truncated content)."""


class SchemaError(HybridKmError):
    """Parsed content does not match the documented schema."""


class DuplicateIdError(SchemaError):
    """An identifier that must be unique appears more than once."""


class UnknownDomainError(HybridKmError):
    """A domain outside the supported set was referenced."""


class UnknownSlotError(HybridKmError):
    """A slot name not present in the ontology was referenced."""


class ConflictError(HybridKmError):
    """An operation would overwrite state it is not allowed to touch."""


class InvariantError(HybridKmError):
    """A domain type's structural invariant was violated."""


class FormatError(HybridKmError):
    """Malformed flat-format state text. Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyCorpusError(HybridKmError):
    """An operation that needs at least one document got none."""


class VersionError(HybridKmError):
    """A persisted file was written by an incompatible format version."""


class LengthMismatchError(HybridKmError):
    """Aligned candidate/reference lists differ in length."""


class MissingPredictionError(HybridKmError):
    """The prediction file does not cover a turn required by a metric."""


class DuplicateDocError(HybridKmError):
    """A ranked document list contains the same document twice."""


class MissingIndexError(HybridKmError):
    """A command that needs a topic index was run without one."""

