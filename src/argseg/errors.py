"""Exception types shared across the package."""


class ArgsegError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(ArgsegError):
    """Operand shapes are incompatible."""


class ConfigurationError(ArgsegError):
    """A model or embedding configuration is internally inconsistent."""


class ContractViolation(ArgsegError):
    """An input violates a documented precondition (e.g. an empty sequence given to attention)."""


class NumericError(ArgsegError):
    """Non-finite values appeared where finite ones are required."""


class TrainingDiverged(NumericError):
    """Training went non-finite; the model retains its last finite state."""


class CorpusIntegrityError(ArgsegError):
    """Annotation data does not match the essay text it points into."""


class SplitError(ArgsegError):
    """The train/test split file is malformed or inconsistent with the corpus."""


class FormatError(ArgsegError):
    """A serialized file (embedding table, vector store, checkpoint) is malformed."""


class CoverageError(ArgsegError):
    """A precomputed vector store lacks a vector for a requested token."""
