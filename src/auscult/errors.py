"""Exception types shared across the package."""


class AuscultError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AuscultError, ValueError):
    """An argument violates an operation's precondition."""


class TooShortError(InvalidInputError):
    """Input has fewer samples/steps than the operation requires."""


class NonFiniteError(InvalidInputError):
    """A value that must be finite holds NaN or an infinity."""


class NotReadyError(AuscultError):
    """A streaming read was attempted before enough data arrived.

    Not a failure: the consumer is expected to retry.
    """


class FormatError(AuscultError):
    """A binary file is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ParseError(AuscultError):
    """A text file is malformed. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class UndefinedCorrelationError(InvalidInputError):
    """Correlation requested against a constant column."""


class TrainingDivergedError(AuscultError):
    """Training produced a non-finite loss. Carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class DataError(AuscultError):
    """A dataset entry is inconsistent (missing file, out-of-range annotation)."""


class ProducerError(AuscultError):
    """The recording thread of a streaming session stopped before its audio
    ended. Chained to the exception that stopped it, when there was one."""


class StaleWindowError(AuscultError):
    """A requested ring-buffer span was already overwritten by newer audio."""
