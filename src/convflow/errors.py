"""Exception hierarchy shared across the pipeline.

Two families map onto the CLI exit codes: InputError -> 2,
RemoteError -> 3.
"""


class ConvflowError(Exception):
    """Base class for all package errors."""


class InputError(ConvflowError):
    """Bad user-supplied data: files, schemas, ranges, coverage."""


class ParseError(InputError):
    """Malformed document; carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class SchemaError(InputError):
    """Structurally valid document violating the unified-dialog schema."""

    def __init__(self, message: str, dialog_id: str | None = None, turn_index: int | None = None):
        super().__init__(message)
        self.dialog_id = dialog_id
        self.turn_index = turn_index


class UnknownActError(InputError):
    """Raw dialog-act name absent from the mapping table (strict mode)."""


class MissingAnnotationError(InputError):
    """Utterance lacks the act annotation its action label needs."""


class FormatError(InputError):
    """Embedding file violates its declared format."""


class ConflictError(InputError):
    """Duplicate record id within one embedding file."""


class CoverageError(InputError):
    """Ids required downstream are missing from a store or clustering."""

    def __init__(self, message: str, missing_ids: list[str] | None = None):
        super().__init__(message)
        self.missing_ids = missing_ids or []


class DegenerateVectorError(InputError):
    """Zero vector where a direction is required."""


class DegenerateProjectionError(InputError):
    """Projection head produced the zero vector before normalization."""


class ShapeError(InputError):
    """Operands with incompatible dimensions."""


class EmptyInputError(InputError):
    """Operation on an empty batch or trajectory set."""


class InsufficientDataError(InputError):
    """Fewer items than the metric or algorithm needs."""


class InfeasibleError(InputError):
    """Requested cluster count exceeds the number of items."""


class RangeError(InputError):
    """Parameter outside its documented range."""


class DegenerateTaskError(InputError):
    """Training slice with fewer than two distinct labels."""


class UndefinedMetricError(InputError):
    """Metric has no value for this input (e.g. empty reference graph)."""


class RemoteError(ConvflowError):
    """Non-transient remote-service failure."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ProtocolError(RemoteError):
    """Remote service answered with a malformed or mismatched payload."""


class UnavailableError(RemoteError):
    """Remote service still failing (HTTP 5xx or unreachable) after every retry."""
