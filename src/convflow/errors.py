"""The four exception types some caller branches on.

Every bad-input failure is an InputError (CLI exit 2), told apart by its
message; DegenerateProjectionError is the InputError the gradient check
redraws on. Every remote fault is a RemoteError (exit 3), with the HTTP
status when there was one; UnavailableError is the RemoteError raised once
every retry is spent.
"""


class InputError(Exception):
    """Bad user-supplied data: files, schemas, ranges, coverage."""


class DegenerateProjectionError(InputError):
    """Projection head produced the zero vector before normalization."""


class RemoteError(Exception):
    """Non-transient remote-service failure."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class UnavailableError(RemoteError):
    """Remote service still failing (HTTP 429 or 5xx, or unreachable) after every retry."""
