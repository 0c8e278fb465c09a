"""Exception hierarchy shared across the package."""


class CechCircleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CechCircleError, ValueError):
    """An argument violates a documented precondition."""


class PointFileError(CechCircleError, ValueError):
    """A point file is malformed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InternalInconsistencyError(CechCircleError, RuntimeError):
    """Two computations disagree; always a bug.  The CLI reports it as an
    internal error with exit code 1, never as a usage error."""
