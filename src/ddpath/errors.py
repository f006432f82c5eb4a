"""Shared exception types."""


class DdpathError(Exception):
    """Base class for all errors raised by this package.  An error raised
    for one task of a simulation path carries its ``task_index``, which
    also prefixes the message."""

    def __init__(self, message: str, task_index: int | None = None):
        self.task_index = task_index
        if task_index is not None:
            message = f"task {task_index}: {message}"
        super().__init__(message)


class InvalidArgumentError(DdpathError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class CapacityError(DdpathError):
    """Requested size exceeds a hard capacity guard."""


class UnsupportedGateError(DdpathError):
    """No rule or matrix is available for the requested gate kind."""


class QasmError(DdpathError, ValueError):
    """Malformed OpenQASM input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PathValidationError(DdpathError):
    """A simulation path violates the interval rules."""


class PlanningError(DdpathError):
    """A contraction plan is malformed or cannot be constructed."""


class InternalError(DdpathError, RuntimeError):
    """An internal invariant was violated (likely a bug, not bad input)."""
