"""Exception types shared across the toolkit."""


class QclabError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(QclabError):
    """Malformed values: non-finite numbers, bad thresholds, empty input."""


class ParseError(InvalidInputError):
    """CSV input rejected; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = str(path)
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class CapacityError(QclabError):
    """A product would exceed the algebra capacity: more raw terms than
    the workspace cap, or more terms after merging than ``MAX_TERMS``."""


class DivergenceError(QclabError):
    """Neumann series does not converge at the requested height."""


class ConvergenceError(QclabError):
    """An iterative procedure hit its cap before reaching tolerance."""


class DomainError(QclabError):
    """Input outside the operation's domain (e.g. 0 contained in the zero set)."""


class ContourError(QclabError):
    """Contour passes too close to a zero for a certified winding number."""


class BoundaryError(QclabError):
    """A zero sits within 1e-6 of the window edge; shift the window."""


class InsufficientDataError(QclabError):
    """Truncation tails exceed tolerance; carries the required window estimate."""

    def __init__(self, message, required_window=None):
        self.required_window = required_window
        super().__init__(message)


class StageError(QclabError):
    """Wraps a module error with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")
