"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all bipmatch errors."""


class ParseError(Error):
    """Malformed instance, preference, or certificate input.

    Carries the 1-based line number of the offending line when the error
    comes from a line-oriented file; ``line`` is None otherwise.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Infeasible(Error):
    """The graph has no perfect matching (or no matching covering the
    required vertices)."""


class NotSquare(Error):
    """A perfect-matching solver was given a graph whose sides differ in
    size."""


class InfeasibleDual(Error):
    """Supplied prices violate dual feasibility on at least one edge."""
