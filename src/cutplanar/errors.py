"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI lives in cli.py; keep new exception
types inside this hierarchy so commands fail with a meaningful code.
"""


class CutplanarError(Exception):
    """Base class for all package errors."""


class InvalidLayoutError(CutplanarError):
    """Layout is not a bijection onto the vertices of the graph."""


class OracleLimitError(CutplanarError):
    """Instance exceeds the size limit of an exact oracle."""


class ResourceLimitError(CutplanarError):
    """Dynamic-programming table would exceed the memory budget."""


class PreconditionError(CutplanarError):
    """Operation precondition violated (distinct from a negative result)."""


class ParseError(CutplanarError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GadgetError(CutplanarError):
    """Gadget is unusable for the request."""


class InvariantError(CutplanarError):
    """A construction invariant of the planarization failed; the message
    names the gap, the vertex label and, inside a gadget, its copy."""
