"""Exception hierarchy shared by the language front end, explorer and drivers.

Every error carries a short machine-readable ``code`` (stable strings such as
``PROB_SUM`` or ``NONDETERMINISM``) so tests and callers can dispatch without
parsing messages. Positions are 1-based line/column pairs where known.
"""

from __future__ import annotations


class QkdmcError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(
        self,
        message: str,
        code: str | None = None,
        line: int | None = None,
        col: int | None = None,
    ):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        if code is not None:
            self.code = code
        self.line = line
        self.col = col


class ParseError(QkdmcError):
    """Lexical or syntactic error, or an unresolved name, in model source."""

    code = "SYNTAX"

    def __init__(
        self,
        message: str,
        line: int | None = None,
        col: int | None = None,
        code: str | None = None,
    ):
        super().__init__(message, code, line, col)


class ValidationError(QkdmcError):
    """Semantic error found while checking a parsed model."""

    code = "INVALID"


class BuildError(QkdmcError):
    """Error raised while exploring the state space of a validated model."""

    code = "BUILD"


class PropertyError(QkdmcError):
    """Malformed property text, or a property that does not fit the model."""

    code = "PROPERTY"


class AcceptanceViolation(QkdmcError):
    """A requested runtime check (oracle agreement, curve ordering) failed."""

    code = "ACCEPTANCE"
