"""Exception hierarchy shared by the language front end, explorer and drivers.

Every error carries a short machine-readable ``code`` (stable strings such as
``PROB_SUM`` or ``NONDETERMINISM``) so tests and callers can dispatch without
parsing messages. Every class takes ``(message, code=None, pos=None)``, where
``pos`` is anything with 1-based ``line`` and ``col`` (an ``ast.Pos`` or a
lexer ``Token``); the message then starts ``line:col: ``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from qkdmc.lang.ast import Pos
    from qkdmc.lang.lexer import Token


class QkdmcError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str, code: str | None = None, pos: Pos | Token | None = None):
        self.line = self.col = None
        if pos is not None:
            self.line, self.col = pos.line, pos.col
            message = f"{pos.line}:{pos.col}: {message}"
        super().__init__(message)
        if code is not None:
            self.code = code


class ParseError(QkdmcError):
    """Lexical or syntactic error, or an unresolved name, in model source."""

    code = "SYNTAX"


class ValidationError(QkdmcError):
    """Semantic error found while checking a parsed model."""

    code = "TYPE"


class BuildError(QkdmcError):
    """Error raised while exploring the state space of a validated model."""

    code = "BUILD"


class PropertyError(QkdmcError):
    """Malformed property text, or a property that does not fit the model."""

    code = "PROPERTY"


class AcceptanceViolation(QkdmcError):
    """A requested runtime check (oracle agreement, curve ordering) failed."""

    code = "ACCEPTANCE"
