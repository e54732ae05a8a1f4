"""Tokenizer for the modeling language."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from qkdmc.errors import ParseError


class TokenType(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    REAL = "decimal"
    STRING = "string"
    PUNCT = "punctuation"
    EOF = "end of input"


KEYWORDS = frozenset(
    {"dtmc", "const", "int", "double", "module", "endmodule", "init", "label", "true", "false"}
)

# One alternative per token kind, tried in order. Numbers are ASCII digits
# (`\d` would also accept '٣'), and a dot starts a fraction only when a digit
# follows, so "0..1" keeps the integer and leaves ".." for the range. `\w`
# is `str.isalnum()` or '_'; a name must also start with a letter or '_',
# which `tokenize` checks, since '²' and '½' are alphanumeric.
_TOKEN = re.compile(
    r"""
    (?P<SKIP>[ \t\r]+|//[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<REAL>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<INT>[0-9]+)
  | (?P<NAME>\w+)
  | (?P<STRING>"[^"\n]*")
  | (?P<PUNCT>->|<=|>=|!=|\.\.|[\[\]():;'=<>&|!+\-*/,?])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "end of input"
        return f"'{self.text}'"


def tokenize(source: str) -> list[Token]:
    """Split model source into tokens; raises ParseError on bad characters."""
    tokens: list[Token] = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        match = _TOKEN.match(source, i)
        c, col = source[i], i - line_start + 1
        if match is None or (match.lastgroup == "NAME" and not (c.isalpha() or c == "_")):
            message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise ParseError(message, line, col)
        kind, text, i = match.lastgroup, match.group(), match.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, i
        elif kind == "STRING":
            tokens.append(Token(TokenType.STRING, text[1:-1], line, col))
        elif kind == "NAME":
            name_type = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            tokens.append(Token(name_type, text, line, col))
        elif kind != "SKIP":
            tokens.append(Token(TokenType[kind], text, line, col))
    tokens.append(Token(TokenType.EOF, "", line, i - line_start + 1))
    return tokens
