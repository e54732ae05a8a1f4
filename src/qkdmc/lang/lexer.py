"""Tokenizer for the modeling language."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from qkdmc.errors import ParseError
from qkdmc.lang.ast import Pos


class TokenType(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    REAL = "decimal"
    STRING = "string"
    PUNCT = "punctuation"
    EOF = "end of input"


# One alternative per token kind, tried in order, then the blanks after the
# token. Numbers are ASCII digits (`\d` would also accept '٣'), and a dot
# starts a fraction only when a digit follows, so "0..1" keeps the integer and
# leaves ".." for the range. A keyword is a whole word. `\w` is
# `str.isalnum()` or '_'; a name must also start with a letter or '_', which
# `tokenize` checks, since '²' and '½' are alphanumeric. A newline, a comment
# and the blanks that start the source make no token; every other group is
# named after its token's type.
_TOKEN = re.compile(
    r"""
    (?:
        (?P<NEWLINE>\n)
      | //[^\n]* | [ \t\r]
      | (?P<REAL>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
      | (?P<INT>[0-9]+)
      | (?P<KEYWORD>(?:dtmc|const|int|double|module|endmodule|init|label|true|false)\b)
      | (?P<IDENT>\w+)
      | "(?P<STRING>[^"\n]*)"
      | (?P<PUNCT>->|<=|>=|!=|\.\.|[\[\]():;'=<>&|!+\-*/,?])
    )
    [ \t\r]*
    """,
    re.VERBOSE,
)
_TYPES = {kind.name: kind for kind in TokenType}


class Token(NamedTuple):
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
    # tuple.__new__ skips Token's Python-level __new__, a third of its cost.
    append, new, types = tokens.append, tuple.__new__, _TYPES
    line, line_start, match = 1, 0, None
    for match in iter(_TOKEN.scanner(source).match, None):
        kind, start = match.lastgroup, match.start()
        if kind is None or kind == "NEWLINE":
            if kind:
                line, line_start = line + 1, start + 1
            continue
        text = match[kind]
        col = start - line_start + 1
        if kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", pos=Pos(line, col))
        append(new(Token, (types[kind], text, line, col)))
    end = match.end() if match else 0
    if end < len(source):
        c = source[end]
        message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
        raise ParseError(message, pos=Pos(line, end - line_start + 1))
    tokens.append(Token(TokenType.EOF, "", line, end - line_start + 1))
    return tokens
