"""Tokenizer for the modeling language."""

from __future__ import annotations

import enum
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

_PUNCT2 = ("->", "<=", ">=", "!=", "..")
_PUNCT1 = "[]():;'=<>&|!+-*/,?"
# Numbers are ASCII digits; str.isdigit would also accept '²' and '٣'.
_DIGITS = frozenset("0123456789")


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
    line, col = 1, 1
    i, n = 0, len(source)

    def err(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if c in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            is_real = False
            # A dot starts a fraction only when a digit follows; "0..1" keeps
            # the integer and leaves ".." for the range punctuation.
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in _DIGITS:
                is_real = True
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    is_real = True
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            text = source[i:j]
            tokens.append(
                Token(TokenType.REAL if is_real else TokenType.INT, text, start_line, start_col)
            )
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise err("unterminated string")
            tokens.append(Token(TokenType.STRING, source[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        two = source[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token(TokenType.PUNCT, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token(TokenType.PUNCT, c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise err(f"unexpected character {c!r}")

    tokens.append(Token(TokenType.EOF, "", line, col))
    return tokens
