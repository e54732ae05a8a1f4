"""Recursive-descent parser for the modeling language.

The expression grammar is parsed uniformly (one precedence climber covers
boolean, comparison and arithmetic operators); whether an expression is a
legal guard, assignment right-hand side or probability is decided later by
the kind checker, which has the declarations in hand. This keeps parses like
``(x+1)=2`` and ``(x=0)&(y=1)`` in one grammar without backtracking.
"""

from __future__ import annotations

from qkdmc.errors import ParseError
from qkdmc.lang import ast, names
from qkdmc.lang.lexer import Token, TokenType, tokenize

# A lookup through TokenType runs its metaclass's __getattr__ hook: name them once.
IDENT, INT, REAL, STRING = TokenType.IDENT, TokenType.INT, TokenType.REAL, TokenType.STRING
PUNCT, KEYWORD, EOF = TokenType.PUNCT, TokenType.KEYWORD, TokenType.EOF

# Binding powers; comparisons sit between '!' and arithmetic as usual.
BIN_PREC = {
    "|": 10,
    "&": 20,
    "=": 30,
    "!=": 30,
    "<": 30,
    "<=": 30,
    ">": 30,
    ">=": 30,
    "+": 40,
    "-": 40,
    "*": 50,
    "/": 50,
}
NOT_PREC = 25
NEG_PREC = 60

# Each '(' and each prefix '!' or '-' opens one nesting level. The limit keeps
# parsing, kind checking and compilation inside Python's default recursion
# limit and inside the parenthesis nesting Python's own parser accepts.
MAX_NESTING = 100

# A flat chain such as x=0 & x=0 & ... opens no level, but it is one binary
# operator deeper per term, and every walk over the syntax tree recurses once
# per level, as does Python's compiler on the rendered source. Under pytest
# on CPython 3.11, `qkdmc check` run in process handles a chain 849 binary
# operators deep below 99 prefix '!' levels, and fails past that at the
# default recursion limit; this limit leaves about 150 frames to spare.
MAX_OPERATOR_DEPTH = 700

# Longer integer literals are a ParseError. Up to this length every literal
# converts to a float (probability folding) and back to text (messages)
# whatever Python's int/str conversion limit is set to (at least 640 digits).
MAX_INT_DIGITS = 300


class TokenStream:
    """Cursor over a token list with single-token error reporting.

    `tok` is the current token and `key` what `at`, `accept` and `expect`
    compare with: a punctuation or keyword token's text, any other token's
    type. The cursor stops at the closing EOF token.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._keys = [t.text if t.type is PUNCT or t.type is KEYWORD else t.type for t in tokens]
        self._index = 0
        self.tok, self.key = tokens[0], self._keys[0]
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self.tok
        return self._tokens[min(self._index + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tok
        if self.key is not EOF:
            self._index += 1
            self.tok, self.key = self._tokens[self._index], self._keys[self._index]
        return tok

    def at(self, want: TokenType | str) -> bool:
        return self.key == want

    def accept(self, want: TokenType | str) -> Token | None:
        if self.key == want:
            return self.advance()
        return None

    def expect(self, want: TokenType | str, context: str | None = None) -> Token:
        if self.key == want:
            return self.advance()
        label = want.value if isinstance(want, TokenType) else f"'{want}'"
        return self.fail(label, context)

    def fail(self, expected: str, context: str | None = None) -> Token:
        where = f" in {context}" if context else ""
        raise ParseError(f"expected {expected}{where}, found {self.tok}", pos=self.tok)

    def pos(self) -> ast.Pos:
        return ast.Pos(self.tok.line, self.tok.col)


def parse(source: str) -> ast.Model:
    """Parse model source into a syntax tree.

    Besides the grammar this checks the naming contract: constant, module and
    variable names share one namespace without duplicates, and every
    identifier in an expression or assignment refers to a declaration.
    """
    stream = TokenStream(tokenize(source))
    pos = stream.pos()
    stream.expect("dtmc", "model header")

    constants = []
    while stream.at("const"):
        constants.append(_parse_const(stream))
    modules = []
    while stream.at("module"):
        modules.append(_parse_module(stream))
    labels = []
    while stream.at("label"):
        labels.append(_parse_labeldef(stream))
    if not stream.at(EOF):
        stream.fail("'const', 'module', 'label' or end of input")

    model = ast.Model(tuple(constants), tuple(modules), tuple(labels), pos)
    names.check_declarations(model)
    names.check_references(model)
    return model


def _parse_const(stream: TokenStream) -> ast.ConstDecl:
    pos = stream.pos()
    stream.expect("const")
    if stream.accept("int"):
        kind = "int"
    elif stream.accept("double"):
        kind = "double"
    else:
        stream.fail("'int' or 'double'", "constant declaration")
    name = stream.expect(IDENT, "constant declaration").text
    stream.expect("=", "constant declaration")
    value = _parse_literal(stream)
    stream.expect(";", "constant declaration")
    return ast.ConstDecl(name, kind, value, pos)


def _parse_literal(stream: TokenStream) -> ast.Expr:
    pos = stream.pos()
    negate = stream.accept("-") is not None
    value = _parse_number(stream)
    if value is None:
        stream.fail("a number", "constant declaration")
    return ast.Unary("-", value, pos) if negate else value


def _parse_number(stream: TokenStream) -> ast.IntLit | ast.RealLit | None:
    """The INT or REAL literal next in the stream, at its token's position."""
    tok = stream.tok
    if tok.type is INT:
        stream.advance()
        return ast.IntLit(_int(tok), ast.Pos(tok.line, tok.col))
    if tok.type is REAL:
        stream.advance()
        return ast.RealLit(float(tok.text), ast.Pos(tok.line, tok.col))
    return None


def _int(tok: Token) -> int:
    """Value of an integer literal token, refusing over-long ones."""
    if len(tok.text) > MAX_INT_DIGITS:
        message = f"integer literal of {len(tok.text)} digits (at most {MAX_INT_DIGITS})"
        raise ParseError(message, "LITERAL", tok)
    return int(tok.text)


def _parse_module(stream: TokenStream) -> ast.Module:
    pos = stream.pos()
    stream.expect("module")
    name = stream.expect(IDENT, "module header").text
    variables = []
    while stream.at(IDENT):
        variables.append(_parse_vardecl(stream))
    commands = []
    while stream.at("["):
        commands.append(_parse_command(stream))
    if not stream.at("endmodule"):
        stream.fail("a variable declaration, a command or 'endmodule'", f"module {name}")
    stream.expect("endmodule")
    return ast.Module(name, tuple(variables), tuple(commands), pos)


def _parse_vardecl(stream: TokenStream) -> ast.VarDecl:
    pos = stream.pos()
    name = stream.expect(IDENT).text
    stream.expect(":", "variable declaration")
    stream.expect("[", "variable declaration")
    low = _int(stream.expect(INT, "variable bounds"))
    stream.expect("..", "variable bounds")
    high = _int(stream.expect(INT, "variable bounds"))
    stream.expect("]", "variable declaration")
    stream.expect("init", "variable declaration")
    init = _int(stream.expect(INT, "initial value"))
    stream.expect(";", "variable declaration")
    return ast.VarDecl(name, low, high, init, pos)


def _parse_command(stream: TokenStream) -> ast.Command:
    pos = stream.pos()
    stream.expect("[")
    label = None
    if stream.at(IDENT):
        label = stream.advance().text
    stream.expect("]", "command label")
    guard = parse_expression(stream)
    stream.expect("->", "command")
    updates = [_parse_update(stream)]
    while stream.accept("+"):
        updates.append(_parse_update(stream))
    stream.expect(";", "command")
    if len(updates) > 1:
        for update in updates:
            if update.prob is None:
                message = "every update in a multi-update command needs an explicit probability"
                raise ParseError(message, pos=update.pos)
    return ast.Command(label, guard, tuple(updates), pos)


def _at_assignment(stream: TokenStream) -> bool:
    # An update body starts "( ident '"; anything else is a probability.
    return stream.key == "(" and stream.peek(1).type is IDENT and stream.peek(2).text == "'"


def _parse_update(stream: TokenStream) -> ast.Update:
    pos = stream.pos()
    prob = None
    if not _at_assignment(stream):
        prob = parse_expression(stream)
        stream.expect(":", "update")
    assignments = [_parse_assignment(stream)]
    while stream.accept("&"):
        assignments.append(_parse_assignment(stream))
    return ast.Update(prob, tuple(assignments), pos)


def _parse_assignment(stream: TokenStream) -> ast.Assignment:
    pos = stream.pos()
    stream.expect("(", "assignment")
    var = stream.expect(IDENT, "assignment").text
    stream.expect("'", "assignment")
    stream.expect("=", "assignment")
    value = parse_expression(stream)
    stream.expect(")", "assignment")
    return ast.Assignment(var, value, pos)


def _parse_labeldef(stream: TokenStream) -> ast.LabelDef:
    pos = stream.pos()
    stream.expect("label")
    name = stream.expect(STRING, "label definition").text
    stream.expect("=", "label definition")
    expr = parse_expression(stream)
    stream.expect(";", "label definition")
    return ast.LabelDef(name, expr, pos)


def parse_expression(stream: TokenStream) -> ast.Expr:
    """Precedence-climbing expression parser over the unified grammar."""
    return _parse_binary(stream, 0)[0]


def _parse_binary(stream: TokenStream, min_prec: int) -> tuple[ast.Expr, int]:
    """The expression and its depth in binary operators."""
    op = stream.key
    if op == "!" or op == "-":
        pos = stream.pos()
        stream.advance()
        operand, depth = _parse_nested(stream, NOT_PREC if op == "!" else NEG_PREC, pos)
        left: ast.Expr = ast.Unary(op, operand, pos)
    else:
        left, depth = _parse_primary(stream)
    while True:
        tok = stream.tok
        if tok.type is not PUNCT:
            break
        prec = BIN_PREC.get(tok.text)
        if prec is None or prec < min_prec:
            break
        stream.advance()
        right, right_depth = _parse_binary(stream, prec + 1)
        depth = max(depth, right_depth) + 1
        if depth > MAX_OPERATOR_DEPTH:
            message = f"expression more than {MAX_OPERATOR_DEPTH} binary operators deep"
            raise ParseError(message, "NESTING", tok)
        left = ast.Binary(tok.text, left, right, ast.Pos(tok.line, tok.col))
    return left, depth


def _parse_nested(stream: TokenStream, min_prec: int, pos: ast.Pos) -> tuple[ast.Expr, int]:
    """Parse the operand of the '(' or prefix operator at pos, one level down."""
    if stream.depth == MAX_NESTING:
        raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", "NESTING", pos)
    stream.depth += 1
    parsed = _parse_binary(stream, min_prec)
    stream.depth -= 1
    return parsed


def _parse_primary(stream: TokenStream) -> tuple[ast.Expr, int]:
    tok, key = stream.tok, stream.key
    if key is IDENT:
        stream.advance()
        return ast.Name(tok.text, ast.Pos(tok.line, tok.col)), 0
    number = _parse_number(stream)
    if number is not None:
        return number, 0
    pos = stream.pos()
    if key == "true" or key == "false":
        return ast.BoolLit(stream.advance().text == "true", pos), 0
    if stream.accept("("):
        parsed = _parse_nested(stream, 0, pos)
        stream.expect(")", "parenthesized expression")
        return parsed
    return stream.fail("an expression")  # type: ignore[return-value]
