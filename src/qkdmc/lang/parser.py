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


class TokenStream:
    """Cursor over a token list with single-token error reporting."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def advance(self) -> Token:
        tok = self._tokens[self._index]
        if tok.type is not TokenType.EOF:
            self._index += 1
        return tok

    def at(self, want: TokenType | str) -> bool:
        tok = self.peek()
        if isinstance(want, TokenType):
            return tok.type is want
        return tok.text == want and tok.type in (TokenType.PUNCT, TokenType.KEYWORD)

    def accept(self, want: TokenType | str) -> Token | None:
        if self.at(want):
            return self.advance()
        return None

    def expect(self, want: TokenType | str, context: str | None = None) -> Token:
        tok = self.accept(want)
        if tok is None:
            label = want.value if isinstance(want, TokenType) else f"'{want}'"
            return self.fail(label, context)
        return tok

    def fail(self, expected: str, context: str | None = None) -> Token:
        tok = self.peek()
        where = f" in {context}" if context else ""
        raise ParseError(f"expected {expected}{where}, found {tok}", tok.line, tok.col)

    def pos(self) -> ast.Pos:
        tok = self.peek()
        return ast.Pos(tok.line, tok.col)


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
    if not stream.at(TokenType.EOF):
        stream.fail("'const', 'module', 'label' or end of input")

    model = ast.Model(tuple(constants), tuple(modules), tuple(labels), pos)
    symbols = names.build_symbols(model)
    names.check_references(model, symbols)
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
    name = stream.expect(TokenType.IDENT, "constant declaration").text
    stream.expect("=", "constant declaration")
    value = _parse_literal(stream)
    stream.expect(";", "constant declaration")
    return ast.ConstDecl(name, kind, value, pos)


def _parse_literal(stream: TokenStream) -> ast.Expr:
    pos = stream.pos()
    negate = stream.accept("-") is not None
    if stream.at(TokenType.INT):
        value: ast.Expr = ast.IntLit(int(stream.advance().text), pos)
    elif stream.at(TokenType.REAL):
        value = ast.RealLit(float(stream.advance().text), pos)
    else:
        stream.fail("a number", "constant declaration")
    if negate:
        value = ast.Unary("-", value, pos)
    return value


def _parse_module(stream: TokenStream) -> ast.Module:
    pos = stream.pos()
    stream.expect("module")
    name = stream.expect(TokenType.IDENT, "module header").text
    variables = []
    while stream.at(TokenType.IDENT):
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
    name = stream.expect(TokenType.IDENT).text
    stream.expect(":", "variable declaration")
    stream.expect("[", "variable declaration")
    low = int(stream.expect(TokenType.INT, "variable bounds").text)
    stream.expect("..", "variable bounds")
    high = int(stream.expect(TokenType.INT, "variable bounds").text)
    stream.expect("]", "variable declaration")
    stream.expect("init", "variable declaration")
    init = int(stream.expect(TokenType.INT, "initial value").text)
    stream.expect(";", "variable declaration")
    return ast.VarDecl(name, low, high, init, pos)


def _parse_command(stream: TokenStream) -> ast.Command:
    pos = stream.pos()
    stream.expect("[")
    label = None
    if stream.at(TokenType.IDENT):
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
                raise ParseError(
                    "every update in a multi-update command needs an explicit probability",
                    update.pos.line,
                    update.pos.col,
                )
    return ast.Command(label, guard, tuple(updates), pos)


def _at_assignment(stream: TokenStream) -> bool:
    # An update body starts "( ident '"; anything else after "(" is a
    # probability expression.
    return (
        stream.at("(")
        and stream.peek(1).type is TokenType.IDENT
        and stream.peek(2).text == "'"
    )


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
    var = stream.expect(TokenType.IDENT, "assignment").text
    stream.expect("'", "assignment")
    stream.expect("=", "assignment")
    value = parse_expression(stream)
    stream.expect(")", "assignment")
    return ast.Assignment(var, value, pos)


def _parse_labeldef(stream: TokenStream) -> ast.LabelDef:
    pos = stream.pos()
    stream.expect("label")
    name = stream.expect(TokenType.STRING, "label definition").text
    stream.expect("=", "label definition")
    expr = parse_expression(stream)
    stream.expect(";", "label definition")
    return ast.LabelDef(name, expr, pos)


def parse_expression(stream: TokenStream, min_prec: int = 0) -> ast.Expr:
    """Precedence-climbing expression parser over the unified grammar."""
    pos = stream.pos()
    if stream.accept("!"):
        left: ast.Expr = ast.Unary("!", _parse_nested(stream, NOT_PREC, pos), pos)
    elif stream.accept("-"):
        left = ast.Unary("-", _parse_nested(stream, NEG_PREC, pos), pos)
    else:
        left = _parse_primary(stream)
    while True:
        tok = stream.peek()
        if tok.type is not TokenType.PUNCT:
            break
        prec = BIN_PREC.get(tok.text)
        if prec is None or prec < min_prec:
            break
        stream.advance()
        right = parse_expression(stream, prec + 1)
        left = ast.Binary(tok.text, left, right, ast.Pos(tok.line, tok.col))
    return left


def _parse_nested(stream: TokenStream, min_prec: int, pos: ast.Pos) -> ast.Expr:
    """Parse the operand of the '(' or prefix operator at pos, one level down."""
    if stream.depth == MAX_NESTING:
        raise ParseError(
            f"expression nested more than {MAX_NESTING} levels deep",
            pos.line,
            pos.col,
            code="NESTING",
        )
    stream.depth += 1
    expr = parse_expression(stream, min_prec)
    stream.depth -= 1
    return expr


def _parse_primary(stream: TokenStream) -> ast.Expr:
    pos = stream.pos()
    if stream.at(TokenType.INT):
        return ast.IntLit(int(stream.advance().text), pos)
    if stream.at(TokenType.REAL):
        return ast.RealLit(float(stream.advance().text), pos)
    if stream.at("true"):
        stream.advance()
        return ast.BoolLit(True, pos)
    if stream.at("false"):
        stream.advance()
        return ast.BoolLit(False, pos)
    if stream.at(TokenType.IDENT):
        return ast.Name(stream.advance().text, pos)
    if stream.accept("("):
        expr = _parse_nested(stream, 0, pos)
        stream.expect(")", "parenthesized expression")
        return expr
    return stream.fail("an expression")  # type: ignore[return-value]
