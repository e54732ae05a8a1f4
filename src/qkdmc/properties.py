"""PCTL probability queries: the P=? unbounded until/eventually fragment.

Grammar: ``P=? [ F target ]`` or ``P=? [ constraint U target ]`` where target
and constraint are either a quoted label name or a parenthesized boolean
expression over the model's variables. ``F psi`` is sugar for ``true U psi``.
"""

from __future__ import annotations

from qkdmc.errors import PropertyError, ValidationError
from qkdmc.explorer import Dtmc
from qkdmc.lang import ast
from qkdmc.lang.analysis import check_kind
from qkdmc.lang.lexer import TokenType, tokenize
from qkdmc.lang.names import expr_names
from qkdmc.lang.parser import TokenStream, parse_expression
from qkdmc.record import Record


class LabelOperand(Record):
    name: str


class ExprOperand(Record):
    expr: ast.Expr


Operand = LabelOperand | ExprOperand


class PropertyQuery(Record):
    """Until query; constraint is None for the Eventually form."""

    constraint: Operand | None
    target: Operand


def parse_property(text: str) -> PropertyQuery:
    """Parse property text; resolution against a model happens separately."""
    stream = TokenStream(tokenize(text))
    _expect_word(stream, "P")
    stream.expect("=", "property")
    stream.expect("?", "property")
    stream.expect("[", "property")
    first = _parse_operand(stream, allow_f=True)
    if first is None:
        target = _parse_operand(stream)
        stream.expect("]", "property")
        _expect_end(stream)
        return PropertyQuery(None, target)
    _expect_word(stream, "U")
    target = _parse_operand(stream)
    stream.expect("]", "property")
    _expect_end(stream)
    return PropertyQuery(first, target)


def _expect_word(stream: TokenStream, word: str) -> None:
    tok = stream.peek()
    if tok.type is TokenType.IDENT and tok.text == word:
        stream.advance()
        return
    stream.fail(f"'{word}'", "property")


def _expect_end(stream: TokenStream) -> None:
    if not stream.at(TokenType.EOF):
        stream.fail("end of property")


def _parse_operand(stream: TokenStream, allow_f: bool = False) -> Operand | None:
    """Parse one operand; with allow_f, an F consumes the sugar and returns None."""
    tok = stream.peek()
    if allow_f and tok.type is TokenType.IDENT and tok.text == "F":
        stream.advance()
        return None
    if tok.type is TokenType.STRING:
        stream.advance()
        return LabelOperand(tok.text)
    if stream.at("(") or stream.at("true") or stream.at("false") or stream.at("!"):
        return ExprOperand(parse_expression(stream))
    return stream.fail("a quoted label, a parenthesized expression or 'F'", "property")  # type: ignore[return-value]


def resolve_operand(operand: Operand, dtmc: Dtmc) -> frozenset[int]:
    """States satisfying an operand, from one `Dtmc.states_where` scan.

    A label operand scans for its definition; PropertyError UNKNOWN_LABEL
    lists the labels the model defines. An expression operand must name
    only the model's variables and constants (UNKNOWN_IDENT), read none that
    a reduced build may have reset (RESET_READ, see `Dtmc.reset`) and be
    boolean (TYPE). A label reads no variable the reduction resets.
    """
    if isinstance(operand, LabelOperand):
        if operand.name not in dtmc.labels:
            known = ", ".join(sorted(dtmc.labels)) or "none"
            raise PropertyError(
                f'model defines no label "{operand.name}" (labels: {known})',
                code="UNKNOWN_LABEL",
            )
        return dtmc.states_where(dtmc.labels[operand.name])
    decls = {var.name: var for var in dtmc.variables}
    for ident in sorted(expr_names(operand.expr)):
        if ident not in decls and ident not in dtmc.constants:
            raise PropertyError(f"unknown identifier '{ident}' in property", code="UNKNOWN_IDENT")
        if ident in dtmc.reset:
            raise PropertyError(
                f"property reads '{ident}', which this reduced model resets where no label "
                "reads it; query a label, or a model built without the reduction",
                code="RESET_READ",
            )
    const_kinds = {
        name: ("int" if isinstance(value, int) else "double")
        for name, value in dtmc.constants.items()
    }
    try:
        check_kind(operand.expr, "bool", const_kinds, decls, "property expression")
    except ValidationError as exc:
        raise PropertyError(str(exc), code="TYPE") from exc
    return dtmc.states_where(operand.expr)


__all__ = [
    "ExprOperand",
    "LabelOperand",
    "Operand",
    "PropertyQuery",
    "parse_property",
    "resolve_operand",
]
