"""Syntax tree for the modeling language.

Nodes are immutable records. Source positions are carried on every node but
excluded from equality, hashing and repr, so a parse -> print -> reparse round
trip compares structurally equal even though positions moved.
"""

from __future__ import annotations

from qkdmc.record import Record


class Pos(Record):
    """1-based line/column of the token that started a construct."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_POS = Pos(0, 0)


class Node(Record):
    """Base of the syntax nodes; each one's last field is `pos`, where it starts."""

    pos: Pos = NO_POS
    _not_compared = _not_shown = ("pos",)


class Expr(Node):
    pass


class IntLit(Expr):
    value: int


class RealLit(Expr):
    value: float


class BoolLit(Expr):
    value: bool


class Name(Expr):
    """Reference to a declared constant or variable."""

    ident: str


class Unary(Expr):
    """Unary operation; ``op`` is ``!`` or ``-``."""

    op: str
    operand: Expr


class Binary(Expr):
    """Binary operation; ``op`` is one of ``| & = != < <= > >= + - * /``."""

    op: str
    left: Expr
    right: Expr


class Assignment(Node):
    """One primed assignment ``(var' = expr)`` inside an update."""

    var: str
    value: Expr


class Update(Node):
    """One probabilistic branch of a command.

    ``prob`` is None for the implicit probability 1 of a sole update.
    """

    prob: Expr | None
    assignments: tuple[Assignment, ...]


class Command(Node):
    """Guarded command ``[label] guard -> p1:u1 + ... ;`` (label optional)."""

    label: str | None
    guard: Expr
    updates: tuple[Update, ...]


class VarDecl(Node):
    """Bounded integer variable ``name : [low..high] init start;``."""

    name: str
    low: int
    high: int
    init: int


class ConstDecl(Node):
    """Constant declaration; ``kind`` is ``int`` or ``double``."""

    name: str
    kind: str
    value: Expr


class Module(Node):
    name: str
    variables: tuple[VarDecl, ...]
    commands: tuple[Command, ...]


class LabelDef(Node):
    """Named state predicate ``label "name" = bexpr;``."""

    name: str
    expr: Expr


class Model(Node):
    constants: tuple[ConstDecl, ...]
    modules: tuple[Module, ...]
    labels: tuple[LabelDef, ...]
