"""Canonical text rendering; parse(print_model(ast)) is structurally equal."""

from __future__ import annotations

from typing import Callable, Mapping

from qkdmc.lang import ast
from qkdmc.lang.parser import BIN_PREC, NEG_PREC, NOT_PREC

# Each operator's text, a binary one's with its blanks. A prefix operator is
# keyed as applied to an operand x, since '-' is also binary.
MODEL_SPELLING = {**{op: op for op in BIN_PREC}, "&": " & ", "|": " | ", "!x": "!", "-x": "-"}


def render(
    expr: ast.Expr,
    leaf: Callable[[ast.Expr], str],
    spelling: Mapping[str, str],
    min_prec: int = 0,
) -> str:
    """Render an expression with minimal parentheses, each literal and name
    by `leaf`, each operator as `spelling` has it (model text or Python)."""
    if isinstance(expr, ast.Unary):
        prec = NOT_PREC if expr.op == "!" else NEG_PREC
        text = spelling[expr.op + "x"] + render(expr.operand, leaf, spelling, prec + 1)
    elif isinstance(expr, ast.Binary):
        prec = BIN_PREC[expr.op]
        # Right operand gets prec+1 so non-associative printings re-bind the
        # same way they parsed (a-(b-c) keeps its parentheses, a-b-c stays flat).
        left = render(expr.left, leaf, spelling, prec)
        right = render(expr.right, leaf, spelling, prec + 1)
        text = left + spelling[expr.op] + right
    else:
        return leaf(expr)
    return f"({text})" if prec < min_prec else text


def _leaf(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    return repr(expr.value)  # type: ignore[attr-defined]


def print_expr(expr: ast.Expr) -> str:
    """Render an expression with minimal parentheses."""
    return render(expr, _leaf, MODEL_SPELLING)


def _update(update: ast.Update) -> str:
    body = "&".join(
        f"({assign.var}'={print_expr(assign.value)})" for assign in update.assignments
    )
    if update.prob is None:
        return body
    return f"{render(update.prob, _leaf, MODEL_SPELLING, BIN_PREC['+'] + 1)}:{body}"


def _command(command: ast.Command) -> str:
    label = command.label or ""
    updates = " + ".join(_update(u) for u in command.updates)
    return f"  [{label}] {print_expr(command.guard)} -> {updates};"


def print_model(model: ast.Model) -> str:
    """Render a full model file, ending with a newline."""
    lines: list[str] = ["dtmc"]
    if model.constants:
        lines.append("")
        for const in model.constants:
            lines.append(f"const {const.kind} {const.name} = {print_expr(const.value)};")
    for module in model.modules:
        lines.append("")
        lines.append(f"module {module.name}")
        for var in module.variables:
            lines.append(f"  {var.name} : [{var.low}..{var.high}] init {var.init};")
        for command in module.commands:
            lines.append(_command(command))
        lines.append("endmodule")
    if model.labels:
        lines.append("")
        for label in model.labels:
            lines.append(f'label "{label.name}" = {print_expr(label.expr)};')
    return "\n".join(lines) + "\n"
