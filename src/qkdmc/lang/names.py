"""Name resolution: one global namespace for constants, modules and variables."""

from __future__ import annotations

from qkdmc.errors import ParseError
from qkdmc.lang import ast


def check_declarations(model: ast.Model) -> None:
    """Reject the first name declared twice, in declaration order: constants,
    modules and variables share one namespace, labels have their own.
    """
    declared = [(const.name, const.pos) for const in model.constants]
    for module in model.modules:
        declared.append((module.name, module.pos))
        declared += [(var.name, var.pos) for var in module.variables]
    seen: dict[str, ast.Pos] = {}
    for name, pos in declared:
        if name in seen:
            message = f"duplicate name '{name}' (already declared at {seen[name]})"
            raise ParseError(message, "DUPLICATE", pos)
        seen[name] = pos
    labels: set[str] = set()
    for label in model.labels:
        if label.name in labels:
            raise ParseError(f'duplicate label "{label.name}"', "DUPLICATE", label.pos)
        labels.add(label.name)


def expr_names(expr: ast.Expr) -> set[str]:
    """All identifiers referenced by an expression."""
    return {name.ident for name in _name_nodes(expr)}


def _name_nodes(expr: ast.Expr) -> list[ast.Name]:
    """The identifiers of an expression, left to right."""
    out: list[ast.Name] = []
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name):
            out.append(node)
        elif isinstance(node, ast.Unary):
            pending.append(node.operand)
        elif isinstance(node, ast.Binary):
            pending += (node.right, node.left)
    return out


def check_references(model: ast.Model) -> None:
    """Reject any identifier that is not a declared constant or variable."""
    variables = {var.name for module in model.modules for var in module.variables}
    known = variables | {const.name for const in model.constants}

    def check_expr(expr: ast.Expr) -> None:
        for name in _name_nodes(expr):
            if name.ident not in known:
                raise ParseError(f"unknown identifier '{name.ident}'", "UNKNOWN_IDENT", name.pos)

    for const in model.constants:
        check_expr(const.value)
    for module in model.modules:
        for command in module.commands:
            check_expr(command.guard)
            for update in command.updates:
                if update.prob is not None:
                    check_expr(update.prob)
                for assign in update.assignments:
                    if assign.var not in variables:
                        message = f"unknown variable '{assign.var}' in assignment"
                        raise ParseError(message, "UNKNOWN_IDENT", assign.pos)
                    check_expr(assign.value)
    for label in model.labels:
        check_expr(label.expr)
