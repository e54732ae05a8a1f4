"""Static analysis over expressions: kinds, constant folding, compilation.

Kinds are 'int', 'double' and 'bool'. Guards and label definitions must be
boolean over integer comparisons; assignment right-hand sides must be integer
arithmetic; probability expressions must fold to a numeric constant at
validation time (no state variables).

A kind-checked expression renders as Python source, each variable read as
the caller says, constants inlined. ``compile_expr`` evaluates it as one
function over a state tuple ``s``; the explorer inlines it, over a state's
code, into its walk and state queries. The parser's nesting and operator
limits keep that source within what Python compiles.
"""

from __future__ import annotations

from typing import Callable, Mapping

from qkdmc.errors import ValidationError
from qkdmc.lang import ast
from qkdmc.lang.parser import BIN_PREC, NEG_PREC, NOT_PREC

_NUMERIC = ("int", "double")
_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/"})
_BOOLEAN = frozenset({"&", "|"})
_PYTHON_OPS = {"=": "==", "&": "and", "|": "or", "!": "not "}


def _err(message: str, pos: ast.Pos, code: str = "TYPE") -> ValidationError:
    return ValidationError(message, code, pos.line, pos.col)


def kind_of(expr: ast.Expr, const_kinds: Mapping[str, str], variables: Mapping[str, object]) -> str:
    """Infer the kind of an expression, rejecting ill-kinded operands."""
    if isinstance(expr, ast.IntLit):
        return "int"
    if isinstance(expr, ast.RealLit):
        return "double"
    if isinstance(expr, ast.BoolLit):
        return "bool"
    if isinstance(expr, ast.Name):
        if expr.ident in variables:
            return "int"
        return const_kinds[expr.ident]
    if isinstance(expr, ast.Unary):
        inner = kind_of(expr.operand, const_kinds, variables)
        if expr.op == "!":
            if inner != "bool":
                raise _err("operand of '!' must be boolean", expr.pos)
            return "bool"
        if inner not in _NUMERIC:
            raise _err("operand of unary '-' must be numeric", expr.pos)
        return inner
    assert isinstance(expr, ast.Binary)
    left = kind_of(expr.left, const_kinds, variables)
    right = kind_of(expr.right, const_kinds, variables)
    if expr.op in _COMPARISONS:
        if left != "int" or right != "int":
            raise _err(f"'{expr.op}' compares integer expressions only", expr.pos)
        return "bool"
    if expr.op in _BOOLEAN:
        if left != "bool" or right != "bool":
            raise _err(f"operands of '{expr.op}' must be boolean", expr.pos)
        return "bool"
    assert expr.op in _ARITHMETIC
    if left not in _NUMERIC or right not in _NUMERIC:
        raise _err(f"operands of '{expr.op}' must be numeric", expr.pos)
    if expr.op == "/":
        return "double"
    return "double" if "double" in (left, right) else "int"


def check_kind(
    expr: ast.Expr,
    expected: str,
    const_kinds: Mapping[str, str],
    variables: Mapping[str, object],
    what: str,
) -> None:
    kind = kind_of(expr, const_kinds, variables)
    if expected == "numeric":
        if kind not in _NUMERIC:
            raise _err(f"{what} must be numeric, got {kind}", expr.pos)
        return
    if kind != expected:
        raise _err(f"{what} must be {expected}, got {kind}", expr.pos)


def fold_number(expr: ast.Expr, constants: Mapping[str, int | float]) -> float:
    """Evaluate a numeric expression over constants only.

    State-variable references are rejected: probabilities must be known at
    validation time.
    """
    if isinstance(expr, ast.IntLit):
        return float(expr.value)
    if isinstance(expr, ast.RealLit):
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.ident not in constants:
            raise _err(
                f"probability expression depends on state variable '{expr.ident}'",
                expr.pos,
                code="PROB_CONST",
            )
        return float(constants[expr.ident])
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -fold_number(expr.operand, constants)
    if isinstance(expr, ast.Binary) and expr.op in _ARITHMETIC:
        left = fold_number(expr.left, constants)
        right = fold_number(expr.right, constants)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0.0:
            raise _err("division by zero in constant expression", expr.pos, code="DIV_ZERO")
        return left / right
    raise _err("expected a numeric constant expression", expr.pos)


def render_expr(
    expr: ast.Expr,
    reads: Mapping[str, str],
    constants: Mapping[str, int | float],
    min_prec: int = 0,
) -> str:
    """Python source of a kind-checked expression.

    Each variable reads as the atomic source ``reads`` maps it to; constants
    are inlined by ``repr``. Parentheses are minimal, as in printer._expr:
    the model orders Python's operators the same way, and comparison operands
    are always integers, so Python's comparison chaining never applies.
    """
    if isinstance(expr, (ast.IntLit, ast.RealLit, ast.BoolLit)):
        return f"({expr.value!r})"
    if isinstance(expr, ast.Name):
        if expr.ident in reads:
            return reads[expr.ident]
        return f"({constants[expr.ident]!r})"
    op = _PYTHON_OPS.get(expr.op, expr.op)
    if isinstance(expr, ast.Unary):
        prec = NOT_PREC if expr.op == "!" else NEG_PREC
        text = op + render_expr(expr.operand, reads, constants, prec + 1)
    else:
        prec = BIN_PREC[expr.op]
        left = render_expr(expr.left, reads, constants, prec)
        right = render_expr(expr.right, reads, constants, prec + 1)
        text = f"{left} {op} {right}"
    return f"({text})" if prec < min_prec else text


def compile_expr(
    expr: ast.Expr,
    var_index: Mapping[str, int],
    constants: Mapping[str, int | float],
) -> Callable[[tuple[int, ...]], int | bool]:
    """Compile a kind-checked expression to one function over a state tuple.

    Variables read ``s[i]``. Used for guard-overlap enumeration.
    """
    source = render_expr(expr, {name: f"s[{i}]" for name, i in var_index.items()}, constants)
    return eval(f"lambda s: {source}", {"__builtins__": {}})
