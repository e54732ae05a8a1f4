"""Static analysis over expressions: kinds, interval bounds, compilation.

Kinds are 'int', 'double' and 'bool'. Guards and label definitions must be
boolean over integer comparisons; assignment right-hand sides must be integer
arithmetic; probability expressions must fold to a numeric constant at
validation time (no state variables). ``bounds`` is the one numeric
evaluator.

A kind-checked expression renders as Python source, each variable read as
the caller says, constants inlined. ``compile_expr`` evaluates it as one
function over a state tuple ``s``; the explorer inlines it, over a state's
code, into its walk and state queries. The parser's nesting and operator
limits keep that source within what Python compiles.

Every generated function (the overlap guards of ``compile_expr``, the
explorer's walk and its state scans) is made by ``compiled``, which keeps
the functions of the last WALK_CACHE_SIZE walks and EXPR_CACHE_SIZE other
sources per process, none longer than MAX_CACHED_SOURCE: a model built
again, or one of the same shape with other probabilities, reuses its
function, so a generated function keeps no state of one use.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from typing import Any, Callable, Mapping

from qkdmc.errors import ValidationError
from qkdmc.lang import ast
from qkdmc.lang.parser import BIN_PREC
from qkdmc.lang.printer import render


def to_float(x: int | float, divisor: int | float = 1) -> float:
    """x / divisor as a float, an infinity if it is beyond the float range."""
    try:
        return x / divisor
    except OverflowError:  # only an int quotient overflows
        return math.inf if (x < 0) == (divisor < 0) else -math.inf


_NUMERIC = ("int", "double")
_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": to_float}
_BOOLEAN = frozenset({"&", "|"})
_PYTHON_SPELLING = {op: f" {op} " for op in BIN_PREC} | {
    "=": " == ", "&": " and ", "|": " or ", "!x": "not ", "-x": "-"
}


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
                raise ValidationError("operand of '!' must be boolean", pos=expr.pos)
            return "bool"
        if inner not in _NUMERIC:
            raise ValidationError("operand of unary '-' must be numeric", pos=expr.pos)
        return inner
    assert isinstance(expr, ast.Binary)
    left = kind_of(expr.left, const_kinds, variables)
    right = kind_of(expr.right, const_kinds, variables)
    if expr.op in _COMPARISONS:
        if left != "int" or right != "int":
            raise ValidationError(f"'{expr.op}' compares integer expressions only", pos=expr.pos)
        return "bool"
    if expr.op in _BOOLEAN:
        if left != "bool" or right != "bool":
            raise ValidationError(f"operands of '{expr.op}' must be boolean", pos=expr.pos)
        return "bool"
    assert expr.op in _ARITHMETIC
    if left not in _NUMERIC or right not in _NUMERIC:
        raise ValidationError(f"operands of '{expr.op}' must be numeric", pos=expr.pos)
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
            raise ValidationError(f"{what} must be numeric, got {kind}", pos=expr.pos)
        return
    if kind != expected:
        raise ValidationError(f"{what} must be {expected}, got {kind}", pos=expr.pos)


def bounds(
    expr: ast.Expr, ranges: Mapping[str, tuple[int, int]], constants: Mapping[str, int | float]
) -> tuple[int | float, int | float]:
    """The least and greatest value of a numeric expression, each variable
    over its (low, high) in `ranges` (interval analysis: Cousot & Cousot,
    POPL 1977); without variables, both are its value. Ints stay exact, as
    the generated code evaluates them: a float would round above 2**53. A
    float operand makes a float (see `to_float`). A name neither in `ranges`
    nor a constant is a state variable (PROB_CONST).
    """
    if isinstance(expr, (ast.IntLit, ast.RealLit)):
        return expr.value, expr.value
    if isinstance(expr, ast.Name):
        if expr.ident in ranges:
            return ranges[expr.ident]
        if expr.ident not in constants:
            message = f"probability expression depends on state variable '{expr.ident}'"
            raise ValidationError(message, "PROB_CONST", expr.pos)
        return constants[expr.ident], constants[expr.ident]
    if isinstance(expr, ast.Unary) and expr.op == "-":
        low, high = bounds(expr.operand, ranges, constants)
        return -high, -low
    if not (isinstance(expr, ast.Binary) and expr.op in _ARITHMETIC):
        raise ValidationError("expected a numeric constant expression", pos=expr.pos)
    a, b = bounds(expr.left, ranges, constants)
    c, d = bounds(expr.right, ranges, constants)
    if any(isinstance(v, float) for v in (a, b, c, d)):
        a, b, c, d = map(to_float, (a, b, c, d))
    if expr.op == "/" and c <= 0 <= d:
        raise ValidationError("division by zero in constant expression", "DIV_ZERO", expr.pos)
    # Over a box each operation is extreme at a corner (no divisor is 0).
    ends = [_ARITHMETIC[expr.op](x, y) for x in (a, b) for y in (c, d)]
    return min(ends), max(ends)


def render_expr(
    expr: ast.Expr, reads: Mapping[str, str], constants: Mapping[str, int | float]
) -> str:
    """Python source of a kind-checked expression.

    Each variable reads as the atomic source ``reads`` maps it to; constants
    are inlined by ``repr``. Parentheses are minimal, as in the model text:
    the model orders Python's operators the same way, and comparison operands
    are always integers, so Python's comparison chaining never applies.
    """

    def leaf(expr: ast.Expr) -> str:
        if isinstance(expr, ast.Name):
            if expr.ident in reads:
                return reads[expr.ident]
            return f"({constants[expr.ident]!r})"
        return f"({expr.value!r})"  # type: ignore[attr-defined]

    return render(expr, leaf, _PYTHON_SPELLING)


# The most walks `compiled` keeps, and the most other functions (guards of
# `compile_expr` and state scans): a figure or a grid over one model shape
# makes a handful of walks, and a function is freed once it leaves. Guards
# and scans have their own entries, so validating a model of many guards
# evicts no walk. A source longer than MAX_CACHED_SOURCE characters (the
# walk of a few hundred commands) is compiled at each use and not kept: 32
# walks of 3,000 commands, at 1.7 MiB of source and code each, would hold
# 55 MiB.
WALK_CACHE_SIZE = 32
EXPR_CACHE_SIZE = 16
CODE_CACHE_SIZE = WALK_CACHE_SIZE + EXPR_CACHE_SIZE
MAX_CACHED_SOURCE = 2**16

CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _define(source: str) -> Callable[..., Any]:
    """The function that generated source defines. It sees only the walk's
    builtins, tracebacks show its file as ``<explore>``, and it is popped
    from its namespace, so the two form no reference cycle."""
    namespace = {"__builtins__": {"enumerate": enumerate, "len": len, "sorted": sorted}}
    exec(compile(source, "<explore>", "exec"), namespace)
    return namespace.popitem()[1]


class _Compiled:
    """`compiled`: the function a generated source defines, made once per
    process while the source is among the last WALK_CACHE_SIZE walks or
    EXPR_CACHE_SIZE other sources asked for, and at most MAX_CACHED_SOURCE
    long. `cache_info` and `cache_clear` act on both caches, as those of
    one `functools.lru_cache` would; a source too long to keep counts as a
    miss."""

    def __init__(self) -> None:
        self._walks = functools.lru_cache(maxsize=WALK_CACHE_SIZE)(_define)
        self._exprs = functools.lru_cache(maxsize=EXPR_CACHE_SIZE)(_define)
        self._uncached = 0

    def __call__(self, source: str) -> Callable[..., Any]:
        if len(source) > MAX_CACHED_SOURCE:
            self._uncached += 1
            return _define(source)
        return (self._walks if source.startswith("def explore(") else self._exprs)(source)

    def cache_info(self) -> CacheInfo:
        walks, exprs = self._walks.cache_info(), self._exprs.cache_info()
        return CacheInfo(walks.hits + exprs.hits, walks.misses + exprs.misses + self._uncached,
                         CODE_CACHE_SIZE, walks.currsize + exprs.currsize)

    def cache_clear(self) -> None:
        self._walks.cache_clear()
        self._exprs.cache_clear()
        self._uncached = 0


compiled = _Compiled()


def compile_expr(
    expr: ast.Expr,
    var_index: Mapping[str, int],
    constants: Mapping[str, int | float],
) -> Callable[[tuple[int, ...]], int | bool]:
    """Compile a kind-checked expression to one function over a state tuple.

    Variables read ``s[i]``. Used for guard-overlap enumeration; equal
    sources share one function (see `compiled`).
    """
    source = render_expr(expr, {name: f"s[{i}]" for name, i in var_index.items()}, constants)
    return compiled(f"def guard(s): return {source}")
