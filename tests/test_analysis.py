"""Expression compilation and interval bounds agree with a direct evaluator."""

from __future__ import annotations

import itertools
import operator

from hypothesis import given, strategies as st

from qkdmc.explorer import build
from qkdmc.lang import ast, parse, validate
from qkdmc.lang.analysis import bounds, compile_expr, kind_of

VARIABLES = ("x", "y", "z")
VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
CONSTANTS = {"k": -3, "m": 4}
CONST_KINDS = {name: "int" for name in CONSTANTS}

_BINARY = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&": lambda a, b: a and b,
    "|": lambda a, b: a or b,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def reference(expr: ast.Expr, env: dict[str, int]):
    """Evaluate an expression tree directly, as the modeling language defines it."""
    if isinstance(expr, (ast.IntLit, ast.RealLit, ast.BoolLit)):
        return expr.value
    if isinstance(expr, ast.Name):
        return env[expr.ident]
    if isinstance(expr, ast.Unary):
        value = reference(expr.operand, env)
        return (not value) if expr.op == "!" else -value
    assert isinstance(expr, ast.Binary)
    return _BINARY[expr.op](reference(expr.left, env), reference(expr.right, env))


def _binary(ops, left, right):
    return st.builds(ast.Binary, st.sampled_from(ops), left, right)


# Negative literals cannot come from the parser but can from generated
# syntax trees, so the renderer must parenthesize them like constants.
ints = st.deferred(
    lambda: st.integers(-5, 5).map(ast.IntLit)
    | st.sampled_from(VARIABLES + tuple(CONSTANTS)).map(ast.Name)
    | ints.map(lambda e: ast.Unary("-", e))
    | _binary(["+", "-", "*"], ints, ints)
)
bools = st.deferred(
    lambda: st.booleans().map(ast.BoolLit)
    | bools.map(lambda e: ast.Unary("!", e))
    | _binary(["=", "!=", "<", "<=", ">", ">="], ints, ints)
    | _binary(["&", "|"], bools, bools)
)
doubles = st.builds(
    ast.Binary,
    st.just("/"),
    ints | st.floats(-4.0, 4.0).map(ast.RealLit),
    st.sampled_from([-2, 1, 3]).map(ast.IntLit),
)
states = st.tuples(*(st.integers(-4, 4) for _ in VARIABLES))


class TestCompiledMatchesReference:
    @given(st.one_of(ints, bools, doubles), st.lists(states, min_size=1, max_size=5))
    def test_random_expressions(self, expr, valuations):
        assert kind_of(expr, CONST_KINDS, VAR_INDEX) in ("int", "bool", "double")
        compiled = compile_expr(expr, VAR_INDEX, CONSTANTS)
        for state in valuations:
            env = {**CONSTANTS, **dict(zip(VARIABLES, state))}
            assert compiled(state) == reference(expr, env)

    def test_nested_operands_keep_their_grouping(self):
        x, y, z = (ast.Name(name) for name in VARIABLES)
        cases = [
            (ast.Binary("*", ast.Binary("+", x, y), z), (1 + 2) * 3),
            (ast.Binary("-", x, ast.Binary("-", y, z)), 1 - (2 - 3)),
            (ast.Binary("*", x, ast.Binary("+", y, z)), 1 * (2 + 3)),
            (ast.Unary("-", ast.Binary("+", x, y)), -(1 + 2)),
            (ast.Binary("-", x, ast.Name("k")), 1 - -3),
            (ast.Binary("&", ast.BoolLit(False), ast.Binary("|", ast.BoolLit(True),
                                                             ast.BoolLit(True))), False),
        ]
        for expr, expected in cases:
            assert compile_expr(expr, VAR_INDEX, CONSTANTS)((1, 2, 3)) == expected


# A declared range per variable, each within [-4..8].
ranges = st.tuples(*(st.tuples(st.integers(-4, 4), st.integers(0, 4)) for _ in VARIABLES)).map(
    lambda drawn: {name: (low, low + width) for name, (low, width) in zip(VARIABLES, drawn)}
)


class TestBounds:
    @given(st.one_of(ints, doubles), ranges)
    def test_every_valuation_in_range_evaluates_within_the_bounds(self, expr, declared):
        low, high = bounds(expr, declared, CONSTANTS)
        boxes = [range(declared[name][0], declared[name][1] + 1) for name in VARIABLES]
        for state in itertools.product(*boxes):
            assert low <= reference(expr, {**CONSTANTS, **dict(zip(VARIABLES, state))}) <= high

    @given(st.one_of(ints, doubles), states)
    def test_without_variables_the_bounds_are_the_value(self, expr, state):
        # Every name is a constant here.
        constants = {**CONSTANTS, **dict(zip(VARIABLES, state))}
        value = reference(expr, constants)
        low, high = bounds(expr, {}, constants)
        assert low == high == value and type(low) is type(value)


def _single_command_model(guard: str) -> str:
    return f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] {guard} -> (x'=1);\nendmodule\n"


class TestLongChains:
    def test_long_conjunction_and_sum_build(self):
        for guard in (" & ".join(["x=0"] * 600), "+".join(["x"] * 600) + "=0"):
            dtmc = build(validate(parse(_single_command_model(guard))))
            assert dtmc.state_count == 2
            assert dtmc.row(0) == ((1, 1.0),)
