"""Round-trip stability of the model printer.

The printer must produce source the parser maps back to the same tree, and
the generator writes its text in the printer's canonical form. Positions are excluded from
node equality, which makes whole-model comparison meaningful.
"""

import pytest

from qkdmc.bb84 import Bb84Params, Passthrough, generate
from qkdmc.lang import Binary, BoolLit, IntLit, Name, RealLit, Unary, parse, print_expr, print_model

GOLDEN_MODELS = [
    "channel_perfect.pm",
    "channel_light_noise.pm",
    "channel_heavy_noise.pm",
    "eve_full.pm",
    "eve_weak.pm",
    "eve_medium.pm",
]


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_golden_round_trip(golden, name):
    tree = parse(golden(name))
    assert parse(print_model(tree)) == tree


@pytest.mark.parametrize(
    "params",
    [
        Bb84Params(photons=1),
        Bb84Params(photons=3, channel=(0.7, 0.1, 0.1, 0.1), eve_q=0.5),
        Bb84Params(photons=2, eve_q=0.2, bias=0.25, passthrough=Passthrough.SOURCE_VALUES),
    ],
)
def test_generated_model_round_trip(params):
    tree = parse(generate(params))
    assert parse(print_model(tree)) == tree
    header, body = generate(params).split("\n", 1)
    assert header.startswith("//") and print_model(tree) == body


def test_idempotent_on_printed_source(golden):
    source = print_model(parse(golden("eve_medium.pm")))
    assert print_model(parse(source)) == source


class TestExprPrinting:
    def test_minimal_parens(self):
        tree = parse(
            "dtmc\nmodule m\n  x : [0..9] init 0;\n"
            "  [] x=0 & (x<3 | x>5) -> (x'=1);\nendmodule\n"
        )
        guard = tree.modules[0].commands[0].guard
        assert print_expr(guard) == "x=0 & (x<3 | x>5)"

    def test_right_associativity_parens(self):
        expr = Binary("-", Name("a"), Binary("-", Name("b"), Name("c")))
        assert print_expr(expr) == "a-(b-c)"
        expr = Binary("-", Binary("-", Name("a"), Name("b")), Name("c"))
        assert print_expr(expr) == "a-b-c"

    def test_unary_forms(self):
        assert print_expr(Unary("-", IntLit(3))) == "-3"
        assert print_expr(Unary("!", Name("ok"))) == "!ok"
        assert print_expr(Unary("-", Binary("+", Name("a"), IntLit(1)))) == "-(a+1)"

    def test_boolean_literals(self):
        assert print_expr(BoolLit(True)) == "true"
        assert print_expr(BoolLit(False)) == "false"

    def test_real_literals_are_lossless(self):
        assert print_expr(RealLit(0.1)) == "0.1"
        assert print_expr(RealLit(1e-12)) == "1e-12"

    def test_probability_parenthesization(self):
        # a sum-typed probability needs parens so it does not swallow the +
        tree = parse(
            "dtmc\nconst double p = 0.3;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> (1-p):(x'=1) + p:(x'=0);\nendmodule\n"
        )
        printed = print_model(tree)
        assert "(1-p):(x'=1)" in printed
        assert parse(printed) == tree


def test_update_order_survives_printing(golden):
    tree = parse(golden("channel_light_noise.pm"))
    printed = print_model(tree)
    channel = next(m for m in parse(printed).modules if m.name == "channel")
    probs = [print_expr(u.prob) for u in channel.commands[0].updates]
    assert probs == ["0.7", "0.1", "0.1", "0.1"]


def test_module_without_commands():
    source = "dtmc\nmodule idle\n  x : [0..1] init 1;\nendmodule\n"
    tree = parse(source)
    assert parse(print_model(tree)) == tree
