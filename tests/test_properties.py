"""Property grammar and operand resolution."""

import struct

import pytest

from qkdmc.errors import ParseError, PropertyError
from qkdmc.explorer import build
from qkdmc.lang import parse, print_expr, validate
from qkdmc.properties import ExprOperand, LabelOperand, parse_property, resolve_operand
from qkdmc.solver import prob_until

MODEL = (
    "dtmc\nmodule m\n  x : [0..2] init 0;\n"
    "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
    'label "goal" = x=2;\n'
)


@pytest.fixture
def dtmc():
    return build(validate(parse(MODEL)))


class TestParsing:
    def test_eventually_label(self):
        query = parse_property('P=? [ F "detected" ]')
        assert query.constraint is None
        assert isinstance(query.target, LabelOperand)
        assert query.target.name == "detected"

    def test_until_with_label_operands(self):
        query = parse_property('P=? [ "a" U "b" ]')
        assert query.constraint == LabelOperand("a")

    def test_until_with_expressions(self):
        query = parse_property("P=? [ (x<2) U (x=2) ]")
        assert isinstance(query.constraint, ExprOperand)
        assert print_expr(query.constraint.expr) == "x<2"
        assert print_expr(query.target.expr) == "x=2"

    def test_eventually_expression(self):
        query = parse_property("P=? [ F (x=2) ]")
        assert query.constraint is None
        assert print_expr(query.target.expr) == "x=2"

    def test_true_constraint(self):
        query = parse_property('P=? [ true U "goal" ]')
        assert isinstance(query.constraint, ExprOperand)

    def test_whitespace_is_flexible(self):
        assert parse_property('P=?[F "goal"]').target == LabelOperand("goal")

    @pytest.mark.parametrize(
        "text",
        [
            'P=? [ G "x" ]',
            "P=? [ F ]",
            'P=? [ F "a" ] extra',
            'P>0.5 [ F "a" ]',
            'P=? [ "a" U ]',
            "",
        ],
    )
    def test_malformed_queries(self, text):
        with pytest.raises(ParseError):
            parse_property(text)


class TestResolution:
    def test_label_operand(self, dtmc):
        states = resolve_operand(LabelOperand("goal"), dtmc)
        assert {dtmc.state(i) for i in states} == {(2,)}

    def test_expression_operand(self, dtmc):
        query = parse_property("P=? [ F (x=1) ]")
        states = resolve_operand(query.target, dtmc)
        assert {dtmc.state(i) for i in states} == {(1,)}

    def test_true_covers_every_state(self, dtmc):
        query = parse_property('P=? [ true U "goal" ]')
        assert len(resolve_operand(query.constraint, dtmc)) == dtmc.state_count

    def test_unknown_label_lists_the_known_ones(self, dtmc):
        with pytest.raises(PropertyError) as info:
            resolve_operand(LabelOperand("nope"), dtmc)
        assert info.value.code == "UNKNOWN_LABEL"
        assert "goal" in str(info.value)

    def test_expression_must_be_bool(self, dtmc):
        query = parse_property("P=? [ F (x+1) ]")
        with pytest.raises(PropertyError) as info:
            resolve_operand(query.target, dtmc)
        assert info.value.code == "TYPE"

    def test_unknown_identifier_in_expression(self, dtmc):
        query = parse_property("P=? [ F (y=1) ]")
        with pytest.raises(PropertyError):
            resolve_operand(query.target, dtmc)


# A cyclic walk with two labels, so the solved values are not all 0 or 1.
WALK = (
    "dtmc\nconst int top = 6;\nmodule m\n  x : [0..6] init 3;\n"
    "  [] x>0 & x<top -> 0.4:(x'=x+1) + 0.6:(x'=x-1);\nendmodule\n"
    'label "goal" = x=top;\nlabel "c" = x!=1;\n'
)


@pytest.mark.parametrize(
    "by_label, by_expression",
    [
        ('P=? [ F "goal" ]', "P=? [ F (x=top) ]"),
        ('P=? [ "c" U "goal" ]', "P=? [ (x!=1) U (x=top) ]"),
    ],
)
def test_a_label_and_its_definition_solve_alike(by_label, by_expression):
    dtmc = build(validate(parse(WALK)))
    labelled = prob_until(dtmc, parse_property(by_label)).values
    defined = prob_until(dtmc, parse_property(by_expression)).values
    assert 0.0 < labelled[dtmc.initial] < 1.0
    assert struct.pack(f"{len(labelled)}d", *labelled) == struct.pack(
        f"{len(defined)}d", *defined
    )
