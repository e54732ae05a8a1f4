"""Lexer and parser behavior, including the transcribed command fixtures."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qkdmc.errors import ParseError, ValidationError
from qkdmc.explorer import build
from qkdmc.lang import IntLit, Name, Unary, parse, print_expr, validate
from qkdmc.lang.lexer import TokenType, tokenize
from qkdmc.lang.parser import MAX_INT_DIGITS, MAX_NESTING, MAX_OPERATOR_DEPTH
from qkdmc.properties import parse_property, resolve_operand


def wrap(body: str, decls: str = "  x : [0..1] init 0;") -> str:
    return f"dtmc\nmodule m\n{decls}\n{body}\nendmodule\n"


class TestBasics:
    def test_minimal_model(self):
        model = parse("dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n")
        assert len(model.modules) == 1
        assert model.modules[0].name == "m"
        var = model.modules[0].variables[0]
        assert (var.name, var.low, var.high, var.init) == ("x", 0, 1, 0)

    def test_range_dots_lex_as_punctuation(self):
        # 0..1 must not lex as the real number 0. followed by .1
        model = parse("dtmc\nmodule m\n  x : [0..10] init 3;\nendmodule\n")
        var = model.modules[0].variables[0]
        assert (var.low, var.high, var.init) == (0, 10, 3)

    def test_constants(self):
        model = parse("dtmc\nconst int n = 5;\nconst double p = 0.25;\nconst int neg = -3;\n")
        decls = {c.name: (c.kind, c.value) for c in model.constants}
        assert decls["n"][0] == "int" and decls["n"][1] == IntLit(5)
        assert decls["p"][0] == "double"
        assert decls["neg"][1] == Unary("-", IntLit(3))

    def test_comments_and_blank_lines(self):
        source = "// header\ndtmc\n\n// mid\nmodule m\n  x : [0..1] init 0; // trailing\nendmodule\n"
        model = parse(source)
        assert model.modules[0].variables[0].name == "x"

    def test_label_definitions(self):
        model = parse(
            'dtmc\nmodule m\n  x : [0..2] init 0;\nendmodule\nlabel "done" = x=2;\n'
        )
        assert model.labels[0].name == "done"
        assert print_expr(model.labels[0].expr) == "x=2"


class TestCommands:
    def test_single_update_implicit_probability(self):
        model = parse(wrap("  [] x=0 -> (x'=1);"))
        command = model.modules[0].commands[0]
        assert command.label is None
        assert len(command.updates) == 1
        assert command.updates[0].prob is None
        assert command.updates[0].assignments[0].var == "x"

    def test_action_label(self):
        model = parse(wrap("  [tick] x=0 -> (x'=1);"))
        assert model.modules[0].commands[0].label == "tick"

    def test_update_order_is_preserved(self):
        source = wrap(
            "  [] x=0 -> 0.7:(x'=0) + 0.1:(x'=1) + 0.1:(x'=0) + 0.1:(x'=1);"
        )
        command = parse(source).modules[0].commands[0]
        probs = [print_expr(u.prob) for u in command.updates]
        assert probs == ["0.7", "0.1", "0.1", "0.1"]

    def test_multi_assignment_update(self):
        model = parse(wrap("  [] x=0 -> (x'=1) & (y'=0);", "  x : [0..1] init 0;\n  y : [0..1] init 0;"))
        update = model.modules[0].commands[0].updates[0]
        assert [a.var for a in update.assignments] == ["x", "y"]

    def test_probability_expression(self):
        model = parse(
            "dtmc\nconst double p = 0.3;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> p:(x'=1) + (1-p):(x'=0);\nendmodule\n"
        )
        probs = [print_expr(u.prob) for u in parse_result_updates(model)]
        assert probs == ["p", "1-p"]


def parse_result_updates(model):
    return model.modules[0].commands[0].updates


class TestTranscribedFixtures:
    """The channel and interception command forms parse to the expected shape."""

    def test_perfect_channel_load(self, golden):
        model = parse(golden("channel_perfect.pm"))
        channel = next(m for m in model.modules if m.name == "channel")
        command = channel.commands[0]
        assert command.label == "aliceput"
        assert len(command.updates) == 1
        assert command.updates[0].prob is None
        assert [a.var for a in command.updates[0].assignments] == [
            "ch_state", "ch_bas", "ch_bit",
        ]

    @pytest.mark.parametrize(
        "name,weights",
        [
            ("channel_light_noise.pm", ["0.7", "0.1", "0.1", "0.1"]),
            ("channel_heavy_noise.pm", ["0.4", "0.2", "0.2", "0.2"]),
        ],
    )
    def test_noisy_channel_loads(self, golden, name, weights):
        model = parse(golden(name))
        channel = next(m for m in model.modules if m.name == "channel")
        command = channel.commands[0]
        assert [print_expr(u.prob) for u in command.updates] == weights
        # every branch sets the progress counter and both photon fields
        for update in command.updates:
            assert [a.var for a in update.assignments] == ["ch_state", "ch_bas", "ch_bit"]

    @pytest.mark.parametrize(
        "name,weights",
        [
            ("eve_full.pm", None),
            ("eve_weak.pm", ["0.2", "0.8"]),
            ("eve_medium.pm", ["0.5", "0.5"]),
        ],
    )
    def test_interception_resend(self, golden, name, weights):
        model = parse(golden(name))
        channel = next(m for m in model.modules if m.name == "channel")
        command = channel.commands[0]
        assert command.label == "eveput"
        if weights is None:
            assert len(command.updates) == 1 and command.updates[0].prob is None
        else:
            assert [print_expr(u.prob) for u in command.updates] == weights


class TestExpressions:
    def test_precedence(self):
        model = parse(wrap("  [] x=0 | x=1 & x=0 -> (x'=0);"))
        guard = model.modules[0].commands[0].guard
        assert print_expr(guard) == "x=0 | x=1 & x=0"
        assert guard.op == "|"  # & binds tighter

    def test_arithmetic_precedence(self):
        model = parse(
            "dtmc\nconst int a = 1;\nconst int b = 2;\nmodule m\n  x : [0..9] init 0;\n"
            "  [] x = a+b*2 -> (x'=0);\nendmodule\n"
        )
        guard = model.modules[0].commands[0].guard
        assert guard.right.op == "+"
        assert guard.right.right.op == "*"

    def test_negation_covers_comparison(self):
        model = parse(wrap("  [] !x=1 -> (x'=1);"))
        guard = model.modules[0].commands[0].guard
        assert isinstance(guard, Unary) and guard.op == "!"
        assert guard.operand.op == "="

    def test_unary_minus(self):
        model = parse(wrap("  [] x > -1 -> (x'=0);"))
        guard = model.modules[0].commands[0].guard
        assert guard.op == ">" and isinstance(guard.right, Unary)

    def test_positions_recorded(self):
        model = parse(wrap("  [] x=0 -> (x'=1);"))
        guard = model.modules[0].commands[0].guard
        assert guard.pos.line == 4
        assert isinstance(guard.left, Name) and guard.left.pos.col == 6


class TestErrors:
    def test_missing_arrow_names_the_line(self, golden):
        with pytest.raises(ParseError) as info:
            parse(golden("bad_syntax.pm"))
        assert info.value.code == "SYNTAX"
        assert info.value.line == 6
        assert "->" in str(info.value)

    def test_duplicate_names_are_rejected(self):
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
            "module w\n  x : [0..1] init 0;\nendmodule\n"
        )
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.code == "DUPLICATE"
        assert "already declared" in str(info.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as info:
            parse(wrap("  [] y=0 -> (x'=1);"))
        assert info.value.code == "UNKNOWN_IDENT"
        assert "'y'" in str(info.value)

    def test_multi_update_requires_probabilities(self):
        with pytest.raises(ParseError) as info:
            parse(wrap("  [] x=0 -> 0.5:(x'=1) + (x'=0);"))
        assert "explicit probability" in str(info.value)

    def test_const_value_must_be_a_literal(self):
        with pytest.raises(ParseError):
            parse("dtmc\nconst int k = 1 + 2;\n")

    def test_keywords_are_reserved(self):
        with pytest.raises(ParseError):
            parse("dtmc\nmodule module\n  x : [0..1] init 0;\nendmodule\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("module m\n  x : [0..1] init 0;\nendmodule\n")

    @pytest.mark.parametrize(
        "decls, col",
        [
            ("  x : [0..\u00b2] init 0;", 11),  # superscript two
            ("  x : [0..\u0663] init 0;", 11),  # Arabic-Indic three, not read as 3
            ("  x : [\u00b2..1] init 0;", 8),
        ],
        ids=["superscript_bound", "arabic_indic_bound", "superscript_low"],
    )
    def test_numbers_are_ascii_digits(self, decls, col):
        with pytest.raises(ParseError) as info:
            parse(wrap("", decls))
        assert (info.value.line, info.value.col) == (3, col)
        assert "unexpected character" in str(info.value)

    def test_a_fraction_needs_an_ascii_digit(self):
        with pytest.raises(ParseError) as info:
            parse("dtmc\nconst double p = 0.\u00b2;\n")
        assert (info.value.line, info.value.col) == (2, 19)

    def test_a_property_number_is_ascii_digits(self):
        with pytest.raises(ParseError) as info:
            parse_property("P=? [ F (x=\u00b2) ]")
        assert info.value.col == 12

    def test_a_trailing_comment_advances_the_column(self):
        with pytest.raises(ParseError) as info:
            parse("dtmc\nmodule m // trailing")
        assert (info.value.line, info.value.col) == (2, 21)

    def test_error_message_carries_position_prefix(self):
        try:
            parse(wrap("  [] x=0 (x'=1);"))
        except ParseError as error:
            assert str(error).startswith(f"{error.line}:{error.col}:")
        else:
            pytest.fail("expected a parse error")


# Pieces of model text, blanks and characters the language does not accept.
_PIECES = [
    "dtmc", "x", "_y2", "x\u00b2", "\u00e9", "\u03b1", "\u00b2", "\u0663", "\u00bd", "\u216b",
    "0", "12", "0.5", "1e-3", "2E+7", "1.", "0..1", '"t"', '"', "//c", "->", "<=", ">=",
    "!=", "..", ".", "[", "]", "(", ")", ":", ";", "'", "=", "<", ">", "&", "|", "!", "+",
    "-", "*", "/", ",", "?", "@", " ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c",
]


def _offset(source: str, line: int, col: int) -> int:
    return sum(len(text) + 1 for text in source.split("\n")[: line - 1]) + col - 1


class TestTokens:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join), st.text()))
    def test_each_token_sits_at_its_position(self, source):
        try:
            tokens = tokenize(source)
        except ParseError as error:
            at = source[_offset(source, error.line, error.col)]
            if "unterminated string" in str(error):
                assert at == '"'
            else:
                assert f"unexpected character {at!r}" in str(error)
            return
        for token in tokens[:-1]:
            raw = f'"{token.text}"' if token.type is TokenType.STRING else token.text
            assert source.startswith(raw, _offset(source, token.line, token.col))
        assert _offset(source, tokens[-1].line, tokens[-1].col) == len(source)

    def test_word_characters_are_the_alphanumerics(self):
        # The lexer reads a name as `\w+`; this pins what `\w` means on this Python.
        word = re.compile(r"\w")
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            assert (word.fullmatch(c) is not None) == (c.isalnum() or c == "_"), hex(code)

    def test_tab_and_carriage_return_are_blanks(self):
        tokens = tokenize("dtmc\r\n\tmodule")
        assert [(t.text, t.line, t.col) for t in tokens] == [
            ("dtmc", 1, 1), ("module", 2, 2), ("", 2, 8),
        ]


def _nest(template: str, innermost: str, levels: int) -> str:
    for _ in range(levels):
        innermost = template.format(innermost)
    return innermost


def _halves(template: str, odd: str, even: str, levels: int) -> str:
    """Two levels per template repeat; an odd level count starts from odd."""
    repeats, extra = divmod(levels, 2)
    return _nest(template, odd if extra else even, repeats)


# Guards nested exactly `levels` deep, where each '(' and each prefix '!' or
# '-' counts one level.
NESTED_GUARDS = {
    "subtraction": lambda n: "x=" + _nest("0-({})", "x", n),
    "negated_conjunction": lambda n: _halves("!(x=0 & {})", "!x=0", "x=0", n),
    "disjunction": lambda n: _nest("(x=0 | {})", "x=0", n),
    "negation": lambda n: "x=" + _halves("-({})", "-x", "x", n),
    "product": lambda n: "x=" + _nest("2*({})", "x", n),
    "parentheses": lambda n: "(" * n + "x=0" + ")" * n,
    "not_chain": lambda n: "!" * n + "x=0",
}


def _guarded(guard: str) -> str:
    return wrap(f"  [] {guard} -> (x'=1);")


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(NESTED_GUARDS))
    def test_guard_at_the_limit_builds(self, shape):
        dtmc = build(validate(parse(_guarded(NESTED_GUARDS[shape](MAX_NESTING)))))
        assert dtmc.state_count in (1, 2)

    @pytest.mark.parametrize("shape", sorted(NESTED_GUARDS))
    def test_guard_past_the_limit_is_a_nesting_error(self, shape):
        with pytest.raises(ParseError) as info:
            parse(_guarded(NESTED_GUARDS[shape](MAX_NESTING + 1)))
        assert info.value.code == "NESTING"
        assert info.value.line == 4

    def test_error_points_at_the_level_past_the_limit(self):
        with pytest.raises(ParseError) as info:
            parse(_guarded(NESTED_GUARDS["parentheses"](MAX_NESTING + 1)))
        # "  [] " puts the first '(' in column 6.
        assert (info.value.line, info.value.col) == (4, 6 + MAX_NESTING)

    def test_every_precedence_level_inside_each_parenthesis(self):
        # Parses at the limit, so the parser's recursion stays bounded; the
        # kind checker then rejects it with a typed error.
        guard = _nest("(x=0 | x=0 & x = x + x*{})", "x", MAX_NESTING)
        with pytest.raises(ValidationError) as info:
            validate(parse(_guarded(guard)))
        assert info.value.code == "TYPE"

    def test_property_operands_share_the_limit(self):
        dtmc = build(validate(parse(_guarded("x=0"))))
        query = parse_property(f"P=? [ F {NESTED_GUARDS['parentheses'](MAX_NESTING)} ]")
        assert resolve_operand(query.target, dtmc) == frozenset({0})
        with pytest.raises(ParseError) as info:
            parse_property(f"P=? [ F {NESTED_GUARDS['parentheses'](MAX_NESTING + 1)} ]")
        assert info.value.code == "NESTING"


def _conjunction(depth: int) -> str:
    """x=0 & x=0 & ..., `depth` binary operators deep."""
    return " & ".join(["x=0"] * depth)


def _sum(depth: int) -> str:
    """x+x+...=0, `depth` binary operators deep."""
    return "+".join(["x"] * depth) + "=0"


class TestOperatorDepthLimit:
    @pytest.mark.parametrize("chain", [_conjunction, _sum])
    def test_chain_at_the_limit_builds_below_the_deepest_nesting(self, chain):
        # The deepest tree the two limits allow: MAX_NESTING - 1 prefix '!'
        # levels and one '(' around a chain as deep as allowed.
        guard = "!" * (MAX_NESTING - 1) + f"({chain(MAX_OPERATOR_DEPTH)})"
        dtmc = build(validate(parse(_guarded(guard))))
        assert dtmc.state_count in (1, 2)

    @pytest.mark.parametrize("chain", [_conjunction, _sum])
    def test_chain_past_the_limit_is_a_nesting_error(self, chain):
        with pytest.raises(ParseError) as info:
            parse(_guarded(chain(MAX_OPERATOR_DEPTH + 1)))
        assert info.value.code == "NESTING"
        assert "binary operators deep" in str(info.value)

    def test_error_points_at_the_operator_past_the_limit(self):
        with pytest.raises(ParseError) as info:
            parse(_guarded(_sum(MAX_OPERATOR_DEPTH + 1)))
        # The '+' chain is exactly as deep as allowed; the '=' after it is one
        # operator too many. "  [] " puts the first x in column 6, and each
        # of the MAX_OPERATOR_DEPTH + 1 x's before the '=' takes two columns
        # with the operator after it.
        assert (info.value.line, info.value.col) == (4, 6 + 2 * MAX_OPERATOR_DEPTH + 1)

    def test_depth_counts_the_deepest_path_not_every_operator(self):
        # 2 * MAX_OPERATOR_DEPTH operators, but only MAX_OPERATOR_DEPTH deep
        # on either side of the top '|'.
        guard = f"({_conjunction(MAX_OPERATOR_DEPTH - 1)}) | ({_conjunction(MAX_OPERATOR_DEPTH - 1)})"
        assert build(validate(parse(_guarded(guard)))).state_count == 2

    def test_a_deep_right_operand_counts(self):
        guard = f"x=0 | ({_conjunction(MAX_OPERATOR_DEPTH)})"
        with pytest.raises(ParseError) as info:
            parse(_guarded(guard))
        assert info.value.code == "NESTING"
        # The error is at the '|', column 10 after "  [] x=0 ".
        assert (info.value.line, info.value.col) == (4, 10)

    def test_property_operands_share_the_limit(self):
        dtmc = build(validate(parse(_guarded("x=0"))))
        query = parse_property(f"P=? [ F ({_conjunction(MAX_OPERATOR_DEPTH)}) ]")
        assert resolve_operand(query.target, dtmc) == frozenset({0})
        with pytest.raises(ParseError) as info:
            parse_property(f"P=? [ F ({_conjunction(MAX_OPERATOR_DEPTH + 1)}) ]")
        assert info.value.code == "NESTING"


class TestIntegerLiterals:
    def test_longest_literal_parses(self):
        model = parse(_guarded("x=" + "0" * (MAX_INT_DIGITS - 1) + "1"))
        assert model.modules[0].commands[0].guard.right == IntLit(1)

    @pytest.mark.parametrize(
        "body",
        [
            "  [] x={} -> (x'=1);",
            "  [] x=0 -> (x'={});",
        ],
    )
    def test_overlong_literal_is_a_parse_error(self, body):
        digits = "9" * (MAX_INT_DIGITS + 1)
        with pytest.raises(ParseError) as info:
            parse(wrap(body.format(digits)))
        assert info.value.code == "LITERAL"

    @pytest.mark.parametrize(
        "decl",
        [
            "const int k = {};",
            "const int k = -{};",
        ],
    )
    def test_overlong_constant_is_a_parse_error(self, decl):
        source = "dtmc\n" + decl.format("9" * (MAX_INT_DIGITS + 1)) + "\nmodule m\nendmodule\n"
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.code == "LITERAL"

    @pytest.mark.parametrize(
        "decls", ["  x : [{}..1] init 0;", "  x : [0..{}] init 0;", "  x : [0..1] init {};"]
    )
    def test_overlong_bound_or_initial_value_is_a_parse_error(self, decls):
        with pytest.raises(ParseError) as info:
            parse(wrap("", decls.format("9" * (MAX_INT_DIGITS + 1))))
        assert info.value.code == "LITERAL"
