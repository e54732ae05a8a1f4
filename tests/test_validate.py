"""Static checks: kinds, probability sums, ownership, guard overlaps."""

import importlib
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from qkdmc import cli
from qkdmc.bb84 import Bb84Params, Passthrough, generate
from qkdmc.errors import BuildError, PropertyError, ValidationError
from qkdmc.explorer import build
from qkdmc.lang import analysis, parse, validate
from qkdmc.lang.analysis import compile_expr
from qkdmc.lang.names import expr_names
from qkdmc.properties import parse_property, resolve_operand


def check(source: str):
    return validate(parse(source))


def fails(source: str, code: str) -> ValidationError:
    with pytest.raises(ValidationError) as info:
        check(source)
    assert info.value.code == code
    return info.value


class TestProbabilities:
    def test_sum_below_one_reports_the_sum(self, golden):
        with pytest.raises(ValidationError) as info:
            check(golden("bad_prob_sum.pm"))
        assert info.value.code == "PROB_SUM"
        assert "0.9" in str(info.value)

    def test_sum_above_one(self):
        fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.7:(x'=1) + 0.7:(x'=0);\nendmodule\n",
            "PROB_SUM",
        )

    def test_float_noise_within_tolerance_is_accepted(self):
        check(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> 0.1:(x'=0) + 0.2:(x'=1) + 0.7:(x'=2);\nendmodule\n"
        )

    def test_probability_outside_unit_interval(self):
        error = fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 1.5:(x'=1) + -0.5:(x'=0);\nendmodule\n",
            "PROB_RANGE",
        )
        assert "1.5" in str(error)

    def test_probability_must_be_constant(self):
        error = fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> x:(x'=1) + 1-x:(x'=0);\nendmodule\n",
            "PROB_CONST",
        )
        assert "'x'" in str(error)

    def test_constant_probability_expressions_fold(self):
        vm = check(
            "dtmc\nconst double p = 0.25;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> p:(x'=1) + (1-p):(x'=0);\nendmodule\n"
        )
        assert vm.update_probs[0][0] == (0.25, 0.75)

    def test_division_by_zero_in_probability(self):
        fails(
            "dtmc\nconst double z = 0.0;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 1/z:(x'=1);\nendmodule\n",
            "DIV_ZERO",
        )


# 2**53 + 1: the first int a float cannot hold.
EXACT_K = (
    "dtmc\nconst int K = 9007199254740993;\nmodule m\n  x : [0..1] init 0;\n"
    "  [] x=0 -> (x'=K-9007199254740992);\n  [] x=1 -> (x'=1);\nendmodule\n"
)
# A 299-digit K: K*K is beyond the float range.
HUGE_K = 10**298 + 7


class TestExactConstants:
    def test_an_int_constant_above_2_to_the_53_is_exact(self):
        assert check(EXACT_K).constants["K"] == 2**53 + 1

    def test_an_int_constant_above_2_to_the_53_checks_exactly(self, tmp_path, capsys):
        # Folded as a float, K - 2**53 would be 0 and x would never reach 1.
        model = tmp_path / "k.pm"
        model.write_text(EXACT_K, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1.00000000000"

    def test_a_double_constant_with_an_int_value_stays_a_double(self):
        vm = check("dtmc\nconst double p = 1;\nmodule m\n  x : [0..1] init 0;\nendmodule\n")
        assert vm.constants["p"] == 1.0 and isinstance(vm.constants["p"], float)
        query = parse_property("P=? [ F (x<p) ]")
        with pytest.raises(PropertyError) as info:
            resolve_operand(query.target, build(vm))
        assert info.value.code == "TYPE"

    def test_update_probabilities_are_floats(self):
        vm = check("dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> 1:(x'=1);\nendmodule\n")
        assert vm.update_probs[0][0] == (1.0,) and isinstance(vm.update_probs[0][0][0], float)

    def test_a_probability_beyond_the_float_range_is_prob_range(self, tmp_path, capsys):
        source = (
            f"dtmc\nconst int K = {HUGE_K};\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> K*K*0.5:(x'=1) + 1-K*K*0.5:(x'=0);\nendmodule\n"
        )
        assert "inf outside [0, 1] (the expression overflows" in str(fails(source, "PROB_RANGE"))
        model = tmp_path / "huge.pm"
        model.write_text(source, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "inf outside [0, 1]" in capsys.readouterr().err

    def test_a_non_finite_probability_names_the_overflow(self, tmp_path, capsys):
        # 0.5*F is inf as a double, so 0.5*F/(F) folds to nan, not to 0.5.
        factors = "*".join(["K"] * 16)
        source = (
            f"dtmc\nconst int K = {10**299};\nmodule m\n  x : [0..1] init 0;\n"
            f"  [] x=0 -> 0.5*{factors}/({factors}):(x'=1) + 0.5:(x'=0);\nendmodule\n"
        )
        message = (
            "update probability nan outside [0, 1] (the expression overflows the double range)"
        )
        assert str(fails(source, "PROB_RANGE")) == f"5:13: {message}"
        model = tmp_path / "nan.pm"
        model.write_text(source, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert f"5:13: {message}" in capsys.readouterr().err

    def test_a_ratio_of_huge_ints_folds_exactly(self):
        # In floats K*K is inf and the ratio nan.
        vm = check(
            f"dtmc\nconst int K = {HUGE_K};\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> K*K/(K*K):(x'=1);\nendmodule\n"
        )
        assert vm.update_probs[0][0] == (1.0,)


class TestVariables:
    def test_initial_value_outside_range(self, golden):
        with pytest.raises(ValidationError) as info:
            check(golden("bad_init_bounds.pm"))
        assert info.value.code == "INIT_BOUNDS"
        assert "[0..1]" in str(info.value)

    def test_empty_range(self):
        fails("dtmc\nmodule m\n  x : [5..1] init 5;\nendmodule\n", "BAD_RANGE")

    def test_upper_bound_fits_an_unsigned_64_bit_field(self):
        top = 2**64 - 1
        vm = check(f"dtmc\nmodule m\n  x : [0..{top}] init {top};\nendmodule\n")
        assert vm.initial_state == (top,)
        error = fails(f"dtmc\nmodule m\n  x : [0..{top + 1}] init 0;\nendmodule\n", "BAD_RANGE")
        assert "above 2**64 - 1" in str(error)

    def test_foreign_write_is_rejected(self):
        error = fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n  [] y=0 -> (x'=1);\nendmodule\n",
            "FOREIGN_WRITE",
        )
        assert "owned by module m" in str(error)

    def test_reading_foreign_variables_is_fine(self):
        check(
            "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n  [] x=0 & y=0 -> (y'=1);\nendmodule\n"
        )

    def test_double_assignment_in_one_update(self):
        fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> (x'=1) & (x'=0);\nendmodule\n",
            "DUP_ASSIGN",
        )


class TestKinds:
    def test_guard_must_be_bool(self):
        error = fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x+1 -> (x'=1);\nendmodule\n",
            "TYPE",
        )
        assert "guard must be bool" in str(error)

    @pytest.mark.parametrize(
        "command, message",
        [
            ("[] !x -> (x'=1);", "4:6: operand of '!' must be boolean"),
            ("[] x=0 -> (x'=-true);", "4:17: operand of unary '-' must be numeric"),
            ("[] x & 1 -> (x'=1);", "4:8: operands of '&' must be boolean"),
            ("[] x=0 -> true:(x'=1) + 0.5:(x'=0);", "4:13: probability must be numeric, got bool"),
        ],
    )
    def test_operand_kinds(self, command, message):
        error = fails(f"dtmc\nmodule m\n  x : [0..1] init 0;\n  {command}\nendmodule\n", "TYPE")
        assert str(error) == message

    def test_comparisons_are_integer_only(self):
        fails(
            "dtmc\nconst double p = 0.5;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 & p=0.5 -> (x'=1);\nendmodule\n",
            "TYPE",
        )

    def test_chained_comparisons_are_rejected(self):
        # 0<x<2 associates as (0<x)<2 and the left side is bool
        fails(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n  [] 0<x<2 -> (x'=1);\nendmodule\n",
            "TYPE",
        )

    def test_assignment_value_must_be_int(self):
        fails(
            "dtmc\nconst double p = 0.5;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> (x'=p);\nendmodule\n",
            "TYPE",
        )

    def test_int_constant_with_fractional_value(self):
        error = fails("dtmc\nconst int k = 2.5;\n", "TYPE")
        assert "declared int" in str(error)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_int_constant_that_overflows_to_infinity(self, literal):
        error = fails(f"dtmc\nconst int k = {literal};\n", "TYPE")
        assert "declared int but equals" in str(error)

    def test_label_expression_must_be_bool(self):
        fails(
            'dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\nlabel "bad" = x+1;\n',
            "TYPE",
        )


class TestOverlaps:
    def test_overlapping_unlabeled_guards_report_a_witness(self, golden):
        with pytest.raises(ValidationError) as info:
            check(golden("bad_overlap.pm"))
        assert info.value.code == "OVERLAPPING_GUARDS"
        assert "both enabled when x=0" in str(info.value)

    def test_overlapping_guards_within_an_action(self):
        fails(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [go] x<2 -> (x'=1);\n  [go] x=1 -> (x'=2);\nendmodule\n",
            "OVERLAPPING_GUARDS",
        )

    def test_disjoint_guards_pass(self):
        check(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [] x=1 -> (x'=2);\nendmodule\n"
        )

    def test_same_guard_different_actions_pass(self):
        # the one-enabled-command rule applies per action, not across actions,
        # and which action fires is resolved at exploration time
        check(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [a] x=0 -> (x'=1);\n  [b] x=1 -> (x'=0);\nendmodule\n"
        )

    def test_overlap_on_foreign_variables_is_caught(self):
        # the witness box covers every variable a guard reads
        fails(
            "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n"
            "  [] x=0 -> (y'=1);\n  [] x<1 -> (y'=0);\nendmodule\n",
            "OVERLAPPING_GUARDS",
        )

    # Two variables of 3,001 values each: a box of about 9M valuations.
    WIDE = "dtmc\nmodule m\n  x : [0..3000] init 0;\n  y : [0..3000] init 0;\n"

    def test_guards_pinned_apart_are_not_enumerated(self):
        check(self.WIDE + "  [] x=1 & y>=0 -> (x'=2);\n  [] 2=x & y>=0 -> (x'=3);\nendmodule\n")

    def test_a_pinned_overlap_reports_the_first_witness(self):
        error = fails(
            self.WIDE + "  [] x=1 & y=5 -> (x'=2);\n  [] x=1 & y>=5 -> (x'=3);\nendmodule\n",
            "OVERLAPPING_GUARDS",
        )
        assert "both enabled when x=1, y=5" in str(error)

    @pytest.mark.parametrize("guard", ["x=1 & x=2", "x=3001 & y>=0", "x=0-1 & y>=0"])
    def test_a_guard_pinned_to_nothing_overlaps_nothing(self, guard):
        check(self.WIDE + f"  [] {guard} -> (x'=2);\n  [] y>=0 -> (x'=3);\nendmodule\n")

    def test_a_pin_above_2_to_the_53_is_exact(self):
        # As a float, 2**53 + 1 rounds to 2**53, which neither guard holds at.
        error = fails(
            "dtmc\nconst int k = 4503599627370496;\nmodule m\n  x : [0..4611686018427387904] init 0;\n"
            "  y : [0..1] init 0;\n"
            "  [] x=2*k+1 & y=0 -> (y'=1);\n  [] x=9007199254740993 -> (y'=0);\nendmodule\n",
            "OVERLAPPING_GUARDS",
        )
        assert "both enabled when x=9007199254740993, y=0" in str(error)

    @pytest.mark.parametrize(
        "decls, guards",
        [
            (WIDE, ["x<5 & y>=0", "x>=5 & y>=0"]),
            (WIDE + "  z : [0..3000] init 0;\n", ["x<5 & y>=0 & z>=0", "5<=x & y>=0 & z>=0"]),
            ("dtmc\nmodule m\n  x : [0..4611686018427387904] init 0;\n", ["x<5", "x>=5"]),
        ],
    )
    def test_guards_bounded_apart_are_not_enumerated(self, decls, guards):
        # Their whole boxes hold 9M, 27G and 2**62 valuations.
        source = decls + "".join(f"  [] {g} -> (x'=1);\n" for g in guards) + "endmodule\n"
        model = parse(source)
        started = time.perf_counter()
        validate(model)
        assert time.perf_counter() - started < 0.05

    def test_a_bounded_overlap_reports_the_first_witness(self):
        error = fails(
            self.WIDE + "  [] x>2 & 7>=y & y>3 -> (x'=2);\n  [] x<=4 & 2<x -> (x'=3);\nendmodule\n",
            "OVERLAPPING_GUARDS",
        )
        assert "both enabled when x=3, y=4" in str(error)

    def test_a_residual_overlap_over_a_huge_range_is_left_to_exploration(self):
        # x+0<5 is no `var op constant` conjunct, so the box is the whole range.
        model = parse(HUGE_RESIDUAL)
        started = time.perf_counter()
        vm = validate(model)
        assert time.perf_counter() - started < 0.05
        with pytest.raises(BuildError) as info:
            build(vm)
        assert info.value.code == "NONDETERMINISM"
        assert "(x=0)" in str(info.value)


    def test_each_guard_is_compiled_once_per_group(self, monkeypatch):
        # x+0=k gets no box narrowing, so every pair of guards meets.
        calls = []

        def counted(*args):
            calls.append(args)
            return compile_expr(*args)

        monkeypatch.setattr(analysis, "compile_expr", counted)
        n = 30
        source = (
            f"dtmc\nmodule m\n  x : [0..{n}] init 0;\n  y : [0..1] init 0;\n"
            + "".join(f"  [] x+0={k} -> (x'={k + 1});\n" for k in range(n))
            # Pairs of the guards above pin y, which only this one reads.
            + f"  [] y=1 & x+0={n} -> (y'=0);\nendmodule\n"
        )
        check(source)
        assert len(calls) == n + 1
        # One more guard overlaps the first; the witness names x alone.
        overlapping = source.replace("endmodule", "  [] x+0<1 -> (x'=1);\nendmodule")
        error = fails(overlapping, "OVERLAPPING_GUARDS")
        assert "both enabled when x=0" in str(error) and "y=" not in str(error)


HUGE_RESIDUAL = (
    "dtmc\nmodule m\n  x : [0..4611686018427387904] init 0;\n"
    "  [] x+0<5 -> (x'=1);\n  [] x+0<7 -> (x'=2);\nendmodule\n"
)


def reference_overlap(model) -> str | None:
    """The overlap check by brute force, as the message validate raises.

    Every same-group pair is enumerated over the whole declared box of the
    variables either guard reads, in sorted name order.
    """
    var_decls = {var.name: var for module in model.modules for var in module.variables}
    for module in model.modules:
        groups = {}
        for command in module.commands:
            groups.setdefault(command.label, []).append(command)
        for label, commands in groups.items():
            for first, second in itertools.combinations(commands, 2):
                read = expr_names(first.guard) | expr_names(second.guard)
                mentioned = sorted(read & var_decls.keys())
                index = {name: i for i, name in enumerate(mentioned)}
                check_a = compile_expr(first.guard, index, {})
                check_b = compile_expr(second.guard, index, {})
                box = [range(var_decls[name].low, var_decls[name].high + 1) for name in mentioned]
                for valuation in itertools.product(*box):
                    if check_a(valuation) and check_b(valuation):
                        shown = ", ".join(f"{k}={v}" for k, v in zip(mentioned, valuation))
                        action = "unlabeled commands" if label is None else f"action [{label}]"
                        return (
                            f"{second.pos.line}:{second.pos.col}: {action} in module {module.name}: "
                            f"guards at line {first.pos.line} and line {second.pos.line} are both "
                            f"enabled when {shown or 'any valuation'}"
                        )
    return None


_VARIABLE = st.sampled_from(["x", "y", "z"])
_OP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_CONSTANT = st.integers(-1, 6).map(str)
_ATOM = st.one_of(
    st.builds("{} {} {}".format, _VARIABLE, _OP, _CONSTANT),
    st.builds("{} {} {}".format, _CONSTANT, _OP, _VARIABLE),
    st.builds("{}+{} {} {}".format, _VARIABLE, _VARIABLE, _OP, _CONSTANT),
    st.just("true"),
)
_NESTED = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        inner.map("!({})".format),
        st.builds("({} | {})".format, inner, inner),
        st.lists(inner, min_size=2, max_size=3).map(" & ".join),
    ),
    max_leaves=4,
)
# Mostly top-level conjunctions, the only part of a guard its box reads.
_GUARD = st.lists(st.one_of(_ATOM, _NESTED), min_size=1, max_size=3).map(" & ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "a"]), _GUARD), min_size=2, max_size=4))
def test_overlap_verdicts_match_the_brute_force_reference(commands):
    source = (
        "dtmc\nmodule m\n  x : [0..4] init 0;\n  y : [1..3] init 1;\n  z : [0..2] init 0;\n"
        + "".join(f"  [{label}] {guard} -> (x'=0);\n" for label, guard in commands)
        + "endmodule\n"
    )
    expected = reference_overlap(parse(source))
    if expected is None:
        check(source)
    else:
        assert str(fails(source, "OVERLAPPING_GUARDS")) == expected


class TestGroupProof:
    # x over [0..3], y over [0..1]; the modules' commands follow.
    HEAD = "dtmc\nmodule m\n  x : [0..3] init 0;\n  y : [0..1] init 0;\n"

    @pytest.mark.parametrize(
        "commands, disjoint",
        [
            # Apart on x, though y meets.
            (["[] x=0 -> (y'=1);", "[] x>=1 & y=0 -> (y'=1);"], True),
            # An action's box is its modules' boxes met: x=1 alone, apart from
            # x=0 though each module's x range holds 0.
            (
                [
                    "[a] x<2 -> (y'=1);",
                    "[] x=0 -> (x'=1);",
                    "endmodule\nmodule w\n  z : [0..1] init 0;\n  [a] x>=1 -> (z'=1);",
                ],
                True,
            ),
            # A guard that holds nowhere meets nothing.
            (["[] x=1 & x=2 -> (y'=1);", "[] x>=0 -> (y'=1);"], True),
            # A guard that reads no variable meets every box.
            (["[a] true -> (y'=1);", "[b] x=3 -> (y'=0);"], False),
            # The hull of [a]'s commands x=0 and x=2 holds x=1.
            (["[a] x=0 -> (y'=1);", "[a] x=2 -> (y'=1);", "[b] x=1 -> (y'=0);"], False),
            # Apart pairwise, but on x [a] and [c] meet and on y [a] and [b].
            (
                ["[a] x=0 & y=0 -> (y'=1);", "[b] x=1 & y=0 -> (y'=1);", "[c] x=0&y=1 -> (y'=0);"],
                False,
            ),
        ],
    )
    def test_disjoint_groups(self, commands, disjoint):
        source = self.HEAD + "".join(f"  {c}\n" for c in commands) + "endmodule\n"
        assert check(source).disjoint_groups is disjoint

    def test_many_groups_are_proven_by_one_sort(self):
        # An all-pairs test of 3,000 boxes would take seconds.
        source = (
            "dtmc\nmodule m\n  x : [0..3000] init 0;\n"
            + "".join(f"  [a{k}] x={k} -> (x'={k + 1});\n" for k in range(3000))
            + "endmodule\n"
        )
        model = parse(source)
        started = time.perf_counter()
        assert validate(model).disjoint_groups
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize(
        "decls, guards, decided",
        [
            # Boxes apart, or an intersection of 2 valuations enumerated.
            ("  x : [0..3] init 0;\n", ["x=0", "x>0 & x+0<2", "x+0>=2 & x>1"], True),
            # A pair's intersection past MAX_OVERLAP_VALUATIONS.
            ("  x : [0..4611686018427387904] init 0;\n", ["x+0<5", "x+0>=5"], False),
        ],
    )
    def test_decided_picks(self, decls, guards, decided):
        source = (
            "dtmc\nmodule w\nendmodule\nmodule m\n" + decls
            + "".join(f"  [a] {g} -> (x'=0);\n" for g in guards)
            + "  [] x=1 -> (x'=0);\n  [] x=2 -> (x'=0);\nendmodule\n"
        )
        # Unlabeled commands are no pick; the module's position is 1.
        assert check(source).decided_picks == ({(1, "a")} if decided else set())


def test_a_one_box_action_needs_no_hull_or_meet(monkeypatch):
    # The model of test_many_groups_are_proven_by_one_sort: each of its 3,000
    # actions is one command of one module, whose box is the action's box.
    module = importlib.import_module("qkdmc.lang.validate")
    calls = []
    for name in ("_hull", "_meet"):
        monkeypatch.setattr(module, name, lambda boxes, name=name: calls.append(name))
    source = (
        "dtmc\nmodule m\n  x : [0..3000] init 0;\n"
        + "".join(f"  [a{k}] x={k} -> (x'={k + 1});\n" for k in range(3000))
        + "endmodule\n"
    )
    assert validate(parse(source)).disjoint_groups
    assert calls == []


class TestValidatedModel:
    def test_constant_folding(self):
        vm = check("dtmc\nconst int n = 5;\nconst double p = 0.25;\n")
        assert vm.constants == {"n": 5, "p": 0.25}

    def test_variable_order_and_initial_state(self):
        vm = check(
            "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
            "module w\n  y : [0..3] init 2;\nendmodule\n"
        )
        assert [v.name for v in vm.variables] == ["x", "y"]
        assert vm.var_index == {"x": 0, "y": 1}
        assert vm.initial_state == (0, 2)

    def test_action_alphabets(self):
        vm = check(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [go] x=0 -> (x'=1);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n  [go] y=0 -> (y'=1);\n  [] y=1 -> (y'=0);\nendmodule\n"
        )
        assert tuple(action for action, _ in vm.groups if action is not None) == ("go",)

    def test_groups_put_unlabeled_commands_first_then_actions_by_first_use(self):
        vm = check(
            "dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [b] x=0 -> (x'=1);\n  [] x=1 -> (x'=2);\n  [a] x=2 -> (x'=3);\n"
            "  [b] x=3 -> (x'=0);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n"
            "  [a] y=0 -> (y'=1);\n  [] y=1 -> (y'=0);\n  [c] y=0 -> (y'=0);\nendmodule\n"
        )
        assert vm.groups == (
            (None, ((0, (1,)),)),
            (None, ((1, (1,)),)),
            ("b", ((0, (0, 3)),)),
            ("a", ((0, (2,)), (1, (0,)))),
            ("c", ((1, (2,)),)),
        )
        actions = tuple(action for action, _ in vm.groups if action is not None)
        assert actions == ("b", "a", "c") == first_use(vm.model)

    def test_the_bb84_groups_are_its_six_actions(self):
        vm = validate(parse(generate(Bb84Params(photons=3))))
        assert vm.groups == (
            ("alicedraw", ((0, (0,)), (1, (0,)))),
            ("compare", ((0, (1,)), (1, (5, 6, 7)), (2, (1,)), (3, (1,)))),
            ("aliceput", ((1, (1,)),)),
            ("evemeasure", ((1, (2,)), (2, (0,)))),
            ("eveput", ((1, (3,)),)),
            ("bobmeasure", ((1, (4,)), (3, (0,)))),
        )
        actions = tuple(action for action, _ in vm.groups if action is not None)
        assert actions == tuple(action for action, _ in vm.groups) == first_use(vm.model)


# r is raised at p=0; p=1 leads to the sink p=2 and reads nothing.
_RAISED = (
    "dtmc\nmodule m\n  p : [0..2] init 0;\n  r : [0..3] init 0;\n"
    "  [a] p=0 & r<3 -> 0.5:(p'=0)&(r'=r+1) + 0.5:(p'=1);\n  [b] p=1 -> (p'=2);\nendmodule\n"
)


class TestProgressMeasure:
    def test_bb84s_photon_counter_is_one_and_its_stop_phase_a_sink(self):
        # i is set to 0 as the run stops: that enters phase 6, where no
        # group is. detected is never raised by a constant step.
        vm = validate(parse(generate(Bb84Params(photons=3, eve_q=0.5))))
        assert vm.progress == ("i", frozenset({6}))

    def test_a_variable_no_label_reads_after_it_is_raised(self):
        # r is dead on entry to p=1, which is no sink: a reduced build would
        # reset r there, so it is no measure. A label that reads r keeps it
        # live, and then it is one.
        assert check(_RAISED + 'label "goal" = p=2;\n').progress is None
        vm = check(_RAISED + 'label "goal" = p=2 & r=1;\n')
        assert vm.progress == ("r", frozenset({2}))

    @pytest.mark.parametrize(
        "update, measure",
        [
            ("(r'=r+1)", "r"),
            ("(r'=2+r)", "r"),
            ("(r'=r+k)", "r"),
            ("(r'=r-1)", None),
            ("(r'=r+1-1)", None),
            ("(r'=r)", None),
            ("(r'=0)", None),
        ],
    )
    def test_a_measure_steps_up_by_a_constant(self, update, measure):
        # One update at p=0 raises, keeps or lowers r; entering the sink p=2
        # sets it to 0. A variable never raised is no measure.
        vm = check(
            "dtmc\nconst int k = 1;\nmodule m\n  p : [0..2] init 0;\n  r : [0..3] init 0;\n"
            f"  [a] p=0 & r<3 -> 0.5:(p'=0)&{update} + 0.5:(p'=1);\n"
            "  [b] p=1 -> 0.5:(p'=0) + 0.5:(p'=2)&(r'=0);\nendmodule\n"
            'label "goal" = r=1;\n'
        )
        assert vm.progress == (None if measure is None else (measure, frozenset({2})))

    def test_without_a_location_every_update_must_keep_or_raise_it(self):
        assert check(
            "dtmc\nmodule m\n  x : [0..9] init 0;\n"
            "  [] x<9 -> 0.5:(x'=x+1) + 0.5:(x'=x);\nendmodule\n"
        ).progress == ("x", frozenset())
        assert check(
            "dtmc\nmodule m\n  x : [0..9] init 5;\n"
            "  [] x>0 & x<9 -> 0.5:(x'=x+1) + 0.5:(x'=x-1);\nendmodule\n"
        ).progress is None


def first_use(model) -> tuple[str, ...]:
    """Each action once, in module order, then command order."""
    labels = (command.label for module in model.modules for command in module.commands)
    return tuple(dict.fromkeys(label for label in labels if label is not None))


@pytest.mark.parametrize(
    "name",
    [
        "channel_perfect.pm",
        "channel_light_noise.pm",
        "channel_heavy_noise.pm",
        "eve_full.pm",
        "eve_weak.pm",
        "eve_medium.pm",
    ],
)
def test_transcribed_fixtures_validate(golden, name):
    check(golden(name))


@pytest.mark.parametrize(
    "params",
    [
        Bb84Params(photons=1),
        Bb84Params(photons=5, channel=(0.4, 0.2, 0.2, 0.2), eve_q=0.5),
        Bb84Params(photons=3, eve_q=0.2, bias=0.1, passthrough=Passthrough.SOURCE_VALUES),
    ],
)
def test_generated_models_validate(params):
    validate(parse(generate(params)))
