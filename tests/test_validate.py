"""Static checks: kinds, probability sums, ownership, guard overlaps."""

import pytest

from qkdmc.bb84 import Bb84Params, Passthrough, model_ast
from qkdmc.errors import ValidationError
from qkdmc.lang import parse, validate


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
        assert vm.action_order == ("go",)


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
    validate(model_ast(params))
