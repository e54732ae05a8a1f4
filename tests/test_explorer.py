"""Reachability exploration: synchronization, determinism, state counts.

State counts for the generated protocol models are crosschecked against
tests/_machine.py, an abstract enumerator that shares no code with the
language front end or the builder.
"""

import builtins
import hashlib
import gc
import importlib
import io
import itertools
import math
import re
import time
import tokenize
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import _machine
from qkdmc import cli
from qkdmc.bb84 import Bb84Params, Passthrough, generate
from qkdmc.errors import BuildError, PropertyError, ValidationError
from qkdmc.explorer import ROW_SUM_TOL, Dtmc, build
from qkdmc.lang import parse, print_expr, validate
from qkdmc.lang.analysis import CODE_CACHE_SIZE, MAX_CACHED_SOURCE, compile_expr, compiled
from qkdmc.properties import parse_property
from qkdmc.solver import prob_until
from qkdmc.sweep import FIGURES, HEAVY_NOISE_CHANNEL, PERFECT_CHANNEL

# The package re-exports the validate function under the module's own name.
validate_module = importlib.import_module("qkdmc.lang.validate")
explorer_module = importlib.import_module("qkdmc.explorer")
analysis_module = importlib.import_module("qkdmc.lang.analysis")


def explore(source: str):
    return build(validate(parse(source)))


def transition(dtmc, src_state: tuple, dst_state: tuple) -> float:
    index = {state: i for i, state in enumerate(dtmc.iter_states())}
    return dict(dtmc.row(index[src_state])).get(index[dst_state], 0.0)


class TestBasics:
    def test_two_state_chain(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=0);\nendmodule\n"
        )
        assert dtmc.state_count == 2
        assert dtmc.transition_count == 3
        assert transition(dtmc, (0,), (1,)) == 0.3
        assert transition(dtmc, (0,), (0,)) == 0.7

    def test_deadlocks_get_flagged_self_loops(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
        )
        assert dtmc.deadlocks == frozenset({1})
        assert dtmc.row(1) == ((1, 1.0),)

    def test_module_without_commands_is_one_deadlocked_state(self):
        dtmc = explore("dtmc\nmodule m\n  x : [0..1] init 1;\nendmodule\n")
        assert dtmc.state_count == 1
        assert dtmc.deadlocks == frozenset({0})
        assert dtmc.row(0) == ((0, 1.0),)

    def test_rows_are_sorted_and_merged(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=1);\nendmodule\n"
        )
        assert transition(dtmc, (0,), (1,)) == 1.0
        # x=1 finds the new state x=2 before the known x=0: its row still
        # lists x=0 first.
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [] x=1 -> 0.5:(x'=2) + 0.5:(x'=0);\nendmodule\n"
        )
        assert dtmc.row(1) == ((0, 0.5), (2, 0.5))

    def test_zero_probability_branches_are_dropped(self):
        dtmc = explore(
            "dtmc\nconst double z = 0.0;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> z:(x'=1) + 1:(x'=0);\nendmodule\n"
        )
        assert dtmc.state_count == 1
        assert dtmc.deadlocks == frozenset()

    def test_unreachable_states_are_not_explored(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..9] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
        )
        assert dtmc.state_count == 2

    def test_only_enabled_guards_fire(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [] x=1 -> (x'=2);\nendmodule\n"
        )
        assert dtmc.state_count == 3
        assert transition(dtmc, (1,), (2,)) == 1.0


class TestSynchronization:
    SYNC = (
        "dtmc\nmodule m\n  x : [0..1] init 0;\n"
        "  [go] x=0 -> 0.5:(x'=1) + 0.5:(x'=0);\nendmodule\n"
        "module w\n  y : [0..1] init 0;\n"
        "  [go] y=0 -> 0.7:(y'=1) + 0.3:(y'=0);\nendmodule\n"
    )

    def test_joint_update_is_the_product_distribution(self):
        dtmc = explore(self.SYNC)
        assert transition(dtmc, (0, 0), (1, 1)) == pytest.approx(0.35)
        assert transition(dtmc, (0, 0), (1, 0)) == pytest.approx(0.15)
        assert transition(dtmc, (0, 0), (0, 1)) == pytest.approx(0.35)
        assert transition(dtmc, (0, 0), (0, 0)) == pytest.approx(0.15)

    def test_states_are_discovered_in_product_order(self):
        # The first module's updates vary slowest, each module's in its
        # written order.
        dtmc = explore(self.SYNC)
        assert list(dtmc.iter_states()) == [(0, 0), (1, 1), (1, 0), (0, 1)]

    def test_an_underflowing_joint_probability_is_dropped(self):
        # 1e-200 * 1e-200 is 0.0 in floating point, so (x=1, y=1) is never
        # reached, like the target of an explicit zero-probability update.
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [go] x=0 -> 1e-200:(x'=1) + 1:(x'=0);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n"
            "  [go] y=0 -> 1e-200:(y'=1) + 1:(y'=0);\nendmodule\n"
        )
        assert (1, 1) not in dtmc.iter_states()
        assert dtmc.state_count == 3

    def test_action_blocks_until_all_participants_are_ready(self):
        # w never enables [go], so the action never fires anywhere
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [go] x=0 -> (x'=1);\nendmodule\n"
            "module w\n  y : [0..1] init 1;\n  [go] y=0 -> (y'=1);\nendmodule\n"
        )
        assert dtmc.state_count == 1
        assert dtmc.deadlocks == frozenset({0})

    def test_non_participants_are_ignored(self):
        # only m has [solo] in its alphabet, so m moves alone
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [solo] x=0 -> (x'=1);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\nendmodule\n"
        )
        assert transition(dtmc, (0, 0), (1, 0)) == 1.0

    def test_each_action_keeps_its_own_command_choice(self):
        # In x=0 and x=1, module a's choice for [stop] is made (it differs
        # from the one for [go]) before module b blocks [stop]; [go] must
        # still fire the command it chose.
        dtmc = explore(
            "dtmc\nmodule a\n  x : [0..2] init 0;\n"
            "  [go] x=0 -> (x'=1);\n  [go] x=1 -> (x'=2);\n"
            "  [stop] x=1 -> (x'=0);\n  [stop] x=0 -> (x'=2);\nendmodule\n"
            "module b\n  y : [0..1] init 0;\n  [stop] y=1 -> (y'=0);\nendmodule\n"
        )
        assert list(dtmc.iter_states()) == [(0, 0), (1, 0), (2, 0)]
        assert transition(dtmc, (0, 0), (1, 0)) == 1.0
        assert transition(dtmc, (1, 0), (2, 0)) == 1.0

    def test_evaluation_uses_the_source_state(self):
        # the copy reads al before the synchronized step, not after
        dtmc = explore(
            "dtmc\nmodule a\n  al : [0..1] init 1;\n  [go] al=1 -> (al'=0);\nendmodule\n"
            "module b\n  cp : [0..1] init 0;\n  [go] cp=0 -> (cp'=al);\nendmodule\n"
        )
        assert transition(dtmc, (1, 0), (0, 1)) == 1.0


class TestBuildErrors:
    def test_two_enabled_actions_are_nondeterminism(self):
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [a] x=0 -> (x'=1);\n  [b] x=0 -> (x'=1);\nendmodule\n"
        )
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "NONDETERMINISM"
        assert "[a]" in str(info.value) and "[b]" in str(info.value)
        assert "x=0" in str(info.value)

    def test_labeled_and_unlabeled_conflict(self):
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [a] x=0 -> (x'=1);\nendmodule\n"
        )
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "NONDETERMINISM"

    def test_two_enabled_commands_of_one_module_are_nondeterminism(self, monkeypatch):
        # The validator rejects these overlapping guards statically; with its
        # check switched off, exploration must still refuse to pick one.
        monkeypatch.setattr(validate_module, "_check_overlaps", lambda *args: set())
        source = (
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [a] x=0 -> (x'=1);\n  [a] x<2 -> (x'=2);\nendmodule\n"
        )
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "NONDETERMINISM"
        message = str(info.value)
        assert "module m" in message and "[a]" in message
        assert "line 4" in message and "line 5" in message
        assert "(x=0)" in message

    def test_update_leaving_the_range_is_reported(self):
        source = "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x<2 -> (x'=x+1);\nendmodule\n"
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "BOUNDS"
        assert "line 4" in str(info.value)
        assert "sets x=2" in str(info.value)
        assert "(x=1)" in str(info.value)

    def test_constant_assignment_out_of_range_is_reported(self):
        source = (
            "dtmc\nconst int k = 1;\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.5:(x'=k) + 0.5:(x'=k+1);\nendmodule\n"
        )
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "BOUNDS"
        assert "line 5" in str(info.value)
        assert "sets x=2" in str(info.value)
        assert "(x=0)" in str(info.value)

    def test_a_value_too_long_to_print_is_reported_by_its_bits(self, tmp_path, capsys):
        # K**16 has 4,800 digits, past CPython's int-to-str digit limit.
        product = "*".join(["K"] * 16)
        source = (
            f"dtmc\nconst int K = {'9' * 300};\nmodule m\n  x : [0..1] init 0;\n"
            f"  [] x=0 -> (x'={product});\n  [] x=1 -> (x'=1);\nendmodule\n"
        )
        bits = (10**300 - 1) ** 16
        message = f"sets x=<{bits.bit_length()}-bit integer>, outside [0..1], in state (x=0)"
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "BOUNDS"
        assert message in str(info.value)
        model = tmp_path / "huge.pm"
        model.write_text(source, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "var, value, shown",
        [
            # x takes bits 0-2 and y bits 3-4. 6 and 7 fit x's bits, 8 does
            # not, and -1 would set every bit from x's offset up.
            ("x", "6", 6),
            ("x", "7", 7),
            ("x", "8", 8),
            ("x", "x+6", 6),
            ("x", "x+8", 8),
            ("x", "x-1", -1),
            # y is the top field, read without a mask.
            ("y", "4", 4),
            ("y", "y+2", 4),
        ],
    )
    def test_value_out_of_range_at_a_field_edge_is_reported(
        self, tmp_path, capsys, var, value, shown
    ):
        source = (
            "dtmc\nmodule m\n  x : [0..5] init 0;\n  y : [0..3] init 2;\n"
            f"  [] x=0 -> ({var}'={value});\nendmodule\n"
        )
        high = {"x": 5, "y": 3}[var]
        message = f"sets {var}={shown}, outside [0..{high}], in state (x=0, y=2)"
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "BOUNDS"
        assert message in str(info.value)
        model = tmp_path / "edge.pm"
        model.write_text(source, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "updates",
        [
            # about 1 + 1.8e-9 over four successors
            "0.5000000009:({0}'=1) + 0.5:({0}'=0)",
            # about 1 - 1.8e-9 on the one successor
            "0.9999999991:({0}'=1)",
        ],
    )
    def test_synchronized_row_sum_is_checked(self, updates):
        # each command passes the 1e-9 PROB_SUM tolerance on its own, but the
        # product distribution misses 1 by about 1.8e-9
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            f"  [go] x=0 -> {updates.format('x')};\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n"
            f"  [go] y=0 -> {updates.format('y')};\nendmodule\n"
        )
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "ROW_SUM"
        assert "(x=0, y=0)" in str(info.value)

    @staticmethod
    def product_source(modules: int) -> str:
        # Every module takes [a] with two updates to the same value, so one
        # row is a product of 2**modules pairs that merge into one successor.
        return "dtmc\n" + "".join(
            f"module m{j}\n  x{j} : [0..1] init 0;\n"
            f"  [a] x{j}=0 -> 0.5:(x{j}'=1) + 0.5:(x{j}'=1);\nendmodule\n"
            for j in range(modules)
        )

    def test_a_product_row_past_the_limit_is_refused_before_it_is_formed(self, tmp_path, capsys):
        assert explorer_module.MAX_ROW_PAIRS == 2**16
        vm = validate(parse(self.product_source(17)))
        started = time.perf_counter()
        with pytest.raises(BuildError) as info:
            build(vm)
        assert time.perf_counter() - started < 0.1
        assert info.value.code == "ROW_LIMIT"
        zeros = ", ".join(f"x{j}=0" for j in range(17))
        assert str(info.value) == (
            f"row for state ({zeros}) is a product of 131072 pairs; ROW_LIMIT is 65536"
        )
        model = tmp_path / "product.pm"
        model.write_text(self.product_source(17), encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x0=1) ]"]) == 2
        assert "ROW_LIMIT is 65536" in capsys.readouterr().err

    def test_a_product_row_at_the_limit_is_formed(self):
        dtmc = explore(self.product_source(16))
        assert dtmc.state_count == 2
        assert dtmc.row(0) == ((1, 1.0),)


def walk_sources(monkeypatch) -> list[str]:
    """The source of each walk `build` compiles from here on.

    The code cache is cleared first, and a walk is recorded where it is
    compiled, at a cache miss; so a walk compiled before is recorded again.
    """
    sources = []

    def spy(source, filename, mode):
        if filename == "<explore>":
            sources.append(source)
        return builtins.compile(source, filename, mode)

    compiled.cache_clear()
    monkeypatch.setattr(analysis_module, "compile", spy, raising=False)
    return sources


def range_tests(monkeypatch, vm) -> list[tuple[str, str]]:
    """(value source, upper bound) of each run-time range test in the walk."""
    sources = walk_sources(monkeypatch)
    build(vm)
    return re.findall(r"\(t := (.*?)\) <= (\d+) else _bounds", sources[0])


class TestRangeTests:
    def test_only_the_photon_counter_step_is_tested_in_the_bb84_walk(self, monkeypatch):
        # Every other assignment provably fits, as ch_bas'=1-al_bas over [0..1].
        vm = validate(parse(generate(Bb84Params(photons=5, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5))))
        read_i = explorer_module.Layout(vm.variables).reads["i"]
        assert range_tests(monkeypatch, vm) == [(f"{read_i} + (1)", "4")]

    def test_an_untested_value_at_a_bit_offset_in_a_product_row(self, monkeypatch):
        # x sits at offset 2 and is set to 1-y in a row where both modules
        # pick among commands; only z'=z+1 can leave its range.
        source = (
            "dtmc\nmodule m0\n  z : [0..3] init 0;\n  x : [0..1] init 0;\n"
            "  [a] z<3 -> 0.5:(x'=1-y) + 0.5:(z'=z+1);\n"
            "  [a] z=3 -> 0.3:(x'=1-y) & (z'=0) + 0.7:(x'=y);\nendmodule\n"
            "module m1\n  y : [0..1] init 0;\n"
            "  [a] y=0 -> 0.4:(y'=1) + 0.6:(y'=x);\n"
            "  [a] y=1 -> 0.5:(y'=1-x) + 0.5:(y'=0);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert [value for value, _ in range_tests(monkeypatch, vm)] == ["(c & 3) + (1)"]
        dtmc = build(vm)
        assert dtmc.state_count == 16
        assert dtmc.export_text() == reference_build(vm)[1].export_text()


class TestProvenChecks:
    def test_the_bb84_walk_checks_no_pick_and_no_pair_of_groups(self, monkeypatch):
        # Validate decided the channel's three [compare] commands and
        # separated the six actions on phase.
        vm = validate(parse(generate(Bb84Params(photons=5, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5))))
        assert vm.disjoint_groups and vm.decided_picks == {(1, "compare")}
        sources = walk_sources(monkeypatch)
        build(vm)
        assert "_pick" not in sources[0] and "_nondeterminism" not in sources[0]

    def test_disjoint_groups_no_one_variable_separates_keep_the_group_check(self, monkeypatch):
        # Each pair differs in x or in y, but sorted on either variable two
        # groups meet, so nothing is proven. The groups cannot both be
        # enabled, so the kept check passes and the build is the reference's.
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  y : [0..1] init 0;\n"
            "  [a] x=0 & y=0 -> (x'=1);\n  [b] x=1 & y=0 -> (y'=1);\n"
            "  [c] x=1 & y=1 -> (x'=0);\n  [d] x=0 & y=1 -> (y'=0);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert not vm.disjoint_groups
        sources = walk_sources(monkeypatch)
        assert build(vm).export_text() == reference_build(vm)[1].export_text()
        assert "_nondeterminism" in sources[0]

    def test_groups_whose_boxes_meet_keep_the_group_check(self, monkeypatch):
        # [a] and [b] meet at x=1, the second state reached.
        source = (
            "dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [a] x<2 -> (x'=1);\n  [b] x>0 & x<3 -> (x'=2);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert not vm.disjoint_groups
        sources = walk_sources(monkeypatch)
        with pytest.raises(BuildError) as info:
            build(vm)
        assert "_nondeterminism" in sources[0]
        assert info.value.code == "NONDETERMINISM"
        assert "action [a] and action [b] both enabled in state (x=1)" in str(info.value)

    def test_two_unlabeled_commands_are_named_by_their_modules(self):
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n  [] y=0 -> (y'=1);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert not vm.disjoint_groups
        with pytest.raises(BuildError) as info:
            build(vm)
        assert info.value.code == "NONDETERMINISM"
        assert str(info.value) == (
            "unlabeled command (module m) and unlabeled command (module w) both enabled "
            "in state (x=0, y=0)"
        )

    def test_an_undecided_pick_keeps_its_check(self, monkeypatch):
        # x+0<5 gets no box narrowing, so the pair's intersection is the
        # whole range, past MAX_OVERLAP_VALUATIONS: validate leaves it open.
        source = (
            "dtmc\nmodule m\n  x : [0..4611686018427387904] init 0;\n"
            "  [a] x+0<5 -> (x'=1);\n  [a] x+0<7 -> (x'=2);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert vm.disjoint_groups and not vm.decided_picks
        sources = walk_sources(monkeypatch)
        with pytest.raises(BuildError) as info:
            build(vm)
        assert "_pick" in sources[0]
        assert info.value.code == "NONDETERMINISM"
        message = "commands at line 4 and line 5 are both enabled for action [a] in state (x=0)"
        assert message in str(info.value)

    def test_an_undecided_pick_is_tested_in_a_state_where_another_group_fires(self):
        # The groups are disjoint on y and [a] fires at (x=0, y=0), but m0's
        # undecided [b] pick is tested there too and finds two commands.
        source = (
            "dtmc\nmodule m0\n  x : [0..4611686018427387904] init 0;\n"
            "  [a] y=0 -> (x'=x);\n  [b] x+0<5 -> (x'=1);\n  [b] x+0<7 -> (x'=2);\nendmodule\n"
            "module m1\n  y : [0..1] init 0;\n  [b] y=1 -> (y'=0);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert vm.disjoint_groups and not vm.decided_picks
        with pytest.raises(BuildError) as info:
            build(vm)
        message = "commands at line 5 and line 6 are both enabled for action [b]"
        assert f"{message} in state (x=0, y=0)" in str(info.value)

    @pytest.mark.parametrize("commands", [64, 65, 1000])
    def test_a_long_decided_pick_stays_flat(self, monkeypatch, commands):
        # A decided pick of any length is one flat `or`, not an expression
        # nested once per command, which CPython fails to compile at 1,000
        # levels; no `_pick` checks it again.
        source = (
            f"dtmc\nmodule m\n  x : [0..{commands}] init 0;\n"
            + "".join(f"  [a] x={k} -> (x'={k + 1});\n" for k in range(commands))
            + "endmodule\n"
        )
        vm = validate(parse(source))
        assert vm.decided_picks == {(0, "a")}
        sources = walk_sources(monkeypatch)
        dtmc = build(vm)
        assert "_pick" not in sources[0]
        assert dtmc.state_count == commands + 1
        assert dtmc.deadlocks == frozenset({commands})

    def test_a_guard_with_a_top_level_or_picks_its_own_command(self, monkeypatch):
        # Each guard of the flat `or` is bracketed: bare, `x=0 | x=3` would
        # make `c == (1) and 1 or c == (0) or ...` pick the first command at
        # x=0.
        source = (
            "dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [a] x=1 -> (x'=2);\n  [a] x=0 | x=3 -> (x'=1);\n  [a] x=2 -> (x'=3);\nendmodule\n"
        )
        vm = validate(parse(source))
        assert vm.decided_picks == {(0, "a")}
        sources = walk_sources(monkeypatch)
        dtmc = build(vm)
        assert "_pick" not in sources[0]
        assert list(dtmc.iter_states()) == [(0,), (1,), (2,), (3,)]
        assert dtmc.export_text() == reference_build(vm)[1].export_text()


class TestLabelsAndExport:
    def test_labels_are_evaluated_over_reachable_states(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
            'label "goal" = x=2;\n'
        )
        assert print_expr(dtmc.labels["goal"]) == "x=2"
        (goal_state,) = dtmc.states_where(dtmc.labels["goal"])
        assert dtmc.state(goal_state) == (2,)

    def test_describe_state(self):
        dtmc = explore("dtmc\nmodule m\n  x : [0..2] init 2;\nendmodule\n")
        assert dtmc.describe_state(0) == "x=2"

    def test_equality_is_identity(self):
        # Both chains have the one variable x : [0..2]; only their states
        # and rows differ.
        three = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
        )
        two = explore("dtmc\nmodule m\n  x : [0..2] init 0;\n  [] x=0 -> (x'=2);\nendmodule\n")
        assert three.variables == two.variables
        assert three != two
        assert len({three, two}) == 2
        assert three == three

    def test_export_text_shape(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
            'label "goal" = x=2;\n'
        )
        text = dtmc.export_text()
        lines = text.splitlines()
        assert lines[0] == "states 3"
        assert lines[1] == "initial 0"
        assert lines[2] == "transitions 4"
        assert "0 1 0.3" in lines
        assert '"goal" 2' in lines
        assert any(line.startswith("deadlocks") for line in lines)

    def test_deterministic_construction(self):
        source = (
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [go] x=0 -> 0.5:(x'=1) + 0.5:(x'=0);\nendmodule\n"
            "module w\n  y : [0..1] init 0;\n"
            "  [go] y=0 -> 0.7:(y'=1) + 0.3:(y'=0);\nendmodule\n"
        )
        first = explore(source)
        second = explore(source)
        assert first.codes == second.codes
        assert first.row_starts == second.row_starts
        assert first.targets == second.targets
        assert first.probs == second.probs


# Each variable's high sits on one side of a power of two, where its field
# gains a bit: fields of 8, 9, 16, 17, 32, 33 and 64 bits.
EDGE_HIGHS = (255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1)


class TestFlatStorage:
    def test_records_round_trip_at_each_field_width_edge(self):
        # State 1 holds every variable at its high, state 2 one below it.
        names = [f"v{k}" for k in range(len(EDGE_HIGHS))]
        decls = "".join(f"  {v} : [0..{high}] init 0;\n" for v, high in zip(names, EDGE_HIGHS))
        to_top = " & ".join(f"({v}'={high})" for v, high in zip(names, EDGE_HIGHS))
        below = " & ".join(f"({v}'={high - 1})" for v, high in zip(names, EDGE_HIGHS))
        dtmc = explore(
            f"dtmc\nmodule m\n{decls}  [] v0=0 -> {to_top};\n"
            f"  [] v0={EDGE_HIGHS[0]} -> {below};\nendmodule\n"
        )
        widths = [8, 9, 16, 17, 32, 33, 64]
        offsets = [0, 8, 17, 33, 50, 82, 115]
        assert [(offset, mask.bit_length()) for offset, mask in dtmc.layout.fields] == list(
            zip(offsets, widths)
        )
        # 179 bits: wider than an array('Q') item, so the walk's list is kept.
        assert dtmc.layout.width == 179
        assert isinstance(dtmc.codes, list) and len(dtmc.codes) == 3
        expected = [(0,) * 7, EDGE_HIGHS, tuple(high - 1 for high in EDGE_HIGHS)]
        assert list(dtmc.iter_states()) == expected
        for i, values in enumerate(expected):
            assert dtmc.state(i) == values
            assert dtmc.describe_state(i) == ", ".join(
                f"{v}={value}" for v, value in zip(names, values)
            )
        with pytest.raises(IndexError):
            dtmc.state(3)

    def test_a_model_without_variables_has_one_empty_state(self):
        dtmc = explore("dtmc\nmodule m\nendmodule\n")
        assert dtmc.codes == array("Q", [0])
        assert list(dtmc.iter_states()) == [()]
        assert dtmc.state(0) == ()
        assert dtmc.row(0) == ((0, 1.0),)

    PARAMS = Bb84Params(photons=70, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5)

    @staticmethod
    def traced(call, *args):
        """The call's result, the bytes it retains and the peak bytes traced
        while it runs.

        The collector stays off during the call and nothing is collected
        after it, so whatever a reference cycle keeps alive counts too.
        """
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call(*args)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        return result, current - before, peak - before

    @classmethod
    def traced_build(cls, vm):
        return cls.traced(build, vm)

    @classmethod
    def retained_per_transition(cls, vm) -> float:
        dtmc, retained, _ = cls.traced_build(vm)
        return retained / dtmc.transition_count

    # CPython 3.11 kept 24.3 bytes per transition of the PARAMS chain.
    RETAINED_PER_TRANSITION = 30

    def test_retained_size_per_transition(self):
        # Flat columns cost 16 bytes per transition ("I" targets and term
        # ids, "d" probabilities) plus a 4-byte row start and an 8-byte code
        # per state; with "q" columns it took 30.8, and a tuple per
        # transition alone would cost 56.
        vm = validate(parse(generate(self.PARAMS)))
        assert self.retained_per_transition(vm) <= self.RETAINED_PER_TRANSITION

    def test_build_peak_per_state(self):
        # The sweep-line indexes only the states a later row can reach, and
        # the walk appends the codes to an array('Q'). CPython 3.11 peaked
        # at 54 bytes per state so, at 134 with every state indexed and a
        # list of codes, and at 238 with a tuple per state packed into
        # struct records after the walk.
        dtmc, _, peak = self.traced_build(validate(parse(generate(self.PARAMS))))
        assert peak / dtmc.state_count <= 68

    def test_the_gather_builds_no_list_of_every_transition(self):
        # The probabilities are gathered a slice of ids at a time. Through
        # one list of every transition, 8 bytes each, CPython 3.11 peaked
        # 8.2 bytes per transition above what the build kept, and 0.7 so.
        vm = validate(parse(generate(self.PARAMS)))
        build(vm)  # the walk's code is compiled and cached before tracing
        dtmc, retained, peak = self.traced_build(vm)
        assert (peak - retained) / dtmc.transition_count < 4

    def test_the_solve_adds_flat_buffers_only(self):
        # prob_until keeps 8 bytes a state for its 'd' values and 1 for the
        # REACH/MISS bits; no bb84 state is numbered, so `low` stays empty.
        # CPython 3.11 added 12 traced bytes per state above the built
        # chain so, and 44 with a float object per state and a tuple copy.
        dtmc = build(validate(parse(generate(self.PARAMS))))
        query = parse_property('P=? [ F "detected" ]')
        prob_until(dtmc, query)  # the label scan is compiled and cached
        _, _, peak = self.traced(prob_until, dtmc, query)
        assert dtmc.state_count == 18_272
        assert peak / dtmc.state_count <= 16

    def test_a_label_on_every_state_costs_no_size(self):
        # A label is kept as its definition, not as a set of its states.
        vm = validate(parse(generate(self.PARAMS) + 'label "all" = i>=0;\n'))
        assert self.retained_per_transition(vm) <= self.RETAINED_PER_TRANSITION


def protocol_dtmc(**kwargs):
    return build(validate(parse(generate(Bb84Params(**kwargs)))))


class TestProtocolStateCounts:
    """Counts must agree with the independent abstract enumerator."""

    @pytest.mark.parametrize("photons", [1, 2, 3, 5])
    def test_perfect_full_intercept(self, photons):
        dtmc = protocol_dtmc(photons=photons)
        assert dtmc.state_count == _machine.reachable_count(photons)

    def test_affine_growth_in_photon_count(self):
        counts = {n: protocol_dtmc(photons=n).state_count for n in (10, 20, 30)}
        per_round = (counts[20] - counts[10]) // 10
        assert counts[30] == counts[20] + 10 * per_round
        assert counts[10] == per_round * 10 + 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(photons=2, channel=(0.7, 0.1, 0.1, 0.1)),
            dict(photons=2, channel=(0.4, 0.2, 0.2, 0.2), eve_q=0.5),
            dict(photons=3, eve_q=0.2),
            dict(photons=2, eve_q=0.5, passthrough=Passthrough.SOURCE_VALUES),
            dict(photons=2, eve_q=0.0),
            dict(photons=2, bias=1.0),
        ],
    )
    def test_other_configurations(self, kwargs):
        dtmc = protocol_dtmc(**kwargs)
        machine_kwargs = {
            "channel": kwargs.get("channel", (1.0, 0.0, 0.0, 0.0)),
            "q": kwargs.get("eve_q", 1.0),
            "bias": kwargs.get("bias", 0.5),
            "passthrough": kwargs.get("passthrough", Passthrough.CHANNEL_OUTPUT).value,
        }
        expected = _machine.reachable_count(kwargs["photons"], **machine_kwargs)
        assert dtmc.state_count == expected

    def test_exactly_the_two_outcome_states_are_absorbing(self):
        # the detected and done states stop on purpose; they surface as
        # flagged deadlocks rather than explicit self-loop commands
        dtmc = protocol_dtmc(photons=2)
        assert len(dtmc.deadlocks) == 2
        outcomes = {dtmc.describe_state(i) for i in dtmc.deadlocks}
        assert all("phase=6" in desc for desc in outcomes)
        assert {"detected=1" in desc for desc in outcomes} == {True, False}


# sha256 of export_text(), recorded before the explorer was rewritten as one
# generated successor function; any change to state order, row order or
# probability bits shows here.
EXPORT_DIGESTS = {
    "channel_heavy_noise.pm": "c7b34448be99e6263601d4b8c1d23e1c879dcc434681a1a28d2271e30ecb9612",
    "channel_light_noise.pm": "a11c95c68c486e5d9d5f5ffdfcb5ac5629938aa4e228fa514f4403c174085463",
    "channel_perfect.pm": "45dd90bb74e007ac95738508ea85b6751a084746b17dad25becd94a99c852531",
    "eve_full.pm": "45dd90bb74e007ac95738508ea85b6751a084746b17dad25becd94a99c852531",
    "eve_medium.pm": "45dd90bb74e007ac95738508ea85b6751a084746b17dad25becd94a99c852531",
    "eve_weak.pm": "45dd90bb74e007ac95738508ea85b6751a084746b17dad25becd94a99c852531",
}
PROTOCOL_DIGESTS = [
    (
        Bb84Params(photons=70, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5),
        "4ab6c96cf12539a4d40287b9b92d2d87d54556ca41b4f869ea2a492680fef658",
    ),
    (
        Bb84Params(
            photons=40,
            channel=HEAVY_NOISE_CHANNEL,
            eve_q=0.5,
            bias=0.3,
            passthrough=Passthrough.SOURCE_VALUES,
        ),
        "d955f323720a8dab4f72e38a8c2ec47c85f565cefd1c3cf36227da499d9c1e9b",
    ),
]


# The reduced chains `sweep` builds, recorded before unrolled rows in any
# target order were stored inline: fig2's three at its top photon count,
# then heavy noise at n=40 for each passthrough.
_FIG2 = FIGURES["fig2"]
HEAVY_40 = [
    Bb84Params(photons=40, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5, passthrough=passthrough)
    for passthrough in Passthrough
]
REDUCED_DIGESTS = list(
    zip(
        [Bb84Params(photons=_FIG2.n_stop, channel=c.channel, eve_q=c.eve_q) for c in _FIG2.curves]
        + HEAVY_40,
        [
            "5b71c97377a24054124b905b8d9e360bf795cee1a5fff2d96e59762756758d37",
            "89a3e5c5fd5280d9877d67355ed8bbefa85488e02674b1370341bab467b45113",
            "3a91160dfcbff1a7077f92d5bef7ac1361c92cf65f75c6e618b9a8d6d4ebfc20",
            "14b4029819ace93d892f2a61ad48ef8fa59f0a87c4da7db82583e90c39c7fa92",
            "64971957d941482c556a8b6adad346941ff94e67b2455f47a277ec2083f2ec64",
        ],
    )
)
# Without Eve (eve_q 0), the reduced perfect and heavy-noise chains at
# n=500, recorded before the generator merged a row's repeated successors.
NO_EVE_500 = [
    (
        Bb84Params(photons=500, channel=PERFECT_CHANNEL, eve_q=0.0),
        "b6b26854a66f57a54bb80f1e13525a607ee3298df7f7a062ec0f5dcae2c94959",
    ),
    (
        Bb84Params(photons=500, channel=HEAVY_NOISE_CHANNEL, eve_q=0.0),
        "c0ad64ea81c82c6e0641960d16c311fdefc9483d487531e725b7676c8674ad3f",
    ),
]


def _digest(dtmc) -> str:
    return hashlib.sha256(dtmc.export_text().encode()).hexdigest()


def merge_calls(monkeypatch) -> list[tuple[tuple[float, int], ...]]:
    """The pairs handed to `_merge` by each walk `build` runs from here on,
    each weight id read as its weight."""
    calls = []
    walk_source, compiled_walk = explorer_module._walk_source, explorer_module.compiled
    weights = []

    def source_spy(*args):
        source, found, checks = walk_source(*args)
        weights[:] = found
        return source, found, checks

    def compiled_spy(source):
        walk = compiled_walk(source)
        if not source.startswith("def explore("):
            return walk

        def counted(codes, targets, _row, _merge, *rest):
            def merge(pairs, c):
                calls.append(tuple((weights[w], t) for w, t in pairs))
                _merge(pairs, c)

            walk(codes, targets, _row, merge, *rest)

        return counted

    monkeypatch.setattr(explorer_module, "_walk_source", source_spy)
    monkeypatch.setattr(explorer_module, "compiled", compiled_spy)
    return calls


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
    def test_golden_model_export(self, golden, name):
        assert _digest(explore(golden(name))) == EXPORT_DIGESTS[name]

    @pytest.mark.parametrize("params, digest", PROTOCOL_DIGESTS)
    def test_protocol_model_export(self, params, digest):
        assert _digest(build(validate(parse(generate(params))))) == digest

    @pytest.mark.parametrize("params, digest", REDUCED_DIGESTS + NO_EVE_500)
    def test_reduced_protocol_model_export(self, params, digest):
        assert _digest(build(validate(parse(generate(params))), reduce=True)) == digest

    @pytest.mark.parametrize(
        "params, reduce",
        [(params, True) for params, _ in REDUCED_DIGESTS]
        + [(params, False) for params in HEAVY_40]
        + [(params, True) for params, _ in NO_EVE_500],
    )
    def test_no_bb84_row_reaches_merge(self, monkeypatch, params, reduce):
        # Their rows repeat targets or find them out of order, and the walk
        # stores each inline, as `_merge` would. Without Eve, the reset of
        # dead variables writes several successors of a row alike, and the
        # generator merges those.
        calls = merge_calls(monkeypatch)
        build(validate(parse(generate(params))), reduce=reduce)
        assert calls == []


def _walk_misses(vm, **kwargs) -> int:
    """Code cache misses of one build: 1 where its walk was compiled."""
    before = compiled.cache_info().misses
    build(vm, **kwargs)
    return compiled.cache_info().misses - before


# (params, reduce) of each pinned bb84 chain.
PINNED_BB84 = [(params, False) for params, _ in PROTOCOL_DIGESTS] + [
    (params, True) for params, _ in REDUCED_DIGESTS + NO_EVE_500
]


class TestCodeCache:
    def test_fig2_compiles_two_walks_for_three_curves(self):
        # weak_eve and medium_eve differ only in probabilities; full_eve
        # (eve_q 1) drops Eve's pass-through branch, so its walk differs.
        vms = [
            validate(parse(generate(Bb84Params(photons=_FIG2.n_stop, channel=c.channel, eve_q=c.eve_q))))
            for c in _FIG2.curves
        ]
        assert [c.key for c in _FIG2.curves] == ["weak_eve", "medium_eve", "full_eve"]
        compiled.cache_clear()
        assert [_walk_misses(vm, reduce=True) for vm in vms] == [1, 0, 1]
        # Every later build of any of them hits.
        assert [_walk_misses(vm, reduce=True) for vm in vms] == [0, 0, 0]

    @pytest.mark.parametrize("params, reduce", PINNED_BB84)
    def test_a_cold_and_a_warm_build_store_the_same_bits(self, params, reduce):
        vm = validate(parse(generate(params)))
        runs = []
        for cold in (True, False):
            if cold:
                compiled.cache_clear()
            dtmc = build(vm, reduce=reduce)
            report = prob_until(dtmc, parse_property('P=? [ F "detected" ]'))
            runs.append((dtmc.export_text(), array("d", report.values).tobytes()))
        assert compiled.cache_info().hits > 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
    def test_a_cold_and_a_warm_golden_build_export_alike(self, golden, name):
        vm = validate(parse(golden(name)))
        compiled.cache_clear()
        cold = build(vm).export_text()
        assert _walk_misses(vm) == 0
        assert build(vm).export_text() == cold

    def test_no_walk_source_holds_a_probability(self, monkeypatch, golden):
        sources = walk_sources(monkeypatch)
        for params, reduce in PINNED_BB84:
            build(validate(parse(generate(params))), reduce=reduce)
        for name in EXPORT_DIGESTS:
            explore(golden(name))
        # 1e-200 and 0.3 reach the walk of a product row as weights too.
        explore(
            "dtmc\nmodule m0\n  x : [0..2] init 0;\n  [a] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\n"
            "  [a] x>0 -> (x'=x);\nendmodule\nmodule m1\n  y : [0..1] init 0;\n"
            "  [a] y=0 -> 1e-200:(y'=1) + 1:(y'=0);\n  [a] y=1 -> (y'=y);\nendmodule\n"
        )
        assert len(sources) > len(PINNED_BB84)
        assert "= _row(c, " in sources[-1]
        for source in sources:
            numbers = [
                token.string
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.NUMBER
            ]
            assert all(number.isdigit() for number in numbers)

    def test_the_cache_stays_at_its_size(self):
        compiled.cache_clear()
        photon_counts = range(1, CODE_CACHE_SIZE + 5)
        for photons in photon_counts:
            build(validate(parse(generate(Bb84Params(photons=photons)))))
        info = compiled.cache_info()
        assert info.maxsize == info.currsize == CODE_CACHE_SIZE
        assert info.misses > CODE_CACHE_SIZE

    def test_validating_many_guards_leaves_a_walk_cached(self):
        # x+0=k gets no box narrowing, so validation compiles all 40 guards;
        # they have their own entries, and the bb84 walk stays.
        vm = validate(parse(generate(Bb84Params(photons=70, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5))))
        guards = (
            "dtmc\nmodule m\n  x : [0..40] init 0;\n"
            + "".join(f"  [] x+0={k} -> (x'={k + 1});\n" for k in range(40))
            + "endmodule\n"
        )
        compiled.cache_clear()
        assert _walk_misses(vm, reduce=True) == 1
        before = compiled.cache_info().misses
        validate(parse(guards))
        assert compiled.cache_info().misses - before == 40
        assert _walk_misses(vm, reduce=True) == 0

    def test_a_walk_past_the_size_limit_is_not_kept(self, monkeypatch):
        source = (
            "dtmc\nmodule m\n  x : [0..500] init 0;\n"
            + "".join(f"  [a{k}] x={k} -> (x'={k + 1});\n" for k in range(500))
            + "endmodule\n"
        )
        vm = validate(parse(source))
        sources = walk_sources(monkeypatch)
        assert _walk_misses(vm) == 1 and _walk_misses(vm) == 1
        assert len(sources) == 2 and len(sources[0]) > MAX_CACHED_SOURCE
        assert compiled.cache_info().currsize == 0

    def test_scans_and_guards_share_compiled_code(self):
        dtmc = protocol_dtmc(photons=3)
        compiled.cache_clear()
        detected = dtmc.states_where(dtmc.labels["detected"])
        assert dtmc.states_where(dtmc.labels["detected"]) == detected
        guard = parse("dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=1 -> (x'=0);\nendmodule\n")
        expr = guard.modules[0].commands[0].guard
        first, second = (compile_expr(expr, {"x": 0}, {}) for _ in range(2))
        assert first.__code__ is second.__code__ and first((1,)) and not second((0,))
        assert compiled.cache_info()[:2] == (2, 2)  # (hits, misses)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_a_shared_walk_names_each_models_own_lines_and_names(self, order):
        # Two models differ in their variable, module and action names and
        # their line numbers, none of which reaches the walk's source, so
        # one walk serves both. The initial state picks which check fails:
        # an undecided pick at x=2, two groups at x=1, a range at y=1.
        namings = [("x", "y", "m", "w", "a", ""), ("u", "v", "p", "q", "go", "\n\n\n")]

        def model(x, y, m, w, a, gap, init):
            return (
                f"dtmc\n{gap}module {m}\n  {x} : [0..4611686018427387904] init {init[0]};\n"
                f"  [{a}] {x}+0<3 & {y}=0 -> ({x}'={x}+1);\n"
                f"  [{a}] {x}+0=2 & {y}=0 -> ({x}'=0);\nendmodule\n"
                f"module {w}\n  {y} : [0..1] init {init[1]};\n  [] {y}=1 -> ({y}'={y}+1);\n"
                f"  [] {y}=0 & {x}+0=1 -> ({y}'=0);\nendmodule\n"
            )

        def messages(x, y, m, w, a, gap):
            line = len(gap)
            return {
                (2, 0): f"module {m}: commands at line {line + 4} and line {line + 5} are both "
                f"enabled for action [{a}] in state ({x}=2, {y}=0)",
                (1, 0): f"unlabeled command (module {w}) and action [{a}] both enabled in "
                f"state ({x}=1, {y}=0)",
                (0, 1): f"update at line {line + 9} sets {y}=2, outside [0..1], in state "
                f"({x}=0, {y}=1)",
            }

        compiled.cache_clear()
        for init in [(2, 0), (1, 0), (0, 1)]:
            for naming in (namings[i] for i in order):
                vm = validate(parse(model(*naming, init)))
                assert not vm.decided_picks and not vm.disjoint_groups
                with pytest.raises(BuildError) as info:
                    build(vm)
                assert str(info.value) == messages(*naming)[init]
        assert compiled.cache_info().misses == 1


# Two modules pick on [a], so the walk forms the first row with `_row` at
# run time; P and Q are m0's and m1's first probabilities, and N is added
# to each of them.
_BOTH_PICK = (
    "dtmc\nmodule m0\n  x : [0..2] init 0;\n  [a] x=0 -> {P}{N}:(x'=1) + 1-{P}:(x'=2);\n"
    "  [a] x>0 -> (x'=x);\nendmodule\nmodule m1\n  y : [0..2] init 0;\n"
    "  [a] y=0 -> {Q}{N}:(y'=1) + 1-{Q}:(y'=2);\n  [a] y>0 -> (y'=y);\nendmodule\n"
)


def _both_pick(p="0.3", q="0.3", nudge=""):
    return validate(parse(_BOTH_PICK.format(P=p, Q=q, N=nudge)))


def _solved_bits(dtmc, prop='P=? [ F "detected" ]') -> bytes:
    return array("d", prob_until(dtmc, parse_property(prop)).values).tobytes()


class TestReweight:
    @pytest.mark.parametrize("params, digest", PROTOCOL_DIGESTS + REDUCED_DIGESTS)
    def test_a_reweighted_chain_exports_the_pinned_digest(self, params, digest):
        reduce = (params, digest) in REDUCED_DIGESTS
        vm = validate(parse(generate(params)))
        # Another point of the same shape: eve_q strictly inside (0, 1)
        # keeps Eve's two branches, as 0.5 and 0.2 have them, and 1 not.
        other = Bb84Params(params.photons, params.channel, 0.37 if params.eve_q < 1 else 1.0,
                           params.bias, params.passthrough)
        chain = build(validate(parse(generate(other))), reduce=reduce)
        reweighted = chain.reweight(vm)
        assert _digest(reweighted) == digest
        assert reweighted.codes is chain.codes and reweighted.targets is chain.targets
        assert _solved_bits(reweighted) == _solved_bits(build(vm, reduce=reduce))

    def test_a_figure_curve_reweights_without_a_walk(self, monkeypatch):
        weak, medium = (
            validate(parse(generate(Bb84Params(70, c.channel, c.eve_q)))) for c in _FIG2.curves[:2]
        )
        chain = build(weak, reduce=True)
        sources = walk_sources(monkeypatch)
        assert chain.reweight(medium).export_text() == build(medium, reduce=True).export_text()
        # Only the build compiled a walk: reweight generated the source alone.
        assert len([source for source in sources if source.startswith("def explore(")]) == 1

    def test_a_chain_with_a_run_time_row_is_refused(self):
        # `_row` forms the first row, so the chain keeps no terms and
        # reweight refuses a model of the same shape with SHAPE.
        chain = build(_both_pick())
        assert chain.terms is None
        with pytest.raises(BuildError) as info:
            chain.reweight(_both_pick("0.25", "0.6"))
        assert info.value.code == "SHAPE"
        assert str(info.value).endswith("formed a row at run time")

    def test_a_row_sum_is_raised_as_the_build_raises_it(self):
        # Each module's two probabilities sum to 1 + 8e-10, within the
        # validator's tolerance; their product row misses 1 by 1.6e-9.
        # reweight refuses the chain, and the caller's build raises ROW_SUM.
        nudged = _both_pick(nudge="+8e-10")
        with pytest.raises(BuildError) as reweighted:
            build(_both_pick()).reweight(nudged)
        assert reweighted.value.code == "SHAPE"
        with pytest.raises(BuildError) as built:
            build(nudged)
        assert built.value.code == "ROW_SUM"
        assert str(built.value).startswith("row for state (x=0, y=0) sums to 1.0000000016")

    @pytest.mark.parametrize("first, second", [("0.3", "1e-200"), ("1e-200", "0.3")])
    def test_a_product_that_turns_zero_is_a_shape_error(self, first, second):
        # 1e-200 * 1e-200 underflows to 0, and `_row` drops that product;
        # the row is formed at run time, so reweight refuses either way.
        chain = build(_both_pick(first, first))
        assert ((1, 1) in chain.iter_states()) == (first != "1e-200")
        with pytest.raises(BuildError) as info:
            chain.reweight(_both_pick(second, second))
        assert info.value.code == "SHAPE"
        assert str(info.value).endswith("formed a row at run time")

    @pytest.mark.parametrize(
        "first, second, differs",
        [
            # eve_q 1 writes no pass-through update, and the reduction of
            # its model resets other variables.
            (Bb84Params(5, eve_q=0.5), Bb84Params(5, eve_q=1.0), "it resets other variables"),
            # Five photons against six: the guards on i differ.
            (Bb84Params(5, eve_q=0.5), Bb84Params(6, eve_q=0.5), "its walk differs"),
        ],
    )
    def test_another_shape_is_refused(self, first, second, differs):
        chain = build(validate(parse(generate(first))), reduce=True)
        with pytest.raises(BuildError) as info:
            chain.reweight(validate(parse(generate(second))))
        assert info.value.code == "SHAPE"
        assert str(info.value) == f"the model is not of the chain's shape: {differs}"

    @pytest.mark.parametrize("first, second", [("0.5", "0"), ("0", "0.5")])
    def test_a_zero_update_probability_elsewhere_changes_the_walk(self, first, second):
        # The walk stores no successor of a zero update.
        source = "dtmc\nmodule m\n  x : [0..2] init 0;\n  [] x=0 -> {}:(x'=1) + 1-{}:(x'=2);\nendmodule\n"
        chain = explore(source.format(first, first))
        with pytest.raises(BuildError, match="its walk differs"):
            chain.reweight(validate(parse(source.format(second, second))))

    def test_another_initial_state_is_refused(self):
        source = "dtmc\nmodule m\n  x : [0..2] init {};\n  [] x<2 -> 0.5:(x'=x+1) + 0.5:(x'=x);\nendmodule\n"
        chain = explore(source.format(0))
        with pytest.raises(BuildError, match="its initial state differs") as info:
            chain.reweight(validate(parse(source.format(1))))
        assert info.value.code == "SHAPE"

    def test_a_zero_product_formed_by_the_generator_changes_the_walk(self):
        # One module picks: the generator forms the products and drops the
        # zero one, so the walk's source differs.
        source = (
            "dtmc\nmodule m0\n  x : [0..1] init 0;\n  [a] true -> {p}:(x'=1) + 1:(x'=0);\nendmodule\n"
            "module m1\n  y : [0..1] init 0;\n  [a] true -> {p}:(y'=1) + 1:(y'=0);\nendmodule\n"
        )
        chain = explore(source.format(p="1e-100"))
        with pytest.raises(BuildError, match="its walk differs"):
            chain.reweight(validate(parse(source.format(p="1e-200"))))

    def test_a_chain_build_did_not_make_has_no_shape(self):
        chain = build(_both_pick())
        made = Dtmc(**{name: getattr(chain, name) for name in Dtmc._fields if name != "terms"})
        with pytest.raises(BuildError) as info:
            made.reweight(_both_pick())
        assert info.value.code == "SHAPE"


class TestNoReferenceCycle:
    """What a build makes is freed by reference counting when it returns,
    with nothing left for the cycle collector, cold or warm."""

    UNDECIDED_PICK = (
        "dtmc\nmodule m\n  x : [0..4611686018427387904] init 0;\n"
        "  [a] x+0<5 -> (x'=5);\n  [a] x+0>=5 & x+0<6 -> (x'=6);\nendmodule\n"
    )
    NOT_PROVEN_DISJOINT = (
        "dtmc\nmodule m\n  x : [0..1] init 0;\n  y : [0..1] init 0;\n"
        "  [a] x=0 & y=0 -> (x'=1);\n  [b] x=1 & y=0 -> (y'=1);\n"
        "  [c] x=1 & y=1 -> (x'=0);\n  [d] x=0 & y=1 -> (y'=0);\nendmodule\n"
    )

    @pytest.mark.parametrize(
        "source, reduce, disjoint, decided",
        [
            (generate(Bb84Params(photons=5)), False, True, {(1, "compare")}),
            (generate(Bb84Params(photons=5)), True, True, {(1, "compare")}),
            (UNDECIDED_PICK, False, True, set()),
            (NOT_PROVEN_DISJOINT, False, False, set()),
        ],
        ids=["bb84", "bb84-reduced", "undecided-pick", "not-proven-disjoint"],
    )
    def test_a_build_leaves_no_cycle(self, source, reduce, disjoint, decided):
        vm = validate(parse(source))
        assert (vm.disjoint_groups, vm.decided_picks) == (disjoint, decided)
        gc.collect()
        gc.disable()
        try:
            for cold in (True, False):
                if cold:
                    compiled.cache_clear()
                build(vm, reduce=reduce)
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestScale:
    @pytest.mark.parametrize("branching", [5, 2, 0])
    def test_many_modules_on_one_action(self, monkeypatch, branching):
        # The first `branching` modules branch; the others move
        # deterministically. With 2**5 = 32 pairs, past MAX_UNROLLED_PAIRS,
        # the walk hands the group's 3,000 update tuples to one `_row` call,
        # which multiplies the probabilities at run time, so no generated
        # expression grows with the group; 4 pairs or 1 are unrolled.
        modules = [
            f"module m{k}\n  x{k} : [0..1] init 0;\n"
            f"  [go] x{k}=0 -> "
            + (f"0.5:(x{k}'=1) + 0.5:(x{k}'=0)" if k < branching else f"(x{k}'=1)")
            + ";\nendmodule\n"
            for k in range(3000)
        ]
        sources = walk_sources(monkeypatch)
        dtmc = explore("dtmc\n" + "".join(modules))
        assert ("= _row(c, " in sources[0]) == (2**branching > explorer_module.MAX_UNROLLED_PAIRS)
        successors = 2**branching
        assert dtmc.state_count == 1 + successors
        assert dtmc.row(0) == tuple((i, 0.5**branching) for i in range(1, successors + 1))
        # Product order: the first module's updates vary slowest.
        assert [state[:branching] for state in itertools.islice(dtmc.iter_states(), 1, None)] == list(
            itertools.product((1, 0), repeat=branching)
        )
        assert all(state[branching:] == (1,) * (3000 - branching) for state in itertools.islice(dtmc.iter_states(), 1, None))

    def test_long_unwritten_runs_are_copied(self):
        # Each step writes one of 40 variables and copies the rest, runs of
        # up to 39 untouched variables on either side.
        modules = [
            f"module m{k}\n  x{k} : [0..1] init 0;\n"
            f"  [] {f'x{k - 1}=1 & ' if k else ''}x{k}=0 -> (x{k}'=1);\nendmodule\n"
            for k in range(40)
        ]
        dtmc = explore("dtmc\n" + "".join(modules))
        assert list(dtmc.iter_states()) == [(1,) * k + (0,) * (40 - k) for k in range(41)]
        assert dtmc.deadlocks == frozenset({40})

    def test_many_groups(self):
        # One group per action: the generated walk tests 3,000 groups in
        # turn, which must not nest 3,000 statements deep.
        source = (
            "dtmc\nmodule m\n  x : [0..3000] init 0;\n"
            + "".join(f"  [a{k}] x={k} -> (x'={k + 1});\n" for k in range(3000))
            + "endmodule\n"
        )
        dtmc = explore(source)
        assert dtmc.state_count == 3001
        assert dtmc.row(2999) == ((3000, 1.0),)
        assert dtmc.deadlocks == frozenset({3000})

    def test_many_unlabeled_commands(self):
        # 44,850 command pairs for the overlap check, each skipped on its box.
        source = (
            "dtmc\nmodule m\n  x : [0..300] init 0;\n"
            + "".join(f"  [] x={k} -> (x'={k + 1});\n" for k in range(300))
            + "endmodule\n"
        )
        dtmc = explore(source)
        assert dtmc.state_count == 301
        assert dtmc.deadlocks == frozenset({300})


def reference_build(vm) -> tuple[list[tuple[int, ...]], Dtmc]:
    """The explorer by hand, for small models: in each state, in BFS order,
    the one enabled group's product distribution (the first module's
    updates varying slowest), merged by successor and sorted by index.
    Returns the valuations in index order and the Dtmc, whose codes put
    each variable in high.bit_length() bits, in declaration order.

    It raises BuildError with the code `build` raises in the first state
    where an error shows: two groups or two commands of one module enabled
    (checked before any row is formed), then a value out of range, then a
    row sum off 1.
    """

    def compiled(expr):
        return compile_expr(expr, vm.var_index, vm.constants)

    # Per module, per command: its label, its guard and its updates of
    # nonzero probability, each a list of (variable index, value).
    commands = [
        [
            (
                command.label,
                compiled(command.guard),
                [
                    (prob, [(vm.var_index[a.var], compiled(a.value)) for a in update.assignments])
                    for prob, update in zip(vm.update_probs[mi][ci], command.updates)
                    if prob
                ],
            )
            for ci, command in enumerate(module.commands)
        ]
        for mi, module in enumerate(vm.model.modules)
    ]
    states = [vm.initial_state]
    found = {vm.initial_state: 0}
    row_starts, targets, probs, deadlocks = [0], [], [], set()
    for si, s in enumerate(states):
        enabled = [
            [updates] for own in commands for label, guard, updates in own
            if label is None and guard(s)
        ]
        for action in [a for a, _ in vm.groups if a is not None]:
            chosen = []
            for own in commands:
                if all(label != action for label, _, _ in own):
                    continue
                hits = [updates for label, guard, updates in own if label == action and guard(s)]
                if len(hits) > 1:
                    raise BuildError("two commands", code="NONDETERMINISM")
                if not hits:
                    break
                chosen.append(hits[0])
            else:
                enabled.append(chosen)
        if len(enabled) > 1:
            raise BuildError("two groups", code="NONDETERMINISM")
        row = {}
        for combination in itertools.product(*enabled[0]) if enabled else ():
            q = combination[0][0]
            for p, _ in combination[1:]:
                q *= p
            successor = list(s)
            for _, assignments in combination:
                for i, value in assignments:
                    successor[i] = value(s)
                    var = vm.variables[i]
                    if not var.low <= successor[i] <= var.high:
                        raise BuildError("out of range", code="BOUNDS")
            if not q:
                continue
            key = tuple(successor)
            if key not in found:
                found[key] = len(states)
                states.append(key)
            row[found[key]] = row.get(found[key], 0.0) + q
        if not enabled:
            deadlocks.add(si)
            row = {si: 1.0}
        elif abs(math.fsum(row.values()) - 1.0) > ROW_SUM_TOL:
            raise BuildError("row sum", code="ROW_SUM")
        for target in sorted(row):
            targets.append(target)
            probs.append(row[target])
        row_starts.append(len(targets))
    offsets = list(itertools.accumulate((var.high.bit_length() for var in vm.variables), initial=0))
    codes = [sum(value << offset for value, offset in zip(state, offsets)) for state in states]
    return states, Dtmc(
        variables=vm.variables,
        constants=dict(vm.constants),
        codes=array("Q", codes) if offsets[-1] <= 64 else codes,
        initial=0,
        row_starts=array("q", row_starts),
        targets=array("q", targets),
        probs=array("d", probs),
        labels={label.name: label.expr for label in vm.model.labels},
        deadlocks=frozenset(deadlocks),
    )


# Distributions of a command's updates: a zero-probability update, an
# underflowing one whose product with another is 0.0, and five updates, so
# two modules of five make a 25-pair row past the unrolling cap.
_DISTRIBUTIONS = [
    ("1",),
    ("0.5", "0.5"),
    ("0.3", "0.7"),
    ("1/3", "1/3", "1/3"),
    ("0", "1"),
    ("1e-200", "1"),
    ("0.2",) * 5,
]


@st.composite
def small_models(draw) -> str:
    """Model text: one or two modules of one variable each, over [0..1] to
    [0..3]. A module has one command for each of some of its variable's
    values, most often all of them, and the command may test the other
    variable too. A lone module's commands are unlabeled or on [a] or [b];
    two modules mostly synchronize on [a], so one or both pick among
    commands. A value is a constant, a variable or a step of one, so
    duplicate successors, targets found in descending order and
    out-of-range values all occur.
    """
    names = ["x", "y"][: draw(st.integers(1, 2))]
    labels = ["", "a", "b"] if len(names) == 1 else ["a", "a", "a", "b", ""]
    atom = st.builds(
        " & {}{}{}".format, st.sampled_from(names), st.sampled_from(["=", "!=", "<", ">="]),
        st.integers(0, 3),
    )
    # Mostly the variable's own test alone.
    extra = st.one_of(st.just(""), st.just(""), atom)
    lines = ["dtmc"]
    for k, var in enumerate(names):
        high = draw(st.integers(1, 3))
        tested = draw(st.permutations(range(high + 1)))
        tested = tested[: draw(st.sampled_from([high + 1, high + 1, 1, 2]))]
        lines.append(f"module m{k}\n  {var} : [0..{high}] init {draw(st.sampled_from(tested))};")
        values = st.sampled_from(
            [str(c) for c in range(high + 1)] + [*names, f"{var}+1", f"{var}-1", f"{high}-{var}"]
        )
        for c in tested:
            probs = draw(st.sampled_from(_DISTRIBUTIONS))
            updates = " + ".join(f"{p}:({var}'={draw(values)})" for p in probs)
            label = draw(st.sampled_from(labels))
            lines.append(f"  [{label}] {var}={c}{draw(extra)} -> {updates};")
        lines.append("endmodule")
    return "\n".join(lines) + "\n"


# At x=3, x'=x-2 reaches the state x'=1 reaches: one target from two
# sources, so only the run time finds it repeated.
_REPEATED_AMONG_THREE = (
    "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x=0 -> 0.5:(x'=3) + 0.5:(x'=1);\n"
    "  [] x=3 -> 0.2:(x'=1) + 0.3:(x'=3) + 0.5:(x'=x-2);\nendmodule\n"
)


@settings(max_examples=400, deadline=None)
@given(small_models())
# Duplicate successors, merged.
@example("dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=1);\nendmodule\n")
# x=1 finds x=2 before the known x=0: targets in descending order.
@example(
    "dtmc\nmodule m\n  x : [0..2] init 0;\n"
    "  [] x=0 -> (x'=1);\n  [] x=1 -> 0.5:(x'=2) + 0.5:(x'=0);\nendmodule\n"
)
# A synchronized action whose first module picks one of two commands.
@example(
    "dtmc\nmodule m0\n  x : [0..2] init 0;\n"
    "  [a] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\n  [a] x>=1 -> 0.5:(x'=0) + 0.5:(x'=x);\nendmodule\n"
    "module m1\n  y : [0..1] init 0;\n  [a] true -> 0.5:(y'=1-y) + 0.5:(y'=0);\nendmodule\n"
)
# A zero product: 1e-200 * 1e-200 underflows, and that successor is dropped.
@example(
    "dtmc\nmodule m0\n  x : [0..1] init 0;\n  [a] true -> 1e-200:(x'=1) + 1:(x'=0);\nendmodule\n"
    "module m1\n  y : [0..1] init 0;\n  [a] true -> 1e-200:(y'=1) + 1:(y'=0);\nendmodule\n"
)
# Both modules pick, and a 25-pair row: rows the walk hands to _row.
@example(
    "dtmc\nmodule m0\n  x : [0..3] init 0;\n"
    "  [a] x<2 -> 0.2:(x'=0) + 0.2:(x'=1) + 0.2:(x'=2) + 0.2:(x'=3) + 0.2:(x'=x);\n"
    "  [a] x>=2 -> (x'=x-1);\nendmodule\n"
    "module m1\n  y : [0..3] init 0;\n"
    "  [a] y=0 -> 0.2:(y'=3) + 0.2:(y'=2) + 0.2:(y'=1) + 0.2:(y'=0) + 0.2:(y'=y);\n"
    "  [a] y!=0 -> (y'=y-1);\nendmodule\n"
)
# x=3 finds x=2 between the known x=1 and x=3: a 3-pair row in mixed order.
@example(
    "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x=0 -> 0.5:(x'=3) + 0.5:(x'=1);\n"
    "  [] x=3 -> 0.2:(x'=1) + 0.3:(x'=2) + 0.5:(x'=3);\nendmodule\n"
)
# x=1 repeated among three pairs: that row goes to _merge.
@example(_REPEATED_AMONG_THREE)
# The same row with one successor written twice: the generator merges it.
@example(_REPEATED_AMONG_THREE.replace("x'=x-2", "x'=1"))
# Pairs merged by the generator whose target recurs at run time, among two
# distinct successors and among three: both rows go to _merge.
@example(_REPEATED_AMONG_THREE.replace("0.3:(x'=3) + 0.5:(x'=x-2)", "0.3:(x'=x-2) + 0.5:(x'=1)"))
@example(_REPEATED_AMONG_THREE.replace("0.2:(x'=1)", "0.1:(x'=1) + 0.1:(x'=x-2)"))
# Two pairs in descending order, of unequal probabilities.
@example(
    "dtmc\nmodule m\n  x : [0..2] init 0;\n"
    "  [] x=0 -> (x'=1);\n  [] x=1 -> 0.3:(x'=2) + 0.7:(x'=0);\nendmodule\n"
)
# Two pairs, by different expressions, on one target: a new one, then a known one.
@example(
    "dtmc\nmodule m\n  x : [0..1] init 0;\n"
    "  [] x=0 -> 0.6:(x'=1) + 0.4:(x'=x+1);\n  [] x=1 -> 0.3:(x'=1-x) + 0.7:(x'=0);\nendmodule\n"
)
# A lone module's row of 20 pairs, past the cap too, with duplicates.
@example(
    "dtmc\nmodule m\n  x : [0..9] init 0;\n  [] true -> "
    + " + ".join(f"0.05:(x'={(7 * k) % 10})" for k in range(20))
    + ";\nendmodule\n"
)
def test_build_matches_the_reference_explorer(source):
    try:
        vm = validate(parse(source))
    except ValidationError:
        reject()
    try:
        _, expected = reference_build(vm)
    except BuildError as error:
        with pytest.raises(BuildError) as info:
            build(vm)
        assert info.value.code == error.code
    else:
        assert build(vm).export_text() == expected.export_text()


def _reprobed(source: str, draw, nudged: bool = False) -> str:
    """`source` with each command's update probabilities redrawn inside
    (0, 1): k updates get a_1/t, ..., a_k/t, for a_i drawn from 1..9 and t
    their sum. `nudged` adds 0, 4e-10 or 8e-10 to the first, within the
    validator's tolerance but not always within ROW_SUM_TOL of a product.
    """
    lines = []
    for line in source.splitlines():
        if " -> " in line:
            head, updates = line.split(" -> ")
            bodies = [update.partition(":")[2] for update in updates[:-1].split(" + ")]
            weights = [draw(st.integers(1, 9)) for _ in bodies]
            probs = [f"{a}/{sum(weights)}" for a in weights]
            if nudged:
                probs[0] += f"+{draw(st.sampled_from([0.0, 4e-10, 8e-10]))!r}"
            line = f"{head} -> {' + '.join(f'{p}:{body}' for p, body in zip(probs, bodies))};"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _first_variable_query(vm) -> str:
    return f"P=? [ F ({vm.variables[0].name}=1) ]"


@settings(max_examples=300, deadline=None)
@given(small_models(), st.booleans(), st.data())
def test_reweight_at_an_interior_point_is_a_fresh_build(source, reduce, data):
    # Every probability strictly inside (0, 1), at two points: the second
    # model has the first's shape, and its reweighted chain is bit for bit
    # its fresh build, solved vector included, where the chain keeps its
    # terms; where a row was formed at run time, reweight refuses it.
    try:
        first, second = (validate(parse(_reprobed(source, data.draw))) for _ in range(2))
        chain = build(first, reduce=reduce)
    except (ValidationError, BuildError):
        reject()
    fresh = build(second, reduce=reduce)
    assert (fresh.terms is None) == (chain.terms is None)
    if chain.terms is None:
        # A row formed at run time: reweight refuses the chain.
        with pytest.raises(BuildError) as info:
            chain.reweight(second)
        assert info.value.code == "SHAPE"
        return
    reweighted = chain.reweight(second)
    assert reweighted.export_text() == fresh.export_text()
    if not fresh.reset:
        query = _first_variable_query(second)
        assert _solved_bits(reweighted, query) == _solved_bits(fresh, query)


def _outcome(make) -> object:
    try:
        return make().export_text()
    except BuildError as error:
        return error.code, str(error)


@settings(max_examples=300, deadline=None)
@given(small_models(), st.data())
def test_reweight_or_a_build_is_what_a_build_gives(source, data):
    # Near the validator's tolerance the row-sum check may fail. reweight
    # either refuses the shape (the caller builds), or gives what the
    # fresh build gives: the same chain, or ROW_SUM with its message.
    try:
        first = validate(parse(_reprobed(source, data.draw)))
        second = validate(parse(_reprobed(source, data.draw, nudged=True)))
        chain = build(first)
    except (ValidationError, BuildError):
        reject()
    got = _outcome(lambda: chain.reweight(second))
    refused = isinstance(got, tuple) and got[0] == "SHAPE"
    assert refused or got == _outcome(lambda: build(second))


def test_a_target_repeated_among_three_pairs_reaches_merge(monkeypatch):
    calls = merge_calls(monkeypatch)
    dtmc = explore(_REPEATED_AMONG_THREE)
    assert calls == [((0.2, 2), (0.3, 1), (0.5, 2))]
    assert dtmc.row(1) == ((1, 0.3), (2, 0.7))


def test_a_successor_repeated_in_the_source_is_merged_by_the_generator(monkeypatch):
    # Both x'=1 updates render as one successor: the generator sums them,
    # 0.0 + 0.2 + 0.5 as `_merge` would, and the walk stores the row inline.
    calls = merge_calls(monkeypatch)
    dtmc = explore(_REPEATED_AMONG_THREE.replace("x'=x-2", "x'=1"))
    assert calls == []
    assert dtmc.row(1) == ((1, 0.3), (2, 0.0 + 0.2 + 0.5))


@settings(max_examples=400, deadline=None)
@given(small_models())
def test_what_validate_proves_holds_at_every_valuation(source):
    # Over every valuation in the declared ranges, reached or not: two groups
    # are never enabled where validate proved them disjoint, nor two commands
    # of a module for an action whose pick it decided.
    try:
        vm = validate(parse(source))
    except ValidationError:
        reject()
    guards = [
        [
            (command.label, compile_expr(command.guard, vm.var_index, vm.constants))
            for command in module.commands
        ]
        for module in vm.model.modules
    ]
    for s in itertools.product(*(range(var.low, var.high + 1) for var in vm.variables)):
        enabled = sum(label is None and guard(s) for own in guards for label, guard in own)
        for action in [a for a, _ in vm.groups if a is not None]:
            fires = True
            for mi, own in enumerate(guards):
                hits = [label for label, guard in own if label == action and guard(s)]
                assert len(hits) < 2 or (mi, action) not in vm.decided_picks
                fires &= bool(hits) or all(label != action for label, _ in own)
            enabled += fires
        assert enabled < 2 or not vm.disjoint_groups


@st.composite
def wide_models(draw) -> str:
    """Model text: a step counter over [0..3] and one to four variables of
    random ranges, each set to drawn values at every step, so the four
    states hold drawn valuations. Field widths may be 0 (a range [0..0]),
    and the counter's 2 bits and the variables' may sum to exactly 64 or 65
    bits, the widest codes an array('Q') holds and the narrowest it does not.
    """
    total = draw(st.sampled_from([None, 64, 65]))
    if total is None:
        widths = draw(st.lists(st.integers(0, 64), min_size=1, max_size=4))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, total - 2), max_size=3)))
        widths = [b - a for a, b in zip([0, *cuts], [*cuts, total - 2])]
    ranges = []
    for width in widths:
        high = draw(st.integers(2 ** (width - 1), 2**width - 1)) if width else 0
        ranges.append((draw(st.integers(0, high)), high))
    valuations = [[draw(st.integers(low, high)) for low, high in ranges] for _ in range(4)]
    names = [f"v{k}" for k in range(len(ranges))]
    lines = ["dtmc", "module m", "  step : [0..3] init 0;"]
    lines += [
        f"  {v} : [{low}..{high}] init {value};"
        for v, (low, high), value in zip(names, ranges, valuations[0])
    ]
    for step, values in enumerate(valuations[1:]):
        sets = "".join(f" & ({v}'={value})" for v, value in zip(names, values))
        lines.append(f"  [] step={step} -> (step'={step + 1}){sets};")
    lines.append("endmodule")
    # Label tests at a drawn value of each variable, and a disjunction.
    k = draw(st.integers(0, len(names) - 1))
    pivot = draw(st.sampled_from([values[k] for values in valuations]))
    lines.append(f'label "at" = {names[k]}={pivot};')
    lines.append(f'label "above" = {names[k]}>{pivot} | step=3;')
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(wide_models())
def test_codes_round_trip_through_the_layout(source):
    vm = validate(parse(source))
    states, expected = reference_build(vm)
    dtmc = build(vm)
    assert dtmc.export_text() == expected.export_text()
    assert list(dtmc.codes) == list(expected.codes)
    assert isinstance(dtmc.codes, array) == (dtmc.layout.width <= 64)
    assert list(dtmc.iter_states()) == states
    for i, values in enumerate(states):
        assert dtmc.state(i) == values
        assert dtmc.describe_state(i) == ", ".join(
            f"{var.name}={value}" for var, value in zip(vm.variables, values)
        )
    for name, expr in dtmc.labels.items():
        holds = compile_expr(expr, vm.var_index, vm.constants)
        assert dtmc.states_where(expr) == {i for i, values in enumerate(states) if holds(values)}


@st.composite
def phased_models(draw, measure: bool = False) -> str:
    """Model text in the style of `small_models`, with a location variable.

    Module m0 owns a phase p over [0..P-1] and a variable x. It has one or
    two commands for phase 0 and for each of some other phases, on the
    phase's action; each tests p, may test x or y, and sets p to a drawn
    constant (now and then one past its range) and perhaps x. An optional module m1 with y joins
    some actions with one or two commands, so that rows with two picking
    modules occur. The label "goal" tests one variable, so the others are
    dead where no later step reads them, and a value assigned to a dead
    variable may leave its range.

    With `measure`, m0 also owns r over [0..R], and its commands hold only
    where r<R. An update that enters a phase with commands leaves r as it
    is or raises it by a drawn constant, 0 to 2 (so r may leave its range);
    one that enters a phase without commands, a sink, may set it to any
    value. Now and then an update lowers r elsewhere, so no measure is
    proven. The label may read r.
    """
    phases = draw(st.integers(2, 4))
    names = ["x", "y"][: draw(st.integers(1, 2))]
    highs = {var: draw(st.integers(1, 3)) for var in names}
    atom = st.builds(
        " & {}{}{}".format, st.sampled_from(names), st.sampled_from(["=", "!=", "<", ">="]),
        st.integers(0, 3),
    )
    extra = st.sampled_from(["", "", ""]) | atom

    def split(var: str) -> list[str]:
        # One command, or two that a bound on `var` keeps apart.
        if draw(st.sampled_from([True, True, False])):
            return [""]
        c = draw(st.integers(1, highs[var]))
        return [f" & {var}<{c}", f" & {var}>={c}"]

    def updates(var: str, phase: bool) -> str:
        values = st.sampled_from(
            [str(c) for c in range(highs[var] + 1)]
            + [*names, f"{var}+1", f"{var}-1", f"{highs[var]}-{var}"]
        )
        succ = st.sampled_from([*range(phases)] * 8 + [phases])
        parts = []
        for p in draw(st.sampled_from(_DISTRIBUTIONS)):
            at = draw(succ) if phase else None
            sets = [f"(p'={at})"] if phase else []
            sets += [f"({var}'={draw(values)})"] if draw(st.integers(0, 2)) or not phase else []
            if phase and measure:
                steps = ["", "", "(r'=r)", "(r'=r+1)", "(r'=1+r)", "(r'=r+2)"]
                lowered = [f"(r'={c})" for c in range(top + 1)] + ["(r'=r-1)"]
                sink = at not in actions
                step = draw(st.sampled_from(steps + lowered * sink + ["(r'=r-1)"] * breaks))
                sets += [step] if step else []
            parts.append(f"{p}:{'&'.join(sets)}")
        return " + ".join(parts)

    actions = [0, *sorted(draw(st.sets(st.integers(1, phases - 1))))]
    top = draw(st.integers(2, 4)) if measure else 0
    breaks = measure and draw(st.integers(0, 5)) == 0
    lines = [
        "dtmc",
        "module m0",
        f"  p : [0..{phases - 1}] init 0;",
        f"  x : [0..{highs['x']}] init {draw(st.integers(0, highs['x']))};",
    ]
    lines += [f"  r : [0..{top}] init {draw(st.integers(0, top))};"] if measure else []
    bounded = f" & r<{top}" if measure else ""
    for k in actions:
        for guard in split("x"):
            lines.append(f"  [a{k}] p={k}{guard}{bounded}{draw(extra)} -> {updates('x', True)};")
    lines.append("endmodule")
    if "y" in names:
        lines += ["module m1", f"  y : [0..{highs['y']}] init {draw(st.integers(0, highs['y']))};"]
        for k in draw(st.sets(st.sampled_from(actions))):
            for guard in split("y"):
                lines.append(f"  [a{k}] true{guard}{draw(extra)} -> {updates('y', False)};")
        lines.append("endmodule")
    var = draw(st.sampled_from(["p", "p", *names, *["r"] * measure]))
    lines.append(f'label "goal" = {var}={draw(st.integers(0, 1))};')
    return "\n".join(lines) + "\n"


# Two modules pick on [a0], so `_row` forms its row; y is dead at p=2.
_TWO_PICKERS = (
    "dtmc\nmodule m0\n  p : [0..2] init 0;\n  x : [0..1] init 0;\n"
    "  [a0] p=0 & x<1 -> 0.5:(p'=1)&(x'=1) + 0.5:(p'=2);\n  [a0] p=0 & x>=1 -> (p'=0);\n"
    "  [a1] p=1 -> (p'=0);\nendmodule\n"
    "module m1\n  y : [0..1] init 0;\n"
    "  [a0] true & y<1 -> 0.5:(y'=1) + 0.5:(y'=0);\n  [a0] true & y>=1 -> (y'=0);\nendmodule\n"
    'label "goal" = p=2;\n'
)


class TestReduction:
    """A reduced build (`build(vm, reduce=True)`) answers every label query
    as the full build does, and raises the same BuildError codes."""

    @settings(max_examples=200, deadline=None)
    @given(phased_models())
    # x is dead at p=1: its reset merges the two successors of p=0.
    @example(
        "dtmc\nmodule m0\n  p : [0..1] init 0;\n  x : [0..1] init 0;\n"
        "  [a0] p=0 -> 0.5:(p'=1)&(x'=0) + 0.5:(p'=1)&(x'=1);\n  [a1] p=1 -> (p'=1);\n"
        'endmodule\nlabel "goal" = p=1;\n'
    )
    @example(_TWO_PICKERS)
    def test_a_reduced_build_answers_as_the_full_one(self, source):
        try:
            vm = validate(parse(source))
        except ValidationError:
            reject()
        query = parse_property('P=? [ F "goal" ]')
        try:
            full = build(vm)
        except BuildError as error:
            with pytest.raises(BuildError) as info:
                build(vm, reduce=True)
            assert info.value.code == error.code
            return
        reduced = build(vm, reduce=True)
        assert reduced.state_count <= full.state_count
        expected = prob_until(full, query).probability
        assert math.isclose(prob_until(reduced, query).probability, expected, rel_tol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(phased_models())
    def test_the_generated_models_have_a_location(self, source):
        try:
            vm = validate(parse(source))
        except ValidationError:
            reject()
        if vm.dead_on_entry is None:
            # Only where no group can fire, as no valuation meets its guard.
            assert build(vm).state_count == 1
        else:
            assert vm.dead_on_entry[0] == "p"

    def test_the_bb84_resets_are_found(self):
        vm = validate(parse(generate(Bb84Params(photons=3))))
        location, dead = vm.dead_on_entry
        assert location == "phase"
        assert {"eve_bas", "eve_bit"} <= dead[4] & dead[5]
        assert {"ch_bas", "ch_bit"} <= dead[5] - dead[4]
        assert not {"phase", "detected"} & set().union(*dead.values())

    def test_a_model_without_a_location_builds_in_full(self):
        # The walk's guard does not pin x to one value.
        vm = validate(parse(
            "dtmc\nmodule walk\n  x : [0..4] init 2;\n"
            "  [] x>0 & x<4 -> 0.5:(x'=x+1) + 0.5:(x'=x-1);\nendmodule\n"
        ))
        assert vm.dead_on_entry is None
        assert build(vm, reduce=True).export_text() == build(vm).export_text()
        assert build(vm, reduce=True).reset == frozenset()

    def test_a_row_formed_at_run_time_resets_dead_variables(self):
        vm = validate(parse(_TWO_PICKERS))
        assert (2, 0, 1) in set(build(vm).iter_states())
        assert (2, 0, 1) not in set(build(vm, reduce=True).iter_states())

    def test_an_out_of_range_value_of_a_dead_variable_is_still_reported(self):
        # x is dead at p=1, which reads it nowhere; x+2 leaves [0..1].
        source = (
            "dtmc\nmodule m\n  p : [0..1] init 0;\n  x : [0..1] init 0;\n"
            "  [a] p=0 -> (p'=1)&(x'=x+2);\n  [b] p=1 -> (p'=1);\nendmodule\n"
            'label "goal" = p=1;\n'
        )
        vm = validate(parse(source))
        assert vm.dead_on_entry == ("p", {0: set(), 1: {"x"}})
        for reduce in (False, True):
            with pytest.raises(BuildError, match=r"sets x=2, outside \[0\.\.1\]") as info:
                build(vm, reduce=reduce)
            assert info.value.code == "BOUNDS"

    def test_an_expression_over_a_reset_variable_is_refused(self):
        vm = validate(parse(generate(Bb84Params(photons=3, eve_q=0.5))))
        reduced = build(vm, reduce=True)
        assert {"ch_bas", "eve_bit"} <= reduced.reset
        with pytest.raises(PropertyError) as info:
            prob_until(reduced, parse_property("P=? [ F (eve_bit=1) ]"))
        assert info.value.code == "RESET_READ"
        assert "eve_bit" in str(info.value)
        # A label, and an expression over variables never reset, are answered.
        full = build(vm)
        for prop in ('P=? [ F "detected" ]', "P=? [ F (detected=1 & phase=6) ]"):
            query = parse_property(prop)
            assert prob_until(reduced, query).probability == prob_until(full, query).probability
        assert prob_until(full, parse_property("P=? [ F (eve_bit=1) ]")).probability > 0



def _walk_source_digest(vm, reduce: bool) -> str:
    layout = explorer_module.Layout(vm.variables)
    source = explorer_module._walk_source(vm, layout, explorer_module._resets(vm, reduce))[0]
    return hashlib.sha256(source.encode()).hexdigest()


# The walk of perfbench's walk_cyclic model and of two golden models, as the
# generator wrote them before it learned the sweep-line: none has a measure.
PLAIN_WALKS = [
    (None, False, "9f5d79b91fb7238b4b8fe513385d5a962f3ffacbd541126c488018a088726a8f"),
    (None, True, "9f5d79b91fb7238b4b8fe513385d5a962f3ffacbd541126c488018a088726a8f"),
    ("channel_heavy_noise.pm", False,
     "6b450078858465ce317dfed2255396d77155356414af22ebd342e875ca830447"),
    ("channel_heavy_noise.pm", True,
     "f2853d30f2917a573904409824f5ec4beafbf4d67d0cc3a479abe153cffd258b"),
    ("eve_weak.pm", False, "06f28afa9c5a19326eee23e3bf9da3d09b7fdf8bc5b2e2a3e99c03be894b5da2"),
    ("eve_weak.pm", True, "cafb8d679655325f6afbb8f4e23a53e1b3b165f9a3130dbdc8b6aa625043ec90"),
]

_CYCLIC_WALK = (
    "dtmc\nmodule walk\n  x : [0..200] init 100;\n"
    "  [] x>0 & x<200 -> 0.5:(x'=x+1) + 0.5:(x'=x-1);\nendmodule\n"
    'label "win" = x=200;\n'
)

# r is the measure, y the location. (r, 2) steps back to (r, 1), found
# before it: a walk that dropped r's states while it visits (r, 2), the
# last state of r, would index (r, 1) a second time.
_CROSS_EDGE = (
    "dtmc\nmodule m\n  r : [0..2] init 0;\n  y : [0..2] init 0;\n"
    "  [] y=0 -> 0.5:(y'=1) + 0.5:(y'=2);\n  [] y=2 -> (y'=1);\n"
    "  [] y=1 & r<2 -> (y'=0)&(r'=r+1);\nendmodule\n"
)


def _assert_no_code_repeats(dtmc) -> None:
    assert len(set(dtmc.codes)) == len(dtmc.codes)


class TestSweepLine:
    """Where validation proved a progress measure, the build forgets the
    states no later row can reach, and makes the chain it makes without."""

    def test_the_bb84_walk_sweeps_by_the_photon_counter(self, monkeypatch):
        vm = validate(parse(generate(Bb84Params(photons=5, channel=HEAVY_NOISE_CHANNEL))))
        assert vm.progress == ("i", frozenset({6}))
        sources = walk_sources(monkeypatch)
        build(vm)
        assert "if si > until: until = _sweep(si)" in sources[0]

    @pytest.mark.parametrize("name, reduce, digest", PLAIN_WALKS)
    def test_a_model_without_a_measure_generates_the_plain_walk(
        self, golden, name, reduce, digest
    ):
        vm = validate(parse(golden(name) if name else _CYCLIC_WALK))
        assert vm.progress is None
        assert _walk_source_digest(vm, reduce) == digest

    def test_no_state_is_indexed_twice(self):
        vm = validate(parse(_CROSS_EDGE))
        assert vm.progress == ("r", frozenset())
        dtmc = build(vm)
        _assert_no_code_repeats(dtmc)
        assert dtmc.state_count == 9
        assert dtmc.export_text() == reference_build(vm)[1].export_text()

    def test_the_bookkeeping_grows_with_the_values_reached(self):
        # x is declared over 2**62 + 1 values and reaches 1,001 of them,
        # under the suite's 1 GiB address-space cap.
        vm = validate(parse(
            "dtmc\nmodule m\n  x : [0..4611686018427387904] init 0;\n"
            "  [] x<1000 -> 0.5:(x'=x+1) + 0.5:(x'=x);\nendmodule\n"
        ))
        assert vm.progress == ("x", frozenset())
        dtmc = build(vm)
        assert dtmc.state_count == 1001
        _assert_no_code_repeats(dtmc)
        assert dtmc.export_text() == reference_build(vm)[1].export_text()

    def test_a_wide_layout_keeps_its_codes_in_a_list(self):
        # 85 bits, past an array('Q') item; i is the measure.
        vm = validate(parse(
            "dtmc\nmodule m\n  i : [0..4] init 0;\n"
            "  x : [0..1099511627776] init 0;\n  y : [0..1099511627776] init 0;\n"
            "  [] i<4 -> 0.5:(i'=i+1)&(x'=1099511627776-x) + 0.5:(y'=1099511627775-y);\n"
            "endmodule\n"
        ))
        assert vm.progress == ("i", frozenset())
        dtmc = build(vm)
        assert dtmc.layout.width > 64 and isinstance(dtmc.codes, list)
        _assert_no_code_repeats(dtmc)
        assert dtmc.export_text() == reference_build(vm)[1].export_text()

    def test_past_the_column_limit_a_build_fails_with_a_typed_error(
        self, monkeypatch, tmp_path, capsys
    ):
        # "I" columns that hold items up to 3, as a real one holds them up
        # to 2**32 - 1: the fifth state overflows them.
        class Narrow(array):
            def append(self, item):
                if item > 3:
                    raise OverflowError("unsigned int is greater than maximum")
                super().append(item)

        def narrow(typecode, *args):
            return (Narrow if typecode == "I" else array)(typecode, *args)

        monkeypatch.setattr(explorer_module, "array", narrow)
        vm = validate(parse(_CROSS_EDGE))
        with pytest.raises(BuildError) as info:
            build(vm)
        assert info.value.code == "SIZE_LIMIT"
        path = tmp_path / "m.pm"
        path.write_text(_CROSS_EDGE)
        assert cli.main(["check", "--model", str(path), "--prop", "P=? [ F (r=2) ]"]) == 2
        assert "the most its 4-byte columns hold" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(phased_models(measure=True))
    @example(_CROSS_EDGE)
    def test_a_swept_build_is_the_build(self, source):
        # The chain is the reference explorer's, its reduced chain answers
        # every label as the full one, and no build indexes a code twice. A
        # model whose proof fails generates the walk without the sweep.
        try:
            vm = validate(parse(source))
        except ValidationError:
            reject()
        swept = "_sweep" in explorer_module._walk_source(
            vm, explorer_module.Layout(vm.variables), None
        )[0]
        assert swept == (vm.progress is not None)
        try:
            _, expected = reference_build(vm)
        except BuildError as error:
            for reduce in (False, True):
                with pytest.raises(BuildError) as info:
                    build(vm, reduce=reduce)
                assert info.value.code == error.code
            return
        full, reduced = build(vm), build(vm, reduce=True)
        assert full.export_text() == expected.export_text()
        for dtmc in (full, reduced):
            _assert_no_code_repeats(dtmc)
        for label in dtmc.labels:
            query = parse_property(f'P=? [ F "{label}" ]')
            expected_probability = prob_until(full, query).probability
            assert math.isclose(
                prob_until(reduced, query).probability, expected_probability, rel_tol=1e-15
            )
