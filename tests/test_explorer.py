"""Reachability exploration: synchronization, determinism, state counts.

State counts for the generated protocol models are crosschecked against
tests/_machine.py, an abstract enumerator that shares no code with the
language front end or the builder.
"""

import hashlib
import gc
import importlib
import itertools
import tracemalloc

import pytest

import _machine
from qkdmc.bb84 import Bb84Params, Passthrough, generate, model_ast
from qkdmc.errors import BuildError
from qkdmc.explorer import build, record_struct
from qkdmc.lang import parse, print_expr, validate
from qkdmc.sweep import HEAVY_NOISE_CHANNEL

# The package re-exports the validate function under the module's own name.
validate_module = importlib.import_module("qkdmc.lang.validate")


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
        monkeypatch.setattr(validate_module, "_check_overlaps", lambda *args: None)
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
        assert first.records == second.records
        assert first.row_starts == second.row_starts
        assert first.targets == second.targets
        assert first.probs == second.probs


# Each variable's high sits on one side of a field-width edge: 1, 2, 4 and
# 8 unsigned bytes.
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
        assert record_struct(dtmc.variables).format == "<BHHIIQQ"
        assert len(dtmc.records) == 3 * 29
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
        assert list(dtmc.iter_states()) == [()]
        assert dtmc.state(0) == ()
        assert dtmc.row(0) == ((0, 1.0),)

    PARAMS = Bb84Params(photons=70, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5)

    @staticmethod
    def retained_per_transition(vm) -> float:
        # The collector stays off during the build and nothing is collected
        # after it, so whatever a reference cycle keeps alive counts too.
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dtmc = build(vm)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        return retained / dtmc.transition_count

    def test_retained_size_per_transition(self):
        # Flat columns cost 16 bytes per transition plus a row start and a
        # record per state; a tuple per transition alone would cost 56.
        assert self.retained_per_transition(validate(model_ast(self.PARAMS))) <= 48

    def test_a_label_on_every_state_costs_no_size(self):
        # A label is kept as its definition, not as a set of its states.
        vm = validate(parse(generate(self.PARAMS) + 'label "all" = i>=0;\n'))
        assert self.retained_per_transition(vm) <= 48


def protocol_dtmc(**kwargs):
    return build(validate(model_ast(Bb84Params(**kwargs))))


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


def _digest(dtmc) -> str:
    return hashlib.sha256(dtmc.export_text().encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
    def test_golden_model_export(self, golden, name):
        assert _digest(explore(golden(name))) == EXPORT_DIGESTS[name]

    @pytest.mark.parametrize("params, digest", PROTOCOL_DIGESTS)
    def test_protocol_model_export(self, params, digest):
        assert _digest(build(validate(model_ast(params)))) == digest


class TestScale:
    @pytest.mark.parametrize("branching", [2, 0])
    def test_many_modules_on_one_action(self, branching):
        # The first `branching` modules branch; the others move
        # deterministically. CPython 3.11 compiles one expression
        # p0 * p1 * ... of at most 2,986 factors (at the top of the stack),
        # so the generated function must not multiply the group's 3,000
        # probabilities in one expression, with or without a loop.
        modules = [
            f"module m{k}\n  x{k} : [0..1] init 0;\n"
            f"  [go] x{k}=0 -> "
            + (f"0.5:(x{k}'=1) + 0.5:(x{k}'=0)" if k < branching else f"(x{k}'=1)")
            + ";\nendmodule\n"
            for k in range(3000)
        ]
        dtmc = explore("dtmc\n" + "".join(modules))
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
