"""Reachability exploration: synchronization, determinism, state counts.

State counts for the generated protocol models are crosschecked against
tests/_machine.py, an abstract enumerator that shares no code with the
language front end or the builder.
"""

import pytest

import _machine
from qkdmc.bb84 import Bb84Params, Passthrough, model_ast
from qkdmc.errors import BuildError, QkdmcError
from qkdmc.explorer import build
from qkdmc.lang import parse, validate


def explore(source: str):
    return build(validate(parse(source)))


def transition(dtmc, src_state: tuple, dst_state: tuple) -> float:
    row = dict(dtmc.rows[dtmc.index_of(src_state)])
    return row.get(dtmc.index_of(dst_state), 0.0)


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
        assert dtmc.rows[1] == ((1, 1.0),)

    def test_module_without_commands_is_one_deadlocked_state(self):
        dtmc = explore("dtmc\nmodule m\n  x : [0..1] init 1;\nendmodule\n")
        assert dtmc.state_count == 1
        assert dtmc.deadlocks == frozenset({0})
        assert dtmc.rows[0] == ((0, 1.0),)

    def test_rows_are_sorted_and_merged(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=1);\nendmodule\n"
        )
        assert transition(dtmc, (0,), (1,)) == 1.0

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

    def test_update_leaving_the_range_is_reported(self):
        source = "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x<2 -> (x'=x+1);\nendmodule\n"
        with pytest.raises(BuildError) as info:
            explore(source)
        assert info.value.code == "BOUNDS"
        assert "sets x=2" in str(info.value)
        assert "(x=1)" in str(info.value)


class TestLabelsAndExport:
    def test_labels_are_evaluated_over_reachable_states(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
            'label "goal" = x=2;\n'
        )
        (goal_state,) = dtmc.labels["goal"]
        assert dtmc.states[goal_state] == (2,)

    def test_describe_state(self):
        dtmc = explore("dtmc\nmodule m\n  x : [0..2] init 2;\nendmodule\n")
        assert dtmc.describe_state(0) == "x=2"

    def test_index_of_finds_every_reachable_valuation(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
        )
        assert [dtmc.index_of(state) for state in dtmc.states] == [0, 1, 2]

    def test_index_of_an_unreachable_valuation_is_a_typed_error(self):
        dtmc = explore(
            "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
        )
        with pytest.raises(QkdmcError) as info:
            dtmc.index_of((3,))
        assert info.value.code == "NO_SUCH_STATE"
        assert "x=3" in str(info.value)

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
        assert first.states == second.states
        assert first.rows == second.rows


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
