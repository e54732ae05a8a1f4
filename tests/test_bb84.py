"""Generated protocol models checked against the analytic enumeration."""

import hashlib
import itertools

import pytest

from qkdmc.bb84 import (
    Bb84Params,
    Passthrough,
    generate,
    variable_schema,
)
from qkdmc.explorer import build
from qkdmc.lang import parse, print_expr, validate
from qkdmc.oracle import detect_prob, per_photon_detect_prob
from qkdmc.properties import parse_property
from qkdmc.solver import prob_until

PERFECT = (1.0, 0.0, 0.0, 0.0)
LIGHT = (0.7, 0.1, 0.1, 0.1)
HEAVY = (0.4, 0.2, 0.2, 0.2)

DETECTED = parse_property('P=? [ F "detected" ]')
DONE = parse_property('P=? [ F "done" ]')


def checked_probability(params: Bb84Params, prop=DETECTED):
    dtmc = build(validate(parse(generate(params))))
    return prob_until(dtmc, prop), dtmc


class TestAgainstOracle:
    @pytest.mark.parametrize("channel", [PERFECT, LIGHT, HEAVY])
    @pytest.mark.parametrize("q", [1.0, 0.5, 0.2])
    def test_single_photon_matches_the_enumeration(self, channel, q):
        params = Bb84Params(photons=1, channel=channel, eve_q=q)
        report, _ = checked_probability(params)
        assert report.probability == pytest.approx(
            per_photon_detect_prob(channel, q=q), abs=1e-12
        )

    @pytest.mark.parametrize("photons", [2, 5, 8])
    def test_multi_photon_matches_the_closed_form(self, photons):
        params = Bb84Params(photons=photons, channel=LIGHT, eve_q=0.5)
        report, _ = checked_probability(params)
        p1 = per_photon_detect_prob(LIGHT, q=0.5)
        assert p1 == pytest.approx(0.1375, abs=1e-15)
        assert report.probability == pytest.approx(detect_prob(photons, p1), abs=1e-12)
        assert report.probability == pytest.approx(1.0 - 0.8625**photons, abs=1e-12)

    def test_detected_and_done_split_the_outcome(self):
        params = Bb84Params(photons=4, channel=HEAVY, eve_q=0.5)
        detected, _ = checked_probability(params, DETECTED)
        done, _ = checked_probability(params, DONE)
        assert detected.probability + done.probability == pytest.approx(1.0, abs=1e-12)

    def test_solver_needs_very_few_sweeps(self):
        # the chain is acyclic, so the SCC-ordered pass settles it at once
        report, _ = checked_probability(Bb84Params(photons=5))
        assert report.iterations <= 3


class TestDegenerateParameters:
    def test_no_interception_on_a_perfect_channel_is_never_detected(self):
        report, dtmc = checked_probability(Bb84Params(photons=3, eve_q=0.0))
        assert report.probability == 0.0
        assert report.iterations == 0
        assert report.prob0_count == dtmc.state_count

    def test_bias_extremes_build_and_agree(self):
        for bias in (0.0, 1.0):
            report, _ = checked_probability(Bb84Params(photons=2, bias=bias))
            assert report.probability == pytest.approx(
                detect_prob(2, 0.125), abs=1e-12
            )

    def test_bias_does_not_affect_detection(self):
        values = []
        for bias in (0.1, 0.5, 0.9):
            report, _ = checked_probability(
                Bb84Params(photons=10, channel=LIGHT, eve_q=0.5, bias=bias)
            )
            values.append(report.probability)
        assert max(values) - min(values) <= 1e-12

    def test_detection_grows_with_the_photon_count(self):
        values = [
            checked_probability(Bb84Params(photons=n))[0].probability
            for n in range(1, 7)
        ]
        for left, right in zip(values, values[1:]):
            assert left < right


class TestPassthroughModes:
    def test_modes_coincide_on_a_perfect_channel(self):
        channel_mode, _ = checked_probability(Bb84Params(photons=3, eve_q=0.5))
        source_mode, _ = checked_probability(
            Bb84Params(photons=3, eve_q=0.5, passthrough=Passthrough.SOURCE_VALUES)
        )
        assert channel_mode.probability == pytest.approx(
            source_mode.probability, abs=1e-15
        )

    def test_source_mode_hides_channel_noise(self):
        kwargs = dict(photons=1, channel=LIGHT, eve_q=0.5)
        channel_mode, _ = checked_probability(Bb84Params(**kwargs))
        source_mode, _ = checked_probability(
            Bb84Params(**kwargs, passthrough=Passthrough.SOURCE_VALUES)
        )
        assert channel_mode.probability == pytest.approx(0.1375, abs=1e-12)
        assert source_mode.probability == pytest.approx(0.0875, abs=1e-12)


class TestGeneratedSource:
    def test_output_is_deterministic(self):
        params = Bb84Params(photons=7, channel=LIGHT, eve_q=0.2, bias=0.3)
        assert generate(params) == generate(params)

    def test_output_bytes_are_pinned(self):
        # sha256 of generate() over 1,200 parameter points: the model text
        # is pinned byte for byte.
        channels = [PERFECT, LIGHT, HEAVY, (0.5, 0.5, 0.0, 0.0), (0, 0, 1, 0), (0.1, 0.2, 0.3, 0.4)]
        digest = hashlib.sha256()
        for photons, channel, eve_q, bias, passthrough in itertools.product(
            (1, 2, 5, 70, 500), channels, (0, 0.2, 0.5, 1, 1 / 3), (0, 0.3, 0.5, 1), Passthrough
        ):
            params = Bb84Params(photons, channel, eve_q, bias, passthrough)
            digest.update(generate(params).encode())
        assert digest.hexdigest() == (
            "923fd2edfb81d8f6de42293e73723b67ad67a263c2f9f36b6c238a7b376273a9"
        )

    def test_output_parses_and_validates(self):
        source = generate(Bb84Params(photons=2, channel=HEAVY, eve_q=0.5))
        validate(parse(source))

    def test_module_roster(self):
        model = parse(generate(Bb84Params(photons=1)))
        assert [m.name for m in model.modules] == [
            "Alice", "QuantumChannel", "Eve", "Bob",
        ]

    def test_photon_count_constant(self):
        model = parse(generate(Bb84Params(photons=9)))
        const = next(c for c in model.constants if c.name == "n")
        assert print_expr(const.value) == "9"

    def test_event_labels_are_defined(self):
        model = parse(generate(Bb84Params(photons=1)))
        labels = {label.name: print_expr(label.expr) for label in model.labels}
        assert labels["detected"] == "detected=1"
        assert "phase=6" in labels["done"] and "detected=0" in labels["done"]

    def test_variable_schema_matches_the_declarations(self):
        params = Bb84Params(photons=6, eve_q=0.5)
        model = parse(generate(params))
        declared = [
            (var.name, var.low, var.high)
            for module in model.modules
            for var in module.variables
        ]
        schema = [(name, low, high) for name, low, high, _ in variable_schema(generate(params))]
        assert schema == declared

    def test_schema_roles_cover_every_party(self):
        roles = {role for _, _, _, role in variable_schema(generate(Bb84Params(photons=2)))}
        assert len(roles) >= 3


class TestParameterValidation:
    def test_photon_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Bb84Params(photons=0)

    @pytest.mark.parametrize("photons", [2.5, 3.0, True, "3"])
    def test_photon_count_must_be_an_int(self, photons):
        with pytest.raises(ValueError, match="photons must be an int"):
            Bb84Params(photons=photons)

    def test_channel_must_be_a_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            Bb84Params(photons=1, channel=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            Bb84Params(photons=1, channel=(1.5, -0.5, 0.0, 0.0))

    def test_channel_needs_four_probabilities(self):
        with pytest.raises(ValueError, match="channel needs 4 probabilities, got 3"):
            Bb84Params(photons=3, channel=(0.5, 0.5, 0.0))

    def test_unit_interval_parameters(self):
        with pytest.raises(ValueError):
            Bb84Params(photons=1, eve_q=1.1)
        with pytest.raises(ValueError):
            Bb84Params(photons=1, bias=-0.2)
