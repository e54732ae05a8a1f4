"""Acceptance gate: one test per shipping criterion.

Each criterion is a single test function; tests/conftest.py turns their
outcomes into one `ACCEPTANCE <number> <name>: PASS|FAIL` line per criterion
in the terminal summary. The two figure computations are shared between
criteria through module-scoped fixtures.
"""

import time

import pytest

from _qualitative import prob0_states
from qkdmc import cli
from qkdmc.bb84 import Bb84Params
from qkdmc.errors import ValidationError
from qkdmc.explorer import build
from qkdmc.lang import parse, print_model, validate
from qkdmc.oracle import detect_prob, per_photon_detect_prob
from qkdmc.properties import parse_property
from qkdmc.solver import prob_until
from qkdmc.sweep import (
    HEAVY_NOISE_CHANNEL,
    LIGHT_NOISE_CHANNEL,
    PERFECT_CHANNEL,
    analyze,
    run_figure,
)

CHANNELS = (PERFECT_CHANNEL, LIGHT_NOISE_CHANNEL, HEAVY_NOISE_CHANNEL)
EVE_POWERS = (1.0, 0.5, 0.2)

# per-photon detection probabilities with independently known closed forms
PINNED_P1 = {
    (PERFECT_CHANNEL, 1.0): 0.125,
    (LIGHT_NOISE_CHANNEL, 1.0): 0.175,
    (HEAVY_NOISE_CHANNEL, 1.0): 0.225,
    (PERFECT_CHANNEL, 0.5): 0.0625,
    (PERFECT_CHANNEL, 0.2): 0.025,
}


@pytest.fixture(scope="module")
def fig1():
    return run_figure("fig1")


@pytest.fixture(scope="module")
def fig2():
    return run_figure("fig2")


def curve_values(result, key):
    for curve, rows in result.curves:
        if curve.key == key:
            return [row.p_checked for row in rows]
    raise KeyError(key)


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    assert per_photon_detect_prob(PERFECT_CHANNEL, q=1.0) == 0.125
    for channel in CHANNELS:
        for q in EVE_POWERS:
            p1 = per_photon_detect_prob(channel, q=q)
            pinned = PINNED_P1.get((channel, q))
            if pinned is not None:
                assert p1 == pytest.approx(pinned, abs=1e-15)
            for n in (1, 2, 5, 10, 25, 50):
                params = Bb84Params(photons=n, channel=channel, eve_q=q)
                report, _ = analyze(params)
                assert abs(report.probability - detect_prob(n, p1)) <= 1e-9, (
                    f"channel={channel} q={q} n={n}"
                )
    assert time.perf_counter() - started < 60.0


def test_criterion_2_noise_ordering(fig1):
    assert fig1.violations == ()
    perfect = curve_values(fig1, "perfect")
    light = curve_values(fig1, "light_noise")
    heavy = curve_values(fig1, "heavy_noise")
    assert len(perfect) == 46  # n = 5..50
    for a, b, c in zip(perfect, light, heavy):
        assert a < b < c


def test_criterion_3_interception_ordering(fig2):
    assert fig2.violations == ()
    weak = curve_values(fig2, "weak_eve")
    medium = curve_values(fig2, "medium_eve")
    full = curve_values(fig2, "full_eve")
    assert len(weak) == 66  # n = 5..70
    for a, b, c in zip(weak, medium, full):
        assert a < b < c


def test_criterion_4_growth_towards_certainty(fig1, fig2):
    for result, keys in ((fig1, ("perfect", "light_noise", "heavy_noise")),
                         (fig2, ("weak_eve", "medium_eve", "full_eve"))):
        for key in keys:
            values = curve_values(result, key)
            for left, right in zip(values, values[1:]):
                assert left < right, f"curve {key} not strictly increasing"
    for key in ("perfect", "light_noise", "heavy_noise"):
        assert curve_values(fig1, key)[-1] >= 0.998
    weak_final = curve_values(fig2, "weak_eve")[-1]
    assert 0.82 <= weak_final <= 0.84


def test_criterion_5_no_interception_no_detection():
    for n in (1, 3, 10, 25):
        report, _ = analyze(Bb84Params(photons=n, eve_q=0.0))
        assert report.probability <= 1e-15


def test_criterion_6_bias_invariance():
    values = []
    for bias in (0.1, 0.5, 0.9):
        report, _ = analyze(Bb84Params(photons=10, bias=bias))
        values.append(report.probability)
    assert max(values) - min(values) <= 1e-12


def test_criterion_7_round_trip_and_validation(golden):
    transcribed = (
        "channel_perfect.pm",
        "channel_light_noise.pm",
        "channel_heavy_noise.pm",
        "eve_full.pm",
        "eve_weak.pm",
        "eve_medium.pm",
    )
    for name in transcribed:
        tree = parse(golden(name))
        assert parse(print_model(tree)) == tree, name
        validate(tree)
    malformed = (
        ("bad_prob_sum.pm", "PROB_SUM"),
        ("bad_overlap.pm", "OVERLAPPING_GUARDS"),
        ("bad_init_bounds.pm", "INIT_BOUNDS"),
    )
    for name, code in malformed:
        with pytest.raises(ValidationError) as info:
            validate(parse(golden(name)))
        assert info.value.code == code, name


def test_criterion_8_solver_sanity():
    chain = build(validate(parse(
        "dtmc\nmodule m\n  x : [0..2] init 0;\n"
        "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
        'label "t" = x=1;\n'
    )))
    query = parse_property('P=? [ F "t" ]')
    report = prob_until(chain, query)
    assert abs(report.probability - 0.3) <= 1e-12
    absorbing = {chain.state(i) for i in prob0_states(chain, query)}
    assert absorbing == {(2,)}

    loop = build(validate(parse(
        "dtmc\nmodule m\n  x : [0..1] init 0;\n"
        "  [] x=0 -> 0.5:(x'=0) + 0.5:(x'=1);\nendmodule\n"
        'label "t" = x=1;\n'
    )))
    report = prob_until(loop, parse_property('P=? [ F "t" ]'))
    assert abs(report.probability - 1.0) <= 1e-12


def test_criterion_9_performance(tmp_path):
    started = time.perf_counter()
    report, dtmc = analyze(Bb84Params(photons=70))
    single = time.perf_counter() - started
    assert single < 5.0
    assert report.probability == pytest.approx(detect_prob(70, 0.125), abs=1e-9)

    started = time.perf_counter()
    code = cli.main(["figure", "--name", "fig2", "--out", str(tmp_path),
                     "--oracle-check"])
    full_figure = time.perf_counter() - started
    assert code == 0
    assert (tmp_path / "fig2_report.txt").exists()
    assert full_figure < 120.0
