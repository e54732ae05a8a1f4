"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qkdmc.cli  # noqa: E402
import qkdmc.explorer  # noqa: E402
import qkdmc.solver  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)


@pytest.mark.parametrize("name", ["bb84_n500", "walk_cyclic"])
def test_seed_changes_the_inputs(name):
    made = [workloads.make(name, seed) for seed in range(5)]
    assert len({(w.commands, tuple(w.inputs.items())) for w in made}) == 5


def test_fig2_ignores_the_seed():
    assert workloads.make("fig2_figure", 1) == workloads.make("fig2_figure", 2)
    assert len(workloads.make("fig2_figure", 1).references) == 198


@pytest.mark.parametrize("seed", range(20))
def test_bb84_draws_stay_in_their_ranges(seed):
    argv = workloads.make("bb84_n500", seed).commands[0]
    option = dict(zip(argv[1::2], argv[2::2]))
    channel = [float(part) for part in option["--channel"].split(",")]
    assert min(channel) >= 0.05
    assert math.fsum(channel) == pytest.approx(1.0, abs=1e-12)
    assert 0.2 <= float(option["--eve-q"]) <= 0.8
    assert 0.3 <= float(option["--bias"]) <= 0.7


@pytest.mark.parametrize("seed", range(20))
def test_walk_reference_is_the_closed_form(seed):
    workload = workloads.make("walk_cyclic", seed)
    start = int(workload.inputs["walk.pm"].split("init ")[1].split(";")[0])
    assert 50 <= start <= 150
    assert workload.references == (start / 200,)


def test_accurate_digits_saturates_at_twelve():
    assert workloads.accurate_digits(0.5, 0.5) == 12.0
    assert workloads.accurate_digits(0.5 + 1e-15, 0.5) == 12.0


def test_accurate_digits_reads_eight_for_the_walk_error():
    assert workloads.accurate_digits(0.5 - 4e-9, 0.5) == pytest.approx(8.1, abs=0.01)


def test_answers_beyond_the_failure_tolerance_fail():
    assert not workloads.answer_failed(0.5 + 9e-7, 0.5)
    assert workloads.answer_failed(0.5 + 2e-6, 0.5)
    assert workloads.answer_failed(None, 0.5)


def test_nonzero_exit_means_every_answer_is_missing(tmp_path):
    workload = workloads.make("walk_cyclic", 1)
    assert workloads.read_answers(workload, [2], ["0.5\n"], tmp_path) == [None]
    assert workloads.read_answers(workload, [0], ["0.500000000000\n"], tmp_path) == [0.5]


def test_fig2_answers_come_from_the_curve_csvs(tmp_path):
    workload = workloads.make("fig2_figure", 1)
    (tmp_path / "fig2").mkdir()
    for key, _ in workloads.FIG2_CURVES:
        rows = "".join(f"{n},0.25,0,0,2,1.0\n" for n in workloads.FIG2_PHOTONS if n != 9)
        (tmp_path / "fig2" / f"fig2_{key}.csv").write_text(
            "n,p_checked,p_oracle,abs_err,iterations,wall_ms\n" + rows
        )
    answers = workloads.read_answers(workload, [0], [""], tmp_path)
    assert len(answers) == 198
    assert answers.count(None) == 3
    assert set(answers) == {0.25, None}


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_is_duration_minus_union_of_children():
    recorded = [
        _span("cli.main", 0.0, 10.0),
        _span("lang.parse", 1.0, 4.0, 0),
        _span("lang.validate", 3.0, 6.0, 0),  # overlaps its sibling
        _span("explorer.build", 8.0, 12.0, 0),  # runs past its parent
        _span("properties.parse", 8.5, 9.0, 3),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 3.0, 3.0, 3.5, 0.5])


def test_self_times_of_nested_spans_add_up_to_the_root():
    recorded = [
        _span("cli.main", 0.0, 10.0),
        _span("sweep.run_figure", 1.0, 9.0, 0),
        _span("explorer.build", 2.0, 5.0, 1),
        _span("solver.prob_until", 5.0, 6.0, 1),
        _span("properties.resolve", 5.2, 5.3, 3),
    ]
    assert sum(spans.self_times(recorded)) == pytest.approx(10.0)


SMALL_MODEL = """dtmc
module walk
  x : [0..4] init 2;
  [] x>0 & x<4 -> 0.5:(x'=x+1) + 0.5:(x'=x-1);
endmodule
label "win" = x=4;
"""


def test_instrument_counts_stage_calls_and_restores_the_package(tmp_path):
    model = tmp_path / "small.pm"
    model.write_text(SMALL_MODEL)
    before = qkdmc.solver.prob_until
    tracer = spans.Tracer()
    with spans.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span("cli.main"):
            code = qkdmc.cli.main(["check", "--model", str(model), "--prop", 'P=? [ F "win" ]'])
    assert code == 0
    assert qkdmc.solver.prob_until is before
    assert qkdmc.cli.build is qkdmc.explorer.build
    layers = spans.layer_metrics(tracer.spans)
    assert set(layers) == set(spans.UNITS)
    assert layers["lang.parse_calls"] == 1
    assert layers["lang.source_bytes"] == len(SMALL_MODEL)
    assert layers["explorer.build_calls"] == 1
    assert layers["explorer.states"] == 5
    assert layers["explorer.transitions"] == 8
    assert layers["solver.calls"] == 1
    # Three transient states are updated on every sweep.
    assert layers["solver.state_updates"] == 3 * layers["solver.sweeps"]
    assert layers["bb84.generate_calls"] == 0
    assert layers["oracle.calls"] == 0
    counts = spans.call_counts(tracer.spans)
    assert counts["solver.prob_until"] == 1
    assert counts["sweep.run_figure"] == 0
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root.end - root.start)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert [m["name"] for m in spec["per_layer"]] == [*spans.UNITS, "trace.overhead_frac"]
    assert all(m["unit"] == spans.UNITS.get(m["name"], "ratio") for m in spec["per_layer"])
