"""Sweep orchestration, CSV output, and the command-line surface.

CLI tests drive qkdmc.cli.main directly so exit codes are observed exactly
as the console script would return them.
"""

import codecs
import contextlib
import ctypes
import functools
import io
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qkdmc.sweep as sweep_module
from qkdmc import cli
from qkdmc.bb84 import Bb84Params, Passthrough, generate
from qkdmc.errors import AcceptanceViolation
from qkdmc.explorer import Dtmc, build
from qkdmc.lang import ast, parse, validate
from qkdmc.lang.parser import MAX_NESTING
from test_explorer import small_models
from test_validate import HUGE_RESIDUAL
from qkdmc.sweep import (
    HEAVY_NOISE_CHANNEL,
    LIGHT_NOISE_CHANNEL,
    FIGURES,
    SweepSpec,
    analyze,
    figure_report,
    format_probability,
    run_figure,
    run_sweep,
    write_csv,
)

class TestRunSweep:
    def test_rows_cover_the_range_in_order(self):
        rows = run_sweep(SweepSpec(2, 10, 2))
        assert [row.n for row in rows] == [2, 4, 6, 8, 10]

    def test_single_point_range(self):
        rows = run_sweep(SweepSpec(5, 5))
        assert len(rows) == 1 and rows[0].n == 5

    def test_oracle_check_passes_on_honest_rows(self):
        rows = run_sweep(SweepSpec(1, 4, channel=LIGHT_NOISE_CHANNEL, eve_q=0.5,
                                   oracle_check=True))
        assert all(row.abs_err <= 1e-9 for row in rows)

    def test_rows_carry_solver_health(self):
        (row,) = run_sweep(SweepSpec(3, 3))
        assert row.iterations >= 1
        assert row.wall_ms > 0.0
        assert row.abs_err == abs(row.p_checked - row.p_oracle)

    @pytest.mark.parametrize("passthrough", list(Passthrough))
    def test_curve_values_match_single_point_runs(self, passthrough):
        # n_stop = 12 is not itself a point: the model stops at the top row, 11.
        spec = SweepSpec(2, 12, 3, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5, bias=0.3,
                         passthrough=passthrough)
        rows = run_sweep(spec)
        assert [row.n for row in rows] == [2, 5, 8, 11]
        for row in rows:
            report, _ = analyze(Bb84Params(photons=row.n, channel=spec.channel,
                                           eve_q=spec.eve_q, bias=spec.bias,
                                           passthrough=passthrough))
            assert abs(row.p_checked - report.probability) <= 1e-15

    def test_single_photon_sweep(self):
        report, dtmc = analyze(Bb84Params(photons=1))
        (i_decl,) = [var for var in dtmc.variables if var.name == "i"]
        assert (i_decl.low, i_decl.high) == (0, 0)
        (row,) = run_sweep(SweepSpec(1, 1, oracle_check=True))
        assert row.n == 1
        assert row.p_checked == report.probability
        assert row.abs_err <= 1e-15

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(0, 5)
        with pytest.raises(ValueError):
            SweepSpec(5, 4)
        with pytest.raises(ValueError):
            SweepSpec(1, 5, 0)

    @pytest.mark.parametrize(
        "args, name", [((2.5, 4), "n_start"), ((2, 4.0), "n_stop"), ((2, 4, True), "n_step")]
    )
    def test_counts_must_be_ints(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            run_sweep(SweepSpec(*args))


class TestOneBuildPerCurve:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = sweep_module.build

        def counting(vm):
            calls.append(vm)
            return real(vm)

        monkeypatch.setattr(sweep_module, "build", counting)
        return calls

    def test_a_sweep_builds_once(self, builds):
        rows = run_sweep(SweepSpec(1, 9, 2))
        assert [row.n for row in rows] == [1, 3, 5, 7, 9]
        assert len(builds) == 1
        # iterations and wall_ms describe the curve's one analysis.
        assert len({(row.iterations, row.wall_ms) for row in rows}) == 1

    def test_a_sweep_builds_no_photon_beyond_its_top_row(self, monkeypatch):
        photons = []
        real = sweep_module.generate

        def recording(params):
            photons.append(params.photons)
            return real(params)

        monkeypatch.setattr(sweep_module, "generate", recording)
        rows = run_sweep(SweepSpec(2, 12, 3, oracle_check=True))
        assert [row.n for row in rows] == [2, 5, 8, 11]
        assert photons == [11]

    def test_a_figure_builds_once_per_curve(self, builds, monkeypatch):
        # medium_eve's model has weak_eve's shape, so its chain is weak_eve's
        # reweighted; full_eve (eve_q 1) drops Eve's pass-through branch and
        # is built.
        reweights = []
        real = Dtmc.reweight

        def counting(dtmc, vm):
            chain = real(dtmc, vm)
            reweights.append(chain)
            return chain

        monkeypatch.setattr(Dtmc, "reweight", counting)
        spec = FIGURES["fig2"]
        result = run_figure_with(type(spec)(spec.name, 3, 6, spec.curves))
        assert len(result.curves) == 3
        assert len(builds) == 2
        assert len(reweights) == 1


def _scanned_round_starts(dtmc: Dtmc, points: range) -> dict[int, int]:
    """The round starts as one `states_where` scan finds them: the states
    with every variable but i at its initial value, keyed by top - i."""
    i = dtmc.var_index["i"]
    initial = dtmc.state(dtmc.initial)
    tests = [
        ast.Binary("=", ast.Name(var.name), ast.IntLit(initial[k]))
        for k, var in enumerate(dtmc.variables)
        if k != i
    ]
    where = functools.reduce(lambda left, right: ast.Binary("&", left, right), tests)
    found = {points[-1] - dtmc.state(s)[i]: s for s in dtmc.states_where(where)}
    return {n: found[n] for n in points if n in found}


class TestReducedChain:
    """A sweep solves the reduced chain, which keeps every round start."""

    @pytest.mark.parametrize("passthrough", list(Passthrough))
    @pytest.mark.parametrize("curve", FIGURES["fig1"].curves, ids=lambda curve: curve.key)
    def test_every_round_start_survives_the_reduction(self, curve, passthrough):
        top = 6
        params = Bb84Params(top, curve.channel, curve.eve_q, passthrough=passthrough)
        vm = validate(parse(generate(params)))
        dtmc = sweep_module.build(vm)
        assert dtmc.reset and dtmc.state_count < build(vm).state_count
        states = set(dtmc.iter_states())
        i = dtmc.var_index["i"]
        for n in range(1, top + 1):
            start = list(vm.initial_state)
            start[i] = top - n
            assert tuple(start) in states

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_round_starts_are_the_scanned_ones(self, name):
        # Each curve's chain as `run_figure` makes it: built, or the last
        # curve's reweighted (same codes).
        spec = FIGURES[name]
        points = range(spec.n_start, spec.n_stop + 1)
        chain, reweighted = None, []
        for curve in spec.curves:
            _, dtmc = analyze(Bb84Params(points[-1], curve.channel, curve.eve_q), chain)
            reweighted.append(chain is not None and dtmc.codes is chain.codes)
            starts = sweep_module._round_starts(dtmc, points)
            assert starts == _scanned_round_starts(dtmc, points) and len(starts) == len(points)
            chain = dtmc
        assert reweighted.count(True) == 1

    @pytest.mark.parametrize(
        "photons, points",
        [
            (59, range(3, 62, 4)),  # n_start 3, n_step 4: top 59
            (2, range(3, 6)),  # a chain too short for some round starts
        ],
    )
    def test_sweep_round_starts_are_the_scanned_ones(self, photons, points):
        params = Bb84Params(photons, HEAVY_NOISE_CHANNEL, 0.3, 0.4)
        dtmc = sweep_module.build(validate(parse(generate(params))))
        starts = sweep_module._round_starts(dtmc, points)
        assert starts == _scanned_round_starts(dtmc, points)
        # A round start has i = top - n, and i is below the model's photons.
        assert starts.keys() == {n for n in points if points[-1] - n < photons}

    def test_a_missing_round_start_is_an_internal_error_naming_n(self, monkeypatch):
        # A chain of two photons for a sweep up to five: i never reaches 2.
        real = sweep_module.generate
        monkeypatch.setattr(sweep_module, "generate", lambda params: real(Bb84Params(2)))
        with pytest.raises(RuntimeError, match=r"^internal error: no round-start state for n=3 "):
            run_sweep(SweepSpec(3, 5))


class TestCsv:
    def make_csv(self, include_timing=True):
        rows = run_sweep(SweepSpec(1, 3))
        sink = io.StringIO()
        write_csv(rows, sink, include_timing=include_timing)
        return sink.getvalue()

    def test_header_and_row_shape(self):
        text = self.make_csv()
        lines = text.splitlines()
        assert lines[0] == "n,p_checked,p_oracle,abs_err,iterations,wall_ms"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert re.fullmatch(r"\d\.\d{12}", first[1])
        assert re.fullmatch(r"\d\.\d{3}e[+-]\d{2}", first[3])

    def test_newlines_are_unix(self):
        assert "\r" not in self.make_csv()

    def test_timing_column_can_be_dropped(self):
        text = self.make_csv(include_timing=False)
        lines = text.splitlines()
        assert lines[0] == "n,p_checked,p_oracle,abs_err,iterations"
        assert all(line.count(",") == 4 for line in lines)

    def test_probability_format_pads_to_twelve_digits(self):
        assert format_probability(0.125) == "0.125000000000"
        assert format_probability(0.487091064453125) == "0.487091064453"


class TestFigures:
    def test_known_figures(self):
        assert set(FIGURES) == {"fig1", "fig2"}
        assert [c.key for c in FIGURES["fig1"].curves] == [
            "perfect", "light_noise", "heavy_noise",
        ]
        assert [c.key for c in FIGURES["fig2"].curves] == [
            "weak_eve", "medium_eve", "full_eve",
        ]

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig9")

    def test_report_mentions_every_point(self):
        # short ranges keep this cheap; the full figures run in acceptance
        spec = FIGURES["fig1"]
        short = type(spec)(spec.name, 5, 8, spec.curves)
        result = run_figure_with(short)
        report = figure_report(result)
        for n in range(5, 9):
            assert f"n={n}:" in report
        assert "ordering holds at every point" in report


def run_figure_with(spec):
    original = sweep_module.FIGURES
    sweep_module.FIGURES = dict(original, probe=spec)
    try:
        return sweep_module.run_figure("probe")
    finally:
        sweep_module.FIGURES = original


class TestCliExitCodes:
    def test_check_success(self, tmp_path, capsys):
        model = tmp_path / "chain.pm"
        model.write_text(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n"
            "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=0);\nendmodule\n"
            'label "t" = x=1;\n',
            encoding="utf-8",
        )
        code = cli.main(["check", "--model", str(model), "--prop", 'P=? [ F "t" ]'])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "1.00000000000"
        assert "states 2" in out

    def test_malformed_property_fails_before_the_build(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "chain.pm"
        model.write_text(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        built = []
        monkeypatch.setattr(cli, "build", built.append)
        code = cli.main(["check", "--model", str(model), "--prop", 'P=? [ F "detected"'])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert built == []

    def test_running_out_of_memory_is_exit_2(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "chain.pm"
        model.write_text(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )

        def exhausted(vm):
            raise MemoryError

        monkeypatch.setattr(cli, "build", exhausted)
        code = cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: out of memory")

    @pytest.mark.parametrize(
        "decls, prop",
        [
            ("  x : [0..\u00b2] init 0;", "P=? [ F (x=1) ]"),
            ("  x : [0..\u0663] init 0;", "P=? [ F (x=1) ]"),
            ("  x : [0..1] init 0;", "P=? [ F (x=\u00b2) ]"),
        ],
        ids=["superscript_bound", "arabic_indic_bound", "superscript_in_property"],
    )
    def test_a_digit_that_is_not_ascii_is_exit_2(self, tmp_path, capsys, decls, prop):
        model = tmp_path / "digits.pm"
        model.write_text(
            f"dtmc\nmodule m\n{decls}\n  [] x=0 -> (x'=1);\nendmodule\n", encoding="utf-8"
        )
        assert cli.main(["check", "--model", str(model), "--prop", prop]) == 2
        assert "unexpected character" in capsys.readouterr().err

    def test_parse_failure_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "broken.pm"
        model.write_text("dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 (x'=1);\nendmodule\n",
                         encoding="utf-8")
        code = cli.main(["check", "--model", str(model), "--prop", 'P=? [ F "t" ]'])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_label_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "chain.pm"
        model.write_text(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        code = cli.main(["check", "--model", str(model), "--prop", 'P=? [ F "nope" ]'])
        assert code == 2
        assert "no label" in capsys.readouterr().err

    def test_nesting_past_the_limit_is_exit_2(self, tmp_path, capsys):
        deep = "(" * (MAX_NESTING + 1) + "x=0" + ")" * (MAX_NESTING + 1)
        model = tmp_path / "deep.pm"
        model.write_text(
            f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] {deep} -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "nested more than" in capsys.readouterr().err
        model.write_text(
            "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        assert cli.main(["check", "--model", str(model), "--prop", f"P=? [ F {deep} ]"]) == 2
        assert "nested more than" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "guard", [" & ".join(["x=0"] * 1500), "+".join(["x"] * 1500) + "=0"]
    )
    def test_long_operator_chain_is_exit_2(self, tmp_path, capsys, guard):
        model = tmp_path / "chain.pm"
        model.write_text(
            f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] {guard} -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "binary operators deep" in capsys.readouterr().err

    def test_overlong_integer_literal_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "big.pm"
        model.write_text(
            f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x={'9' * 5000} -> (x'=1);\nendmodule\n",
            encoding="utf-8",
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "integer literal of 5000 digits" in capsys.readouterr().err

    def test_infinite_int_constant_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "inf.pm"
        model.write_text(
            "dtmc\nconst int k = 1e999;\nmodule m\n  x : [0..1] init 0;\nendmodule\n",
            encoding="utf-8",
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "declared int but equals inf" in capsys.readouterr().err

    def test_variable_above_64_bits_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "wide.pm"
        model.write_text(
            f"dtmc\nmodule m\n  x : [0..{2**64}] init 0;\nendmodule\n", encoding="utf-8"
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "above 2**64 - 1" in capsys.readouterr().err

    def test_model_file_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "latin1.pm"
        model.write_bytes(b"dtmc\n// caf\xe9\nmodule m\n  x : [0..1] init 0;\nendmodule\n")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        err = capsys.readouterr().err
        assert "latin1.pm is not UTF-8" in err
        assert "byte 0xe9 at offset 11" in err

    def test_model_file_with_a_byte_order_mark_checks(self, tmp_path, capsys):
        model = tmp_path / "bom.pm"
        model.write_bytes(
            codecs.BOM_UTF8 + b"dtmc\nmodule m\n  x : [0..1] init 0;\n"
            b"  [] x=0 -> (x'=1);\nendmodule\n"
        )
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 0
        assert capsys.readouterr().out.startswith("1.00000000000\nstates 2\n")

    def test_bad_byte_after_a_byte_order_mark_reports_its_file_offset(self, tmp_path, capsys):
        model = tmp_path / "bom_latin1.pm"
        model.write_bytes(codecs.BOM_UTF8 + b"dtmc\n// caf\xe9\n")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "byte 0xe9 at offset 14" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\nlabel \"goal = x=1;\n",
                "5:7: unterminated string",
            ),
            (
                "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 @ -> (x'=1);\nendmodule\n",
                "4:10: unexpected character '@'",
            ),
            (
                "dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
                'label "g" = x=1;\nlabel "g" = x=0;\n',
                '6:1: duplicate label "g"',
            ),
            (
                "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (z'=1);\nendmodule\n",
                "4:13: unknown variable 'z' in assignment",
            ),
        ],
    )
    def test_front_end_errors_are_exit_2(self, tmp_path, capsys, source, message):
        model = tmp_path / "bad.pm"
        model.write_text(source, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_residual_overlap_over_a_huge_range_is_exit_2(self, tmp_path, capsys):
        # The validator leaves this pair to exploration, which rejects it.
        model = tmp_path / "huge.pm"
        model.write_text(HUGE_RESIDUAL, encoding="utf-8")
        assert cli.main(["check", "--model", str(model), "--prop", "P=? [ F (x=1) ]"]) == 2
        assert "both enabled in state (x=0)" in capsys.readouterr().err

    def test_missing_model_file_is_exit_2(self, tmp_path):
        code = cli.main(["check", "--model", str(tmp_path / "absent.pm"),
                         "--prop", 'P=? [ F "t" ]'])
        assert code == 2

    def test_usage_error_is_exit_1(self, tmp_path, capsys):
        emit, out = str(tmp_path / "x.pm"), str(tmp_path / "x.csv")
        for argv in (
            [],
            ["verify"],
            ["check", "--model"],
            # An abbreviation is refused, not taken for --model.
            ["check", "--mod", "x", "--prop", "y"],
            ["figure", "--name", "fig9", "--out", str(tmp_path)],
            ["sweep", "--photons", "2", "--eve-q", "abc", "--out", out],
            ["bb84", "--photons", "1", "--passthrough", "foo", "--emit", emit],
            ["bb84", "--photons", "1", "--channel", "1,0,0", "--emit", emit],
            # Photon counts are ASCII digits and nothing else.
            ["sweep", "--photons", "abc", "--out", out],
            ["sweep", "--photons", "\u0663..\u0665", "--out", out],
            ["sweep", "--photons", "+3", "--out", out],
            ["bb84", "--photons", "1_0", "--emit", emit],
            ["bb84", "--photons", "+3", "--emit", emit],
        ):
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "usage:" not in err
        assert list(tmp_path.iterdir()) == []

    def test_help_and_a_value_that_starts_with_a_dash(self, tmp_path, capsys, monkeypatch):
        documented = {
            "check": {"--model", "--prop"},
            "bb84": {"--photons", "--channel", "--eve-q", "--bias", "--passthrough", "--emit"},
            "sweep": {"--photons", "--channel", "--eve-q", "--bias", "--passthrough",
                      "--oracle-check", "--no-timing", "--out"},
            "figure": {"--name", "--out", "--oracle-check", "--no-timing"},
        }
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        for name, options in re.findall(r"^qkdmc (\w+)(.*)$", readme, re.MULTILINE):
            assert set(re.findall(r"--[a-z-]+", options)) <= documented[name]
        assert cli.main(["--help"]) == 0
        assert cli.main(["-h"]) == 0
        assert "{check,bb84,sweep,figure}" in capsys.readouterr().out
        for name, options in documented.items():
            assert cli.main([name, "--help"]) == 0
            usage = capsys.readouterr().out
            assert set(re.findall(r"--[a-z-]+", usage)) == options | {"--help"}, name
        # A value starting with "-" needs the --opt=value form.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["check", "--model=-x.pm", "--prop", 'P=? [ F "t" ]']) == 2
        assert "'-x.pm'" in capsys.readouterr().err

    def test_a_non_numeric_channel_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--photons", "2", "--channel", "a,b,c,d", "--out", str(out)]) == 1
        assert "non-numeric" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_parameter_value_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--photons", "1..3", "--eve-q", "1.5",
                         "--out", str(out)])
        assert code == 1
        assert "eve_q" in capsys.readouterr().err.lower().replace("-", "_")


class TestCliCommands:
    def test_bb84_emits_a_working_model(self, tmp_path, capsys):
        path = tmp_path / "model.pm"
        code = cli.main(["bb84", "--photons", "2", "--channel", "0.7,0.1,0.1,0.1",
                         "--eve-q", "0.5", "--emit", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "variables:" in out
        assert 'label "detected" = detected=1' in out
        check = cli.main(["check", "--model", str(path),
                          "--prop", 'P=? [ F "detected" ]'])
        assert check == 0

    def test_bb84_prints_the_pinned_summary(self, tmp_path, capsys):
        path = tmp_path / "model.pm"
        code = cli.main(["bb84", "--photons", "7", "--channel", "0.4,0.2,0.2,0.2",
                         "--eve-q", "0.3", "--bias", "0.4", "--passthrough", "source",
                         "--emit", str(path)])
        assert code == 0
        assert capsys.readouterr().out == (
            f"wrote {path}\n"
            "photons=7 channel=(0.4, 0.2, 0.2, 0.2) eve_q=0.3 bias=0.4 passthrough=source\n"
            "variables:\n"
            "  al_bas    [0..1]  Alice's basis choice\n"
            "  al_bit    [0..1]  Alice's data bit\n"
            "  phase     [0..6]  protocol phase (0 draw, 1 load, 2 eavesdrop, 3 resend, "
            "4 receive, 5 compare, 6 stopped)\n"
            "  ch_bas    [0..1]  basis of the photon on the channel\n"
            "  ch_bit    [0..1]  bit of the photon on the channel\n"
            "  i         [0..6]  zero-based index of the current photon\n"
            '  detected  [0..1]  disturbance flag; defines label "detected"\n'
            "  eve_bas   [0..1]  Eve's measurement basis\n"
            "  eve_bit   [0..1]  Eve's measured bit\n"
            "  bob_bas   [0..1]  Bob's measurement basis\n"
            "  bob_bit   [0..1]  Bob's measured bit\n"
            'label "detected" = detected=1\n'
        )

    def test_bb84_generates_the_model_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "generate", lambda params: calls.append(params) or generate(params))
        assert cli.main(["bb84", "--photons", "3", "--emit", str(tmp_path / "m.pm")]) == 0
        assert calls == [Bb84Params(3)]

    def test_sweep_writes_the_csv(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--photons", "1..5:2", "--oracle-check",
                         "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("n,p_checked")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3", "5"]

    def test_sweep_single_point_and_no_timing(self, tmp_path):
        out_path = tmp_path / "row.csv"
        code = cli.main(["sweep", "--photons", "4", "--no-timing",
                         "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,p_checked,p_oracle,abs_err,iterations"
        assert len(lines) == 2

    def test_an_existing_output_is_replaced_not_truncated(self, tmp_path):
        # A second name keeps the old file alive: it still holds the old
        # text, so the new text went to a new file.
        out_path = tmp_path / "row.csv"
        out_path.write_bytes(b"old\r\n")
        (tmp_path / "old.csv").hardlink_to(out_path)
        assert cli.main(["sweep", "--photons", "4", "--no-timing", "--out", str(out_path)]) == 0
        assert out_path.read_bytes().startswith(b"n,p_checked,p_oracle,abs_err,iterations\n")
        assert (tmp_path / "old.csv").read_bytes() == b"old\r\n"

    def test_a_symlinked_output_is_written_through(self, tmp_path):
        target = tmp_path / "target.pm"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.pm"
        link.symlink_to(target)
        assert cli.main(["bb84", "--photons", "1", "--emit", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8").startswith("// bb84 intercept-resend")

    def test_range_syntax(self):
        assert cli._parse_range("7") == (7, 7, 1)
        assert cli._parse_range("5..9") == (5, 9, 1)
        assert cli._parse_range("5..9:2") == (5, 9, 2)

    def test_figure_writes_curves_and_report(self, tmp_path, capsys, monkeypatch):
        spec = FIGURES["fig2"]
        short = type(spec)(spec.name, 3, 6, spec.curves)
        monkeypatch.setitem(sweep_module.FIGURES, "fig2", short)
        out_dir = tmp_path / "fig"
        code = cli.main(["figure", "--name", "fig2", "--out", str(out_dir),
                         "--oracle-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert (out_dir / "fig2_weak_eve.csv").exists()
        assert (out_dir / "fig2_medium_eve.csv").exists()
        assert (out_dir / "fig2_full_eve.csv").exists()
        report = (out_dir / "fig2_report.txt").read_text(encoding="utf-8")
        assert "ordering holds at every point" in report
        assert "ordering holds at every point" in out


    @pytest.mark.parametrize("command", ["check", "bb84", "sweep", "figure"])
    def test_each_command_prints_in_one_write(self, tmp_path, monkeypatch, command):
        # A reader that closes the pipe after the first line then finds
        # nothing left to write.
        class Stdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        model = tmp_path / "m.pm"
        model.write_text(generate(Bb84Params(photons=2)), encoding="utf-8")
        short = type(FIGURES["fig1"])("fig1", 2, 3, FIGURES["fig1"].curves)
        monkeypatch.setitem(sweep_module.FIGURES, "fig1", short)
        argv = {
            "check": ["--model", str(model), "--prop", 'P=? [ F "detected" ]'],
            "bb84": ["--photons", "2", "--emit", str(tmp_path / "out.pm")],
            "sweep": ["--photons", "2..3", "--out", str(tmp_path / "rows.csv")],
            "figure": ["--name", "fig1", "--out", str(tmp_path / "fig")],
        }[command]
        stdout = Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main([command, *argv]) == 0
        assert stdout.writes == 1
        assert stdout.getvalue().count("\n") >= (1 if command == "sweep" else 4)

    def test_the_mmap_threshold_is_pinned_once_per_process(self, tmp_path, capsys, monkeypatch):
        loads, load = [], ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda name: loads.append(name) or load(name))
        cli._pin_mmap_threshold.cache_clear()
        for _ in range(3):
            assert cli.main(["bb84", "--photons", "1", "--emit", str(tmp_path / "m.pm")]) == 0
        assert loads == [None]

    def test_figure_ordering_violation_is_exit_4(self, tmp_path, capsys, monkeypatch):
        spec = FIGURES["fig2"]
        reversed_curves = type(spec)(spec.name, 3, 4, spec.curves[::-1])
        monkeypatch.setitem(sweep_module.FIGURES, "fig2", reversed_curves)
        out_dir = tmp_path / "fig"
        assert cli.main(["figure", "--name", "fig2", "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert "4 ordering violation(s)" in captured.err
        assert "VIOLATIONS:\n  ordering violated at n=3:" in captured.out
        report = (out_dir / "fig2_report.txt").read_text(encoding="utf-8")
        assert "VIOLATIONS:\n  ordering violated at n=3:" in report
        for key in ("weak_eve", "medium_eve", "full_eve"):
            assert (out_dir / f"fig2_{key}.csv").exists()

    def test_oracle_disagreement_is_exit_4(self, tmp_path, capsys, monkeypatch):
        from qkdmc import oracle as oracle_module

        monkeypatch.setattr(oracle_module, "detect_prob", lambda n, p1: 0.5)
        out_path = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--photons", "2", "--oracle-check", "--out", str(out_path)])
        assert code == 4
        assert "oracle disagreement at n=2" in capsys.readouterr().err
        assert not out_path.exists()


# Tokens of the modeling language, and a few that are not, for random text.
_TOKENS = [
    "dtmc", "module", "endmodule", "const", "int", "double", "label", "init", "true", "false",
    "m", "x", "y", "k", '"t"', "[", "]", "(", ")", "..", ":", ";", "->", "'", "=", "!=", "<",
    "<=", ">", ">=", "+", "-", "*", "/", "&", "|", "!", "0", "1", "2", "3", "0.5", "1e-200",
    "1e999", "@", "\n", "//", "²", "٣", "\t", "\r\n", '"', "é", "x²",
]


def _mutated(source: str, edits: list[tuple[int, int, str]]) -> str:
    # Each edit cuts up to `cut` characters at a position and puts a token there.
    for at, cut, token in edits:
        at %= len(source) + 1
        source = f"{source[:at]} {token} {source[at + cut:]}"
    return source


_MODEL_TEXT = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=60).map(" ".join),
    small_models(),
    st.builds(
        _mutated,
        small_models(),
        st.lists(
            st.tuples(st.integers(0, 10**4), st.integers(0, 8), st.sampled_from(_TOKENS)),
            min_size=1,
            max_size=3,
        ),
    ),
    st.binary(max_size=80),
)
_PROPERTIES = ["P=? [ F (x=1) ]", 'P=? [ F "t" ]', "P=? [ (x<2) U (y=0) ]"]
# Every example is a model of at most a few dozen states, or no model.
FUZZ_SECONDS = 2.0


@settings(max_examples=300, deadline=None)
@given(_MODEL_TEXT, st.sampled_from(_PROPERTIES))
def test_random_model_text_exits_with_a_documented_code(text, prop):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        model = Path(directory) / "m.pm"
        if isinstance(text, bytes):
            model.write_bytes(text)
        else:
            model.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["check", "--model", str(model), "--prop", prop])
        elapsed = time.perf_counter() - started
    # With the model file present, check has no usage-error path (exit 1).
    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    assert elapsed < FUZZ_SECONDS


class TestOracleCheckFailure:
    def test_disagreement_raises_with_the_offending_n(self, monkeypatch):
        from qkdmc import oracle as oracle_module

        monkeypatch.setattr(oracle_module, "detect_prob", lambda n, p1: 0.5)
        with pytest.raises(AcceptanceViolation) as info:
            run_sweep(SweepSpec(2, 2, oracle_check=True))
        assert "n=2" in str(info.value)
