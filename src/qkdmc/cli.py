"""Command-line front end.

Subcommands: check (one model, one property), bb84 (emit a model file),
sweep (CSV over a photon range), figure (the two three-curve experiments
with an ordering report).

Exit codes: 0 success, 1 usage or parameter error, 2 parse/validate/build
or I/O error, 4 acceptance violation (curve ordering or oracle
disagreement). Code 3 (solver non-convergence) is no longer produced: the
solver is exact and has nothing to converge.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click

from qkdmc import solver, sweep
from qkdmc.bb84 import Bb84Params, Passthrough, detected_event_definition, generate, variable_schema
from qkdmc.errors import AcceptanceViolation, QkdmcError
from qkdmc.explorer import build
from qkdmc.lang import parse, print_expr, validate
from qkdmc.properties import parse_property
from qkdmc.sweep import SweepSpec, format_probability


@click.group()
def cli() -> None:
    """Explicit-state DTMC workbench for BB84 eavesdropping analysis."""


def _parse_channel(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise click.UsageError(f"--channel needs 4 comma-separated probabilities, got {len(parts)}")
    try:
        values = tuple(float(part) for part in parts)
    except ValueError:
        raise click.UsageError(f"--channel has a non-numeric component in '{text}'") from None
    return values  # type: ignore[return-value]


_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+)(?::(\d+))?)?$")


def _parse_range(text: str) -> tuple[int, int, int]:
    match = _RANGE.match(text)
    if match is None:
        raise click.UsageError(f"--photons expects N or A..B[:STEP], got '{text}'")
    start = int(match.group(1))
    stop = int(match.group(2)) if match.group(2) is not None else start
    step = int(match.group(3)) if match.group(3) is not None else 1
    return start, stop, step


def _read_model(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


channel_option = click.option(
    "--channel", "channel_text", default="1,0,0,0", show_default=True,
    help="Noise 4-vector p00,p10,p01,p11 (keep / flip basis / flip bit / flip both).",
)
eve_q_option = click.option(
    "--eve-q", default=1.0, show_default=True, help="Per-photon interception probability."
)
bias_option = click.option(
    "--bias", default=0.5, show_default=True, help="Probability that Alice's data bit is 1."
)
passthrough_option = click.option(
    "--passthrough", type=click.Choice(["channel", "source"]), default="channel",
    show_default=True, help="What Eve forwards when she does not intercept.",
)


@cli.command()
@click.option("--model", "model_path", required=True, help="Model file to analyze.")
@click.option("--prop", "prop_text", required=True,
              help="Property, e.g. 'P=? [ F \"detected\" ]'.")
def check(model_path: str, prop_text: str) -> None:
    """Compute a P=? property on a model file."""
    dtmc = build(validate(parse(_read_model(model_path))))
    report = solver.prob_until(dtmc, parse_property(prop_text))
    click.echo(format_probability(report.probability))
    click.echo(f"states {dtmc.state_count}")
    click.echo(f"transitions {dtmc.transition_count}")
    click.echo(f"deadlocks {len(dtmc.deadlocks)}")
    click.echo(f"iterations {report.iterations}")
    click.echo(f"residual {report.residual:.3e}")
    click.echo(f"prob0 {report.prob0_count}")
    click.echo(f"prob1 {report.prob1_count}")


@cli.command()
@click.option("--photons", required=True, type=int, help="Number of photons n.")
@channel_option
@eve_q_option
@bias_option
@passthrough_option
@click.option("--emit", "emit_path", required=True, help="Where to write the model.")
def bb84(photons: int, channel_text: str, eve_q: float, bias: float,
         passthrough: str, emit_path: str) -> None:
    """Generate a BB84 intercept-resend model file."""
    params = Bb84Params(
        photons=photons,
        channel=_parse_channel(channel_text),
        eve_q=eve_q,
        bias=bias,
        passthrough=Passthrough(passthrough),
    )
    source = generate(params)
    with open(emit_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(source)
    click.echo(f"wrote {emit_path}")
    click.echo(
        f"photons={params.photons} channel={params.channel} eve_q={params.eve_q} "
        f"bias={params.bias} passthrough={params.passthrough.value}"
    )
    click.echo("variables:")
    for name, low, high, role in variable_schema(params):
        click.echo(f"  {name:<9} [{low}..{high}]  {role}")
    click.echo(f'label "detected" = {print_expr(detected_event_definition())}')


@cli.command("sweep")
@click.option("--photons", "photons_text", required=True,
              help="Photon range A..B[:STEP] (or a single N).")
@channel_option
@eve_q_option
@bias_option
@passthrough_option
@click.option("--oracle-check", is_flag=True,
              help="Fail (exit 4) if any row drifts from the analytic value by > 1e-9.")
@click.option("--out", "out_path", required=True, help="CSV output path.")
@click.option("--no-timing", is_flag=True,
              help="Omit the wall_ms column for byte-identical reruns.")
def sweep_cmd(photons_text: str, channel_text: str, eve_q: float, bias: float,
              passthrough: str, oracle_check: bool, out_path: str, no_timing: bool) -> None:
    """Sweep the photon count and write one CSV row per point."""
    start, stop, step = _parse_range(photons_text)
    spec = SweepSpec(
        n_start=start,
        n_stop=stop,
        n_step=step,
        channel=_parse_channel(channel_text),
        eve_q=eve_q,
        bias=bias,
        passthrough=Passthrough(passthrough),
        oracle_check=oracle_check,
    )
    rows = sweep.run_sweep(spec)
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        sweep.write_csv(rows, handle, include_timing=not no_timing)
    click.echo(f"wrote {out_path} ({len(rows)} rows)")


@cli.command()
@click.option("--name", "figure_name", required=True, type=click.Choice(sorted(sweep.FIGURES)),
              help="Which figure to reproduce.")
@click.option("--out", "out_dir", required=True, help="Directory for curve CSVs and the report.")
@click.option("--oracle-check", is_flag=True,
              help="Fail (exit 4) if any row drifts from the analytic value by > 1e-9.")
@click.option("--no-timing", is_flag=True,
              help="Omit the wall_ms column for byte-identical reruns.")
def figure(figure_name: str, out_dir: str, oracle_check: bool, no_timing: bool) -> None:
    """Reproduce a three-curve figure and check the curve ordering."""
    result = sweep.run_figure(figure_name, oracle_check=oracle_check)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for curve, rows in result.curves:
        path = directory / f"{figure_name}_{curve.key}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            sweep.write_csv(list(rows), handle, include_timing=not no_timing)
        click.echo(f"wrote {path}")
    report = sweep.figure_report(result)
    report_path = directory / f"{figure_name}_report.txt"
    with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report)
    click.echo(f"wrote {report_path}")
    click.echo(report, nl=False)
    if not result.ok:
        raise AcceptanceViolation(
            f"{len(result.violations)} ordering violation(s); see {report_path}"
        )


def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping exception classes to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except AcceptanceViolation as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except (QkdmcError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
