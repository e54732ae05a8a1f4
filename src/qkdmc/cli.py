"""Command-line front end.

Subcommands: check (one model, one property), bb84 (emit a model file),
sweep (CSV over a photon range), figure (the two three-curve experiments
with an ordering report).

Exit codes: 0 success, 1 usage or parameter error, 2 parse/validate/build
error, I/O error or out of memory, 4 acceptance violation (curve ordering or
oracle disagreement). Code 3 (solver non-convergence) is no longer produced: the
solver is exact and has nothing to converge.
"""

from __future__ import annotations

import codecs
import contextlib
import ctypes
import io
import os
import re
import stat
import sys
from pathlib import Path

import click

from qkdmc import solver, sweep
from qkdmc.bb84 import Bb84Params, Passthrough, detected_event_definition, generate, variable_schema
from qkdmc.errors import AcceptanceViolation, ParseError, QkdmcError
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
    # utf-8-sig skips a leading byte order mark, as some editors write one.
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so exc.start is an offset
            # into it, counted from the end of the byte order mark if any.
            handle.buffer.seek(0)
            mark = len(codecs.BOM_UTF8) if handle.buffer.read(3) == codecs.BOM_UTF8 else 0
            raise ParseError(
                f"{path} is not UTF-8: byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start + mark}",
                code="ENCODING",
            ) from None


def _write(path: str | Path, text: str) -> None:
    """Write `text` to `path` with LF line endings, replacing what is there.

    An existing regular file is removed first, not truncated: on ext4 a
    truncating open of a file whose last contents are still being written
    back waits for that writeback, tens of milliseconds per file. A
    symlink, device or FIFO is left in place and opened as it is. The CLI
    never calls fsync, so removing first gives up no guarantee it makes. If
    the file cannot be removed, the open truncates it as before.
    """
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _csv_text(rows: list[sweep.ResultRow], include_timing: bool) -> str:
    buffer = io.StringIO()
    sweep.write_csv(rows, buffer, include_timing=include_timing)
    return buffer.getvalue()


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
    # A malformed property fails before the model is read and built.
    query = parse_property(prop_text)
    dtmc = build(validate(parse(_read_model(model_path))))
    report = solver.prob_until(dtmc, query)
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
    _write(emit_path, generate(params))
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
    _write(out_path, _csv_text(rows, include_timing=not no_timing))
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
        _write(path, _csv_text(list(rows), include_timing=not no_timing))
        click.echo(f"wrote {path}")
    report = sweep.figure_report(result)
    report_path = directory / f"{figure_name}_report.txt"
    _write(report_path, report)
    click.echo(f"wrote {report_path}")
    click.echo(report, nl=False)
    if not result.ok:
        raise AcceptanceViolation(
            f"{len(result.violations)} ordering violation(s); see {report_path}"
        )


# glibc raises its mmap threshold to the size of each mapped block it frees.
# Once the explorer's state index has resized a few times, the transition
# arrays and the state list then grow inside the heap, where whether realloc
# extends them in place depends on what else lies there: the peak memory of
# one build varied by up to 3 MiB with the probabilities printed in the
# model. Pinned at glibc's default, every block of 128 KiB or more stays
# mapped and grows by remapping, and the peak is the same from run to run.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024


def _pin_mmap_threshold() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # no glibc-style allocator to tune
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping exception classes to the documented exit codes."""
    _pin_mmap_threshold()
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
    except MemoryError:
        click.echo("error: out of memory: the model is too large to build or solve here", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
