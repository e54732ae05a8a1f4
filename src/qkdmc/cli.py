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

import argparse
import codecs
import contextlib
import ctypes
import functools
import io
import os
import re
import stat
import sys
from pathlib import Path
from typing import Callable, NoReturn

from qkdmc import solver, sweep
from qkdmc.bb84 import Bb84Params, Passthrough, detected_event_definition, generate, variable_schema
from qkdmc.errors import AcceptanceViolation, ParseError, QkdmcError
from qkdmc.explorer import build
from qkdmc.lang import parse, print_expr, validate
from qkdmc.properties import parse_property
from qkdmc.sweep import SweepSpec, format_probability


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so `main` reports them as exit 1."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _parse_channel(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--channel needs 4 comma-separated probabilities, got {len(parts)}")
    try:
        values = tuple(float(part) for part in parts)
    except ValueError:
        raise ValueError(f"--channel has a non-numeric component in '{text}'") from None
    return values  # type: ignore[return-value]


# Photon counts are ASCII digits, as numbers are in the model language: `\d`
# would take any Unicode digit, and int() alone also takes "+3" and "1_0".
_COUNT = "([0-9]+)"
_RANGE = re.compile(rf"{_COUNT}(?:\.\.{_COUNT}(?::{_COUNT})?)?")


def _parse_count(text: str) -> int:
    if re.fullmatch(_COUNT, text) is None:
        raise ValueError(f"--photons expects N, got '{text}'")
    return int(text)


def _parse_range(text: str) -> tuple[int, int, int]:
    match = _RANGE.fullmatch(text)
    if match is None:
        raise ValueError(f"--photons expects N or A..B[:STEP], got '{text}'")
    start, stop, step = match.groups()
    return int(start), int(stop or start), int(step or 1)


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


def _model_options(args: argparse.Namespace) -> dict:
    """The BB84 parameters that `bb84` and `sweep` share, as keyword arguments."""
    return {"channel": _parse_channel(args.channel), "eve_q": args.eve_q, "bias": args.bias,
            "passthrough": Passthrough(args.passthrough)}


def check(args: argparse.Namespace) -> None:
    """Compute a P=? property on a model file."""
    # A malformed property fails before the model is read and built.
    query = parse_property(args.prop)
    dtmc = build(validate(parse(_read_model(args.model))))
    report = solver.prob_until(dtmc, query)
    # One write: a reader that stops after the first line cannot break the pipe.
    print(f"{format_probability(report.probability)}\n"
          f"states {dtmc.state_count}\n"
          f"transitions {dtmc.transition_count}\n"
          f"deadlocks {len(dtmc.deadlocks)}\n"
          f"iterations {report.iterations}\n"
          f"residual {report.residual:.3e}\n"
          f"prob0 {report.prob0_count}\n"
          f"prob1 {report.prob1_count}\n", end="")


def bb84(args: argparse.Namespace) -> None:
    """Generate a BB84 intercept-resend model file."""
    params = Bb84Params(photons=_parse_count(args.photons), **_model_options(args))
    _write(args.emit, generate(params))
    print(f"wrote {args.emit}")
    print(
        f"photons={params.photons} channel={params.channel} eve_q={params.eve_q} "
        f"bias={params.bias} passthrough={params.passthrough.value}"
    )
    print("variables:")
    for name, low, high, role in variable_schema(params):
        print(f"  {name:<9} [{low}..{high}]  {role}")
    print(f'label "detected" = {print_expr(detected_event_definition())}')


def sweep_cmd(args: argparse.Namespace) -> None:
    """Sweep the photon count and write one CSV row per point."""
    start, stop, step = _parse_range(args.photons)
    spec = SweepSpec(n_start=start, n_stop=stop, n_step=step, oracle_check=args.oracle_check,
                     **_model_options(args))
    rows = sweep.run_sweep(spec)
    _write(args.out, _csv_text(rows, include_timing=not args.no_timing))
    print(f"wrote {args.out} ({len(rows)} rows)")


def figure(args: argparse.Namespace) -> None:
    """Reproduce a three-curve figure and check the curve ordering."""
    result = sweep.run_figure(args.name, oracle_check=args.oracle_check)
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for curve, rows in result.curves:
        path = directory / f"{args.name}_{curve.key}.csv"
        _write(path, _csv_text(list(rows), include_timing=not args.no_timing))
        print(f"wrote {path}")
    report = sweep.figure_report(result)
    report_path = directory / f"{args.name}_report.txt"
    _write(report_path, report)
    print(f"wrote {report_path}")
    print(report, end="")
    if not result.ok:
        raise AcceptanceViolation(
            f"{len(result.violations)} ordering violation(s); see {report_path}"
        )


# Built on first use, not at import, and kept: a build costs about twenty parses.
@functools.cache
def _parser() -> _Parser:
    bb84_options = _Parser(add_help=False)
    add = bb84_options.add_argument
    add("--channel", default="1,0,0,0", help="Noise 4-vector p00,p10,p01,p11 (keep / flip "
        "basis / flip bit / flip both); default %(default)s.")
    add("--eve-q", type=float, default=1.0,
        help="Per-photon interception probability; default %(default)s.")
    add("--bias", type=float, default=0.5,
        help="Probability that Alice's data bit is 1; default %(default)s.")
    add("--passthrough", choices=("channel", "source"), default="channel",
        help="What Eve forwards when she does not intercept; default %(default)s.")
    csv_options = _Parser(add_help=False)
    add = csv_options.add_argument
    add("--oracle-check", action="store_true",
        help="Fail (exit 4) if any row drifts from the analytic value by > 1e-9.")
    add("--no-timing", action="store_true",
        help="Omit the wall_ms column for byte-identical reruns.")

    # allow_abbrev=False: `--mod` is an unknown option, not `--model`.
    parser = _Parser(prog="qkdmc", allow_abbrev=False,
                     description="Explicit-state DTMC workbench for BB84 eavesdropping analysis.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], None],
                *parents: _Parser) -> Callable[..., argparse.Action]:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  parents=parents, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    add = command("check", check)
    add("--model", required=True, help="Model file to analyze.")
    add("--prop", required=True, help="Property, e.g. 'P=? [ F \"detected\" ]'.")
    add = command("bb84", bb84, bb84_options)
    add("--photons", required=True, help="Number of photons n.")
    add("--emit", required=True, help="Where to write the model.")
    add = command("sweep", sweep_cmd, bb84_options, csv_options)
    add("--photons", required=True, help="Photon range A..B[:STEP] (or a single N).")
    add("--out", required=True, help="CSV output path.")
    add = command("figure", figure, csv_options)
    add("--name", required=True, choices=sorted(sweep.FIGURES), help="Which figure to reproduce.")
    add("--out", required=True, help="Directory for curve CSVs and the report.")
    return parser


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
        args = _parser().parse_args(argv)
        args.run(args)
        return 0
    except SystemExit as exc:  # --help
        return exc.code
    except ValueError as exc:
        message, code = exc, 1
    except AcceptanceViolation as exc:
        message, code = exc, 4
    except (QkdmcError, OSError) as exc:
        message, code = exc, 2
    except MemoryError:
        message, code = "out of memory: the model is too large to build or solve here", 2
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
