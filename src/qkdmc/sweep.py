"""Sweep and figure machinery behind the CLI: one analysis per curve.

A curve runs the whole pipeline (generate, parse, validate, build, solve)
once, for its largest photon count; the solved vector holds every shorter
run at a round-start state. Each row carries the analytic value alongside
the checked one, so every CSV row doubles as an oracle cross-check. Figure
definitions hard-code the two three-curve experiments (channel noise at
full interception; interception power over a perfect channel).
"""

from __future__ import annotations

import functools
import time
from typing import IO

from qkdmc import explorer, oracle, solver
from qkdmc.bb84 import Bb84Params, Passthrough, check_count, generate
from qkdmc.errors import AcceptanceViolation, BuildError
from qkdmc.lang import ast, parse, validate
from qkdmc.properties import parse_property
from qkdmc.record import Record

ORACLE_TOL = 1e-9

PERFECT_CHANNEL = (1.0, 0.0, 0.0, 0.0)
LIGHT_NOISE_CHANNEL = (0.7, 0.1, 0.1, 0.1)
HEAVY_NOISE_CHANNEL = (0.4, 0.2, 0.2, 0.2)

EVE_WEAK = 0.2
EVE_MEDIUM = 0.5
EVE_FULL = 1.0

DETECTED_PROPERTY = 'P=? [ F "detected" ]'

# A sweep builds the reduced chain (see `explorer.build`): it queries a
# label only. Like `cli.build`, it takes the validated model alone.
build = functools.partial(explorer.build, reduce=True)


class SweepSpec(Record):
    """Inclusive photon range plus the per-photon parameters."""

    n_start: int
    n_stop: int
    n_step: int = 1
    channel: tuple[float, float, float, float] = PERFECT_CHANNEL
    eve_q: float = 1.0
    bias: float = 0.5
    passthrough: Passthrough = Passthrough.CHANNEL_OUTPUT
    oracle_check: bool = False

    def __post_init__(self) -> None:
        for name in ("n_start", "n_stop", "n_step"):
            check_count(name, getattr(self, name))
        if self.n_start < 1:
            raise ValueError(f"photon range must start at 1 or above, got {self.n_start}")
        if self.n_stop < self.n_start:
            raise ValueError(f"empty photon range {self.n_start}..{self.n_stop}")
        if self.n_step < 1:
            raise ValueError(f"step must be positive, got {self.n_step}")

    def points(self) -> range:
        return range(self.n_start, self.n_stop + 1, self.n_step)


class ResultRow(Record):
    n: int
    p_checked: float
    p_oracle: float
    abs_err: float
    iterations: int
    wall_ms: float


def analyze(
    params: Bb84Params, like: explorer.Dtmc | None = None
) -> tuple[solver.SolveReport, explorer.Dtmc]:
    """Full pipeline for one parameter set, querying the detection event on
    the reduced chain. Given a chain `like` of the model's shape (see
    `Dtmc.reweight`), the chain is `like` reweighted; otherwise, or if the
    shape differs, it is built."""
    vm = validate(parse(generate(params)))
    dtmc = None
    if like is not None:
        try:
            dtmc = like.reweight(vm)
        except BuildError as error:
            if error.code != "SHAPE":
                raise
    if dtmc is None:
        dtmc = build(vm)
    report = solver.prob_until(dtmc, parse_property(DETECTED_PROPERTY))
    return report, dtmc


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """One row per photon count, ordered by n, from one model for the top row.

    The model has as many photons as the range's last point, top. The
    round-start state with i = top - n (the initial valuation otherwise)
    has n photons left to send, so its solved value is P(n); one scan of
    the state codes finds every row's. The chain is reduced (see `analyze`);
    that state survives the reduction, as the compare step resets every
    other variable itself. A round start missing from the chain is an
    internal error, not a wrong row. Every row carries the curve's solver
    iteration count and the wall time of its one analysis. With
    oracle_check set, a row beyond the 1e-9 agreement tolerance raises
    AcceptanceViolation naming the offending n.
    """
    return _curve(spec, None)[0]


# A curve's chain, photon counts and {n: its round-start state}.
_Curve = tuple[explorer.Dtmc, range, dict[int, int]]


def _curve(spec: SweepSpec, last: _Curve | None) -> tuple[list[ResultRow], _Curve]:
    """`run_sweep`'s rows, and the curve to pass as `last` to the next one:
    where that one's model has this one's shape, its chain is this one
    reweighted, with the same codes, and over the same photon counts its
    round starts are this one's."""
    points = spec.points()
    top = points[-1]
    params = Bb84Params(
        photons=top,
        channel=spec.channel,
        eve_q=spec.eve_q,
        bias=spec.bias,
        passthrough=spec.passthrough,
    )
    started = time.perf_counter()
    report, dtmc = analyze(params, last and last[0])
    wall_ms = (time.perf_counter() - started) * 1000.0
    p1 = oracle.per_photon_detect_prob(spec.channel, spec.eve_q, spec.bias, spec.passthrough)
    if last is not None and last[0].codes is dtmc.codes and last[1] == points:
        starts = last[2]
    else:
        starts = _round_starts(dtmc, points)
    rows = []
    for n in points:
        if n not in starts:
            raise RuntimeError(f"internal error: no round-start state for n={n} in the chain")
        p_checked = report.values[starts[n]]
        p_oracle = oracle.detect_prob(n, p1)
        row = ResultRow(
            n=n,
            p_checked=p_checked,
            p_oracle=p_oracle,
            abs_err=abs(p_checked - p_oracle),
            iterations=report.iterations,
            wall_ms=wall_ms,
        )
        if spec.oracle_check and row.abs_err > ORACLE_TOL:
            raise AcceptanceViolation(
                f"oracle disagreement at n={n}: checked {row.p_checked!r} vs "
                f"analytic {row.p_oracle!r} (|diff| = {row.abs_err:.3e} > {ORACLE_TOL})"
            )
        rows.append(row)
    return rows, (dtmc, points, starts)


def _round_starts(dtmc: explorer.Dtmc, points: range) -> dict[int, int]:
    """{n: index of the round start with n photons left}, for each n of
    `points` whose round start is in the chain: the states with every
    variable but i at its initial value, found in one `states_where` scan.
    The widest variable is tested first, so most states fail at the first
    test (phase, in bb84)."""
    top = points[-1]
    i = dtmc.var_index["i"]
    initial = dtmc.state(dtmc.initial)
    others = sorted(set(range(len(initial))) - {i}, key=lambda k: -dtmc.variables[k].high)
    tests = [ast.Binary("=", ast.Name(dtmc.variables[k].name), ast.IntLit(initial[k])) for k in others]
    where = functools.reduce(lambda left, right: ast.Binary("&", left, right), tests)
    found = {top - dtmc.state(s)[i]: s for s in dtmc.states_where(where)}
    return {n: found[n] for n in points if n in found}


def format_probability(value: float) -> str:
    """12 significant digits, zero-padded (the CSV and CLI number format)."""
    return format(value, "#.12g")


def write_csv(rows: list[ResultRow], sink: IO[str], include_timing: bool = True) -> None:
    """CSV with LF endings; the wall_ms column is the only nondeterminism."""
    columns = "n,p_checked,p_oracle,abs_err,iterations,wall_ms"
    if not include_timing:
        columns = columns.rsplit(",", 1)[0]
    sink.write(columns + "\n")
    for row in rows:
        fields = [
            str(row.n),
            format_probability(row.p_checked),
            format_probability(row.p_oracle),
            f"{row.abs_err:.3e}",
            str(row.iterations),
        ]
        if include_timing:
            fields.append(f"{row.wall_ms:.3f}")
        sink.write(",".join(fields) + "\n")


class CurveSpec(Record):
    key: str
    channel: tuple[float, float, float, float]
    eve_q: float


class FigureSpec(Record):
    """Three curves over a shared photon range, ordered weakest first."""

    name: str
    n_start: int
    n_stop: int
    curves: tuple[CurveSpec, ...]


FIGURES = {
    "fig1": FigureSpec(
        "fig1",
        5,
        50,
        (
            CurveSpec("perfect", PERFECT_CHANNEL, EVE_FULL),
            CurveSpec("light_noise", LIGHT_NOISE_CHANNEL, EVE_FULL),
            CurveSpec("heavy_noise", HEAVY_NOISE_CHANNEL, EVE_FULL),
        ),
    ),
    "fig2": FigureSpec(
        "fig2",
        5,
        70,
        (
            CurveSpec("weak_eve", PERFECT_CHANNEL, EVE_WEAK),
            CurveSpec("medium_eve", PERFECT_CHANNEL, EVE_MEDIUM),
            CurveSpec("full_eve", PERFECT_CHANNEL, EVE_FULL),
        ),
    ),
}


class FigureResult(Record):
    spec: FigureSpec
    curves: tuple[tuple[CurveSpec, tuple[ResultRow, ...]], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_figure(name: str, oracle_check: bool = False) -> FigureResult:
    """Compute a figure's three curves and check their pointwise ordering.

    The curves are ordered by increasing disturbance, so at every n the
    checked probabilities must strictly increase across curves; violations
    are collected rather than raised, the CLI turns them into exit status.
    """
    if name not in FIGURES:
        raise ValueError(f"unknown figure '{name}' (have: {', '.join(sorted(FIGURES))})")
    spec = FIGURES[name]
    curves = []
    last = None
    for curve in spec.curves:
        sweep_spec = SweepSpec(
            n_start=spec.n_start,
            n_stop=spec.n_stop,
            channel=curve.channel,
            eve_q=curve.eve_q,
            oracle_check=oracle_check,
        )
        rows, last = _curve(sweep_spec, last)
        curves.append((curve, tuple(rows)))
    violations = []
    for index in range(len(curves[0][1])):
        n = curves[0][1][index].n
        values = [rows[index].p_checked for _, rows in curves]
        for left, right in zip(values, values[1:]):
            if not left < right:
                violations.append(
                    f"ordering violated at n={n}: {format_probability(left)} !< "
                    f"{format_probability(right)}"
                )
    return FigureResult(spec, tuple(curves), tuple(violations))


def figure_report(result: FigureResult) -> str:
    """Human-readable ordering report written next to the curve CSVs."""
    spec = result.spec
    keys = " < ".join(curve.key for curve in spec.curves)
    lines = [
        f"figure {spec.name}: photons {spec.n_start}..{spec.n_stop}",
        f"expected strict pointwise ordering: {keys}",
    ]
    for index in range(len(result.curves[0][1])):
        n = result.curves[0][1][index].n
        values = " < ".join(
            format_probability(rows[index].p_checked) for _, rows in result.curves
        )
        lines.append(f"n={n}: {values}")
    if result.violations:
        lines.append("VIOLATIONS:")
        lines.extend(f"  {violation}" for violation in result.violations)
    else:
        lines.append("ordering holds at every point")
    worst = max(row.abs_err for _, rows in result.curves for row in rows)
    lines.append(f"max |checked - analytic| over all rows: {worst:.3e}")
    return "\n".join(lines) + "\n"
