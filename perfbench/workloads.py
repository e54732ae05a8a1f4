"""Seeded workloads for the qkdmc benchmark and their independent references.

A workload is the exact CLI argument lists one pass runs, the input files
the benchmark writes before the first pass, and one reference value per
answer the pass prints. References come from `qkdmc.oracle` (the analytic
per-photon enumeration) or from a closed form, never from an earlier run of
the checker.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

from qkdmc import oracle
from qkdmc.bb84 import Passthrough

NAMES = ("bb84_n500", "fig2_figure", "walk_cyclic")

# A printed answer further than this from its reference is wrong; smaller
# errors are graded by accurate_digits instead.
FAIL_TOL = 1e-6
MAX_DIGITS = 12.0

BB84_PHOTONS = 500
WALK_SIZE = 200
# The built-in fig2 experiment: a perfect channel, n = 5..70, three Eve strengths.
FIG2_CURVES = (("weak_eve", 0.2), ("medium_eve", 0.5), ("full_eve", 1.0))
FIG2_PHOTONS = range(5, 71)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    inputs: dict[str, str]
    references: tuple[float, ...]
    summary: str


def make(name: str, seed: int) -> Workload:
    """The workload's CLI arguments, input files and references for a seed.

    Paths in the arguments are relative to the directory the passes run in.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "bb84_n500":
        return _bb84(rng)
    if name == "fig2_figure":
        return _fig2()
    if name == "walk_cyclic":
        return _walk(rng)
    raise ValueError(f"unknown workload '{name}' (have: {', '.join(NAMES)})")


def _bb84(rng: random.Random) -> Workload:
    # Every channel entry is at least 0.05 (500 of 10,000 parts), so every
    # branch of the generated model is present and the state space is fixed.
    cuts = sorted(rng.randint(0, 8000) for _ in range(3))
    parts = [b - a + 500 for a, b in zip([0, *cuts], [*cuts, 8000])]
    channel = ",".join(f"{part / 10000:.4f}" for part in parts)
    eve_q = f"{rng.uniform(0.2, 0.8):.4f}"
    bias = f"{rng.uniform(0.3, 0.7):.4f}"
    p1 = oracle.per_photon_detect_prob(
        tuple(float(part) for part in channel.split(",")),  # type: ignore[arg-type]
        float(eve_q),
        float(bias),
        Passthrough.CHANNEL_OUTPUT,
    )
    return Workload(
        name="bb84_n500",
        commands=(
            ("bb84", "--photons", str(BB84_PHOTONS), "--channel", channel,
             "--eve-q", eve_q, "--bias", bias, "--emit", "bb84.pm"),
            ("check", "--model", "bb84.pm", "--prop", 'P=? [ F "detected" ]'),
        ),
        inputs={},
        references=(oracle.detect_prob(BB84_PHOTONS, p1),),
        summary=f"photons {BB84_PHOTONS} channel {channel} eve_q {eve_q} bias {bias}",
    )


def _fig2() -> Workload:
    references = []
    for _key, eve_q in FIG2_CURVES:
        p1 = oracle.per_photon_detect_prob((1.0, 0.0, 0.0, 0.0), eve_q, 0.5)
        references.extend(oracle.detect_prob(n, p1) for n in FIG2_PHOTONS)
    return Workload(
        name="fig2_figure",
        commands=(("figure", "--name", "fig2", "--oracle-check", "--out", "fig2"),),
        inputs={},
        references=tuple(references),
        summary="built-in figure fig2 (seed ignored)",
    )


def _walk_model(start: int) -> str:
    return (
        "dtmc\n"
        "module walk\n"
        f"  x : [0..{WALK_SIZE}] init {start};\n"
        f"  [] x>0 & x<{WALK_SIZE} -> 0.5:(x'=x+1) + 0.5:(x'=x-1);\n"
        "endmodule\n"
        f'label "win" = x={WALK_SIZE};\n'
    )


def _walk(rng: random.Random) -> Workload:
    start = rng.randint(50, 150)
    return Workload(
        name="walk_cyclic",
        commands=(("check", "--model", "walk.pm", "--prop", 'P=? [ F "win" ]'),),
        inputs={"walk.pm": _walk_model(start)},
        references=(start / WALK_SIZE,),
        summary=f"symmetric walk on 0..{WALK_SIZE} from x={start}",
    )


def outputs_to_clear(workload: Workload) -> list[str]:
    """Files a pass writes, removed before each pass so stale ones never count."""
    if workload.name == "bb84_n500":
        return ["bb84.pm"]
    if workload.name == "fig2_figure":
        return [f"fig2/fig2_{key}.csv" for key, _ in FIG2_CURVES]
    return []


def read_answers(workload: Workload, codes: list[int], stdouts: list[str],
                 workdir: Path) -> list[float | None]:
    """The printed answers of one pass, in reference order; None if missing."""
    missing: list[float | None] = [None] * len(workload.references)
    if any(code != 0 for code in codes):
        return missing
    if workload.name == "fig2_figure":
        answers: list[float | None] = []
        for key, _ in FIG2_CURVES:
            path = workdir / "fig2" / f"fig2_{key}.csv"
            if not path.is_file():
                return missing
            with open(path, newline="", encoding="utf-8") as handle:
                printed = {int(row["n"]): row["p_checked"] for row in csv.DictReader(handle)}
            answers.extend(_number(printed.get(n)) for n in FIG2_PHOTONS)
        return answers
    lines = stdouts[-1].splitlines()
    return [_number(lines[0] if lines else None)]


def _number(text: str | None) -> float | None:
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def answer_failed(printed: float | None, reference: float) -> bool:
    return printed is None or not abs(printed - reference) <= FAIL_TOL


def accurate_digits(printed: float, reference: float) -> float:
    """Correct significant digits of a printed answer, capped at 12."""
    error = abs(printed - reference) / abs(reference)
    if error == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(error))


def traffic(workload: Workload, stdouts: list[str], workdir: Path) -> dict[str, int]:
    """Model size and solver work as the CLI reports them in one pass."""
    if workload.name == "fig2_figure":
        rows = 0
        sweeps = 0
        for key, _ in FIG2_CURVES:
            with open(workdir / "fig2" / f"fig2_{key}.csv", newline="", encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    rows += 1
                    sweeps += int(row["iterations"])
        return {"rows": rows, "sweeps": sweeps}
    fields = dict(line.split(" ", 1) for line in stdouts[-1].splitlines()[1:] if " " in line)
    return {
        "states": int(fields["states"]),
        "transitions": int(fields["transitions"]),
        "sweeps": int(fields["iterations"]),
    }
