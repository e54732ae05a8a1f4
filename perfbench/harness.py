"""Runs one workload's passes, checks every answer and prints the metrics.

A pass is every CLI command of the workload, called in this process through
`qkdmc.cli.main` with standard output captured. Passes run one after
another, single-threaded, while one more pass is expected to end within the
requested seconds. Untraced runs report the end-to-end metrics; traced
runs alternate an untraced and a traced pass and report the per-layer
breakdown of the traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import qkdmc.cli
import spans
import workloads

# Fresh interpreters timed for setup_s, after one warm-up that caches bytecode.
SETUP_IMPORTS = 9

# The speed of a shared host drifts by a third from minute to minute, more
# than the regressions the benchmark must catch. Every untraced pass is
# therefore bracketed by runs of a fixed pure-Python reference loop lasting
# REFERENCE_SHARE of the pass, and its wall time is scaled to a host on
# which that loop takes REFERENCE_S seconds.
REFERENCE_STEPS = 1_500_000
REFERENCE_S = 0.2
REFERENCE_SHARE = 0.1


@dataclass(frozen=True)
class Pass:
    wall_s: float
    codes: list[int]
    stdouts: list[str]
    stderrs: list[str]
    answers: list[float | None]


def run_pass(workload: workloads.Workload, workdir: Path,
             tracer: spans.Tracer | None = None) -> Pass:
    for name in workloads.outputs_to_clear(workload):
        (workdir / name).unlink(missing_ok=True)
    codes, stdouts, stderrs = [], [], []
    started = time.perf_counter()
    for argv in workload.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = qkdmc.cli.main(list(argv))
            else:
                with tracer.span("cli.main"):
                    code = qkdmc.cli.main(list(argv))
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    wall = time.perf_counter() - started
    answers = workloads.read_answers(workload, codes, stdouts, workdir)
    return Pass(wall, codes, stdouts, stderrs, answers)


def reference_loop() -> float:
    """Wall seconds for fixed interpreter work that allocates no GC-tracked object."""
    values = [0.0] * 256
    count = 0
    started = time.perf_counter()
    for step in range(REFERENCE_STEPS):
        values[step & 255] = 0.5 * values[(step + 1) & 255] + 0.25
        count += step % 7
    return time.perf_counter() - started


def reference_speed(seconds: float) -> float:
    """Mean reference-loop time over at least `seconds` of repeated loops."""
    times = [reference_loop()]
    while sum(times) < seconds:
        times.append(reference_loop())
    return statistics.fmean(times)


def setup_times(root: Path) -> list[float]:
    """Wall time of fresh interpreters importing qkdmc.cli, one at a time."""
    command = [sys.executable, "-c", "import qkdmc.cli"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def once() -> float:
        started = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    once()
    return [once() for _ in range(SETUP_IMPORTS)]


def fits(durations: list[float], deadline: float) -> bool:
    """Whether one more step of typical duration ends by the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def grade(workload: workloads.Workload, passes: list[Pass]) -> tuple[int, int, float]:
    """(attempted, failed, worst accurate_digits) over every answer printed."""
    attempted = failed = 0
    digits = workloads.MAX_DIGITS
    for one in passes:
        for printed, reference in zip(one.answers, workload.references):
            attempted += 1
            if workloads.answer_failed(printed, reference):
                failed += 1
                digits = 0.0
            else:
                digits = min(digits, workloads.accurate_digits(printed, reference))
    return attempted, failed, digits


def report_failure(passes: list[Pass]) -> None:
    for one in passes:
        if any(code != 0 for code in one.codes) or None in one.answers:
            print(f"failing pass: exit codes {one.codes}", file=sys.stderr)
            for text in one.stderrs:
                sys.stderr.write(text)
            return


def describe(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.4f} max {max(values):.4f}"


def run(name: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    workload = workloads.make(name, seed)
    print(f"workload {name} seed {seed}: {workload.summary}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        for file_name, text in workload.inputs.items():
            (workdir / file_name).write_text(text, encoding="utf-8")
        home = os.getcwd()
        os.chdir(workdir)
        try:
            if trace:
                spans_path = root / ".perfbench-trace" / f"{name}-seed{seed}.json"
                passes, metrics = traced_run(workload, workdir, seconds, spans_path)
            else:
                passes, metrics = untraced_run(workload, workdir, seconds, root)
        finally:
            os.chdir(home)
    attempted, failed, digits = grade(workload, passes)
    if not trace:
        metrics["accurate_digits"] = (digits, "digits")
        print(f"accurate_digits {digits:.4f} digits (worst of {attempted} answers)")
    print(f"ops_failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} answers failed)")
    if failed:
        report_failure(passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def untraced_run(workload: workloads.Workload, workdir: Path, seconds: int,
                 root: Path) -> tuple[list[Pass], dict[str, tuple[float, str]]]:
    setup = setup_times(root)
    deadline = time.perf_counter() + seconds
    references = [reference_speed(REFERENCE_S * 2)]
    passes: list[Pass] = []
    rounds: list[float] = []
    while not passes or fits(rounds, deadline):
        started = time.perf_counter()
        passes.append(run_pass(workload, workdir))
        if len(passes) == 1:
            # The first pass sets the peak: later passes of the same
            # workload reuse the memory it released.
            peak = peak_rss_mb()
        references.append(reference_speed(REFERENCE_SHARE * passes[-1].wall_s))
        rounds.append(time.perf_counter() - started)
    walls = [one.wall_s for one in passes]
    scaled = [
        wall * REFERENCE_S / ((before + after) / 2)
        for wall, before, after in zip(walls, references, references[1:])
    ]
    if all(code == 0 for code in passes[0].codes):
        counts = workloads.traffic(workload, passes[0].stdouts, workdir)
        print("traffic per pass: " + " ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"verdict_s {statistics.median(walls):.4f} s ({describe(walls)} passes, wall time)")
    print(f"reference loop {statistics.median(references):.4f} s ({describe(references)})")
    print(f"verdict_norm_s {statistics.median(scaled):.4f} s "
          f"({describe(scaled)} passes, scaled to a {REFERENCE_S} s reference loop)")
    print(f"setup_s {statistics.median(setup):.4f} s ({describe(setup)} fresh imports)")
    print(f"peak_rss_mb {peak:.2f} MiB (process peak resident set after one pass)")
    metrics = {
        "verdict_norm_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    return passes, metrics


def traced_run(workload: workloads.Workload, workdir: Path, seconds: int,
               spans_path: Path) -> tuple[list[Pass], dict[str, tuple[float, str]]]:
    plain: list[Pass] = []
    traced: list[Pass] = []
    recorded: list[list[spans.Span]] = []
    layers: list[dict[str, float]] = []
    attributed: list[float] = []
    rounds: list[float] = []
    deadline = time.perf_counter() + seconds
    while not rounds or fits(rounds, deadline):
        started = time.perf_counter()
        plain.append(run_pass(workload, workdir))
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced.append(run_pass(workload, workdir, tracer))
        rounds.append(time.perf_counter() - started)
        recorded.append(tracer.spans)
        layers.append(spans.layer_metrics(tracer.spans))
        attributed.append(sum(spans.self_times(tracer.spans)) / traced[-1].wall_s)
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([spans.as_records(one) for one in recorded]), encoding="utf-8")
    plain_s = statistics.median(one.wall_s for one in plain)
    traced_s = statistics.median(one.wall_s for one in traced)
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    metrics = {
        key: ((statistics.median if unit in ("ms", "1/s") else statistics.median_low)(
            [layer[key] for layer in layers]), unit)
        for key, unit in spans.UNITS.items()
    }
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    width = max(len(key) for key in metrics)
    for key, (value, unit) in metrics.items():
        print(f"{key:<{width}} {value:.6g} {unit}")
    print(f"traced pass {traced_s:.4f} s vs untraced {plain_s:.4f} s "
          f"(median of {len(traced)} each); self times cover "
          f"{statistics.median(attributed):.4%} of the traced pass")
    print("calls per traced pass: " + " ".join(
        f"{name}={count}" for name, count in spans.call_counts(recorded[-1]).items()))
    print(f"spans of every traced pass written to {spans_path}")
    return plain + traced, metrics
