"""Spans recorded around qkdmc's public stage functions, from outside the package.

`instrument` replaces each stage function at the name the calling module
looks it up by (`qkdmc.cli`, `qkdmc.sweep`, `qkdmc.solver`, and the
`qkdmc.solver`/`qkdmc.oracle` module attributes those modules call through)
and restores the originals on exit. A span's layer is the part of its name
before the first dot; a layer's self time is the sum of its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import qkdmc.cli
import qkdmc.oracle
import qkdmc.solver
import qkdmc.sweep


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any],
             annotate: Callable[..., dict[str, float]] | None = None) -> Callable[..., Any]:
        """`fn` recording a span per call; `annotate(result, *args)` adds counts."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(result, *args, **kwargs))
                return result

        return traced


def as_records(recorded: list[Span]) -> list[dict[str, object]]:
    """Spans as JSON-ready dicts, times in seconds from the first span's start."""
    origin = recorded[0].start if recorded else 0.0
    return [
        {"name": span.name, "start": span.start - origin, "end": span.end - origin,
         "parent": span.parent, **span.attrs}
        for span in recorded
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals, in s."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            low = max(kid.start, reach, span.start)
            high = min(kid.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        result.append((span.end - span.start) - covered)
    return result


def _source_bytes(_result: Any, source: str) -> dict[str, float]:
    return {"source_bytes": len(source.encode("utf-8"))}


def _dtmc_size(dtmc: Any, *_args: Any) -> dict[str, float]:
    # Counted inside the build span: summing row lengths costs well under 1%
    # of the build it follows.
    return {"states": dtmc.state_count, "transitions": dtmc.transition_count}


_RESOLVE = qkdmc.solver.resolve_operand


def _solve_work(report: Any, dtmc: Any, query: Any, *_args: Any, **_kwargs: Any) -> dict[str, float]:
    # Gauss-Seidel updates every state that is neither a target nor in prob0
    # once per sweep; target states never overlap prob0.
    targets = len(_RESOLVE(query.target, dtmc))
    updated = dtmc.state_count - report.prob0_count - targets
    return {
        "sweeps": report.iterations,
        "state_updates": report.iterations * updated,
        "residual": report.residual,
    }


# (module, attribute, span name, annotate). One function imported into two
# modules gets one wrapper, so its calls count once whichever module calls it.
STAGES: tuple[tuple[Any, str, str, Callable[..., dict[str, float]] | None], ...] = (
    (qkdmc.cli, "generate", "bb84.generate", None),
    (qkdmc.cli, "parse", "lang.parse", _source_bytes),
    (qkdmc.cli, "validate", "lang.validate", None),
    (qkdmc.cli, "build", "explorer.build", _dtmc_size),
    (qkdmc.cli, "parse_property", "properties.parse", None),
    (qkdmc.cli, "format_probability", "sweep.format_probability", None),
    (qkdmc.sweep, "generate", "bb84.generate", None),
    (qkdmc.sweep, "parse", "lang.parse", _source_bytes),
    (qkdmc.sweep, "validate", "lang.validate", None),
    (qkdmc.sweep, "build", "explorer.build", _dtmc_size),
    (qkdmc.sweep, "parse_property", "properties.parse", None),
    (qkdmc.sweep, "run_figure", "sweep.run_figure", None),
    (qkdmc.sweep, "write_csv", "sweep.write_csv", None),
    (qkdmc.sweep, "figure_report", "sweep.figure_report", None),
    (qkdmc.solver, "prob_until", "solver.prob_until", _solve_work),
    (qkdmc.solver, "resolve_operand", "properties.resolve", None),
    (qkdmc.oracle, "per_photon_detect_prob", "oracle.per_photon_detect_prob", None),
    (qkdmc.oracle, "detect_prob", "oracle.detect_prob", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every stage call through `tracer` until the block exits."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in STAGES]
    wrappers: dict[int, Callable[..., Any]] = {}
    try:
        for (module, attr, name, annotate), (_, _, fn) in zip(STAGES, originals):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(name, fn, annotate)
            setattr(module, attr, wrappers[id(fn)])
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def call_counts(recorded: list[Span]) -> dict[str, int]:
    """Calls per wrapped stage function, zero for one the pass never reached."""
    counts = dict.fromkeys(sorted({name for _, _, name, _ in STAGES}), 0)
    for span in recorded:
        if span.name in counts:
            counts[span.name] += 1
    return counts


UNITS = {
    "cli.self_ms": "ms",
    "sweep.self_ms": "ms",
    "bb84.generate_ms": "ms",
    "bb84.generate_calls": "count",
    "lang.parse_ms": "ms",
    "lang.parse_calls": "count",
    "lang.source_bytes": "bytes",
    "lang.validate_ms": "ms",
    "lang.validate_calls": "count",
    "explorer.build_ms": "ms",
    "explorer.build_calls": "count",
    "explorer.states": "count",
    "explorer.transitions": "count",
    "explorer.states_per_s": "1/s",
    "properties.parse_ms": "ms",
    "properties.resolve_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.calls": "count",
    "solver.sweeps": "count",
    "solver.state_updates": "count",
    "solver.residual_max": "abs",
    "oracle.ms": "ms",
    "oracle.calls": "count",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times (ms), call counts and traffic of one traced pass."""
    selfs = self_times(spans)
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    residual_max = 0.0
    for span, own in zip(spans, selfs):
        layer = span.name.split(".", 1)[0]
        ms[layer] = ms.get(layer, 0.0) + own * 1000.0
        ms[span.name] = ms.get(span.name, 0.0) + own * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            if key == "residual":
                residual_max = max(residual_max, value)
            else:
                attrs[f"{span.name}.{key}"] = attrs.get(f"{span.name}.{key}", 0) + value
    build_ms = ms.get("explorer.build", 0.0)
    states = attrs.get("explorer.build.states", 0)
    return {
        "cli.self_ms": ms.get("cli", 0.0),
        "sweep.self_ms": ms.get("sweep", 0.0),
        "bb84.generate_ms": ms.get("bb84.generate", 0.0),
        "bb84.generate_calls": calls.get("bb84.generate", 0),
        "lang.parse_ms": ms.get("lang.parse", 0.0),
        "lang.parse_calls": calls.get("lang.parse", 0),
        "lang.source_bytes": attrs.get("lang.parse.source_bytes", 0),
        "lang.validate_ms": ms.get("lang.validate", 0.0),
        "lang.validate_calls": calls.get("lang.validate", 0),
        "explorer.build_ms": build_ms,
        "explorer.build_calls": calls.get("explorer.build", 0),
        "explorer.states": states,
        "explorer.transitions": attrs.get("explorer.build.transitions", 0),
        "explorer.states_per_s": states / (build_ms / 1000.0) if build_ms else 0.0,
        "properties.parse_ms": ms.get("properties.parse", 0.0),
        "properties.resolve_ms": ms.get("properties.resolve", 0.0),
        "solver.solve_ms": ms.get("solver.prob_until", 0.0),
        "solver.calls": calls.get("solver.prob_until", 0),
        "solver.sweeps": attrs.get("solver.prob_until.sweeps", 0),
        "solver.state_updates": attrs.get("solver.prob_until.state_updates", 0),
        "solver.residual_max": residual_max,
        "oracle.ms": ms.get("oracle", 0.0),
        "oracle.calls": calls.get("oracle.per_photon_detect_prob", 0)
        + calls.get("oracle.detect_prob", 0),
    }
