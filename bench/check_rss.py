"""Peak resident memory of `qkdmc check` on a bb84 model, in a fresh process.

Run from the repository root:

    python3 bench/check_rss.py [--photons 2000] [--max-mib 75]

Writes the model with `qkdmc bb84` (the heavy-noise channel, eve_q 0.5) in
one subprocess, then runs `qkdmc check --prop 'P=? [ F "detected" ]'` on it
in another, which builds the full chain and solves it. Prints the check's
probability, state count and peak resident set, the child's own ru_maxrss
(Linux reports it in KiB). With --max-mib, exits 1 where the peak is above
that many MiB.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY_NOISE = "0.4,0.2,0.2,0.2"


def qkdmc(*args: str) -> list[str]:
    return [sys.executable, "-m", "qkdmc", *args]


def check_peak(photons: int) -> tuple[str, float]:
    """The check's output and its peak resident set in MiB."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "bb84.pm", Path(tmp) / "check.out"
        subprocess.run(
            qkdmc("bb84", "--photons", str(photons), "--channel", HEAVY_NOISE, "--eve-q", "0.5",
                  "--emit", str(model)),
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with out.open("w") as sink:
            child = subprocess.Popen(
                qkdmc("check", "--model", str(model), "--prop", 'P=? [ F "detected" ]'),
                env=env, stdout=sink,
            )
            # wait4 reports this child's own usage, not the largest of all.
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise SystemExit(f"error: qkdmc check exited with {child.returncode}")
        return out.read_text(), usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--photons", type=int, default=2000)
    parser.add_argument("--max-mib", type=float, default=None)
    args = parser.parse_args()
    output, peak = check_peak(args.photons)
    lines = output.splitlines()
    states = next(line for line in lines if line.startswith("states "))
    print(f"photons {args.photons}: probability {lines[0]}, {states}, peak RSS {peak:.1f} MiB")
    if args.max_mib is not None and peak > args.max_mib:
        print(f"error: peak RSS {peak:.1f} MiB is above {args.max_mib:g} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
