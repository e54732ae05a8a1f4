"""Time an eve_q grid solved on reweighted chains against one rebuilt per point.

Run from the repository root:

    python3 bench/eve_q_grid.py [--photons 500] [--points 50] [--rounds 3]

Each round times the whole grid twice, in alternating order: once with
`analyze(params)`, which generates, validates and builds every point, and
once with `analyze(params, like=chain)`, which reweights the first point's
reduced chain. The channel is heavy noise and every eve_q lies strictly
inside (0, 1), so every point has one shape. Both ways must print the same
probabilities, bit for bit. Prints each round's seconds and the medians.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qkdmc.bb84 import Bb84Params  # noqa: E402
from qkdmc.sweep import HEAVY_NOISE_CHANNEL, analyze  # noqa: E402


def grid(photons: int, points: int, reweight: bool) -> tuple[float, list[float]]:
    """Seconds for the whole grid, and its probabilities."""
    started = time.perf_counter()
    chain, answers = None, []
    for k in range(points):
        params = Bb84Params(photons, HEAVY_NOISE_CHANNEL, (k + 0.5) / points)
        report, dtmc = analyze(params, chain)
        if reweight and chain is None:
            chain = dtmc
        answers.append(report.probability)
    return time.perf_counter() - started, answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--photons", type=int, default=500)
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    times: dict[bool, list[float]] = {False: [], True: []}
    for round_ in range(args.rounds):
        order = (False, True) if round_ % 2 == 0 else (True, False)
        answers = {}
        for reweight in order:
            seconds, answers[reweight] = grid(args.photons, args.points, reweight)
            times[reweight].append(seconds)
        if answers[False] != answers[True]:
            print("error: the reweighted grid printed other probabilities", file=sys.stderr)
            return 1
        print(f"round {round_ + 1}: rebuild {times[False][-1]:.3f} s, "
              f"reweight {times[True][-1]:.3f} s")
    rebuild, reweight = statistics.median(times[False]), statistics.median(times[True])
    print(f"median: rebuild {rebuild:.3f} s, reweight {reweight:.3f} s, "
          f"{rebuild / reweight:.2f}x faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
