"""qkdmc benchmark: seeded workloads run in process through `qkdmc.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload bb84_n500 --seed 1 --seconds 20 --trace 0

Workloads: bb84_n500, fig2_figure, walk_cyclic (see perfbench/workloads.py).
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer breakdown from spans recorded around the package's stage
functions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Exits 1 if any answer misses
its reference, 2 if the package sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    # Check for the sources explicitly: an installed qkdmc elsewhere on the
    # path must not stand in for the checkout being measured.
    if not (SRC / "qkdmc" / "cli.py").is_file():
        print(f"error: qkdmc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    args = parse_args(argv, workloads.NAMES)
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
