"""Benchmark for connjoin: seeded workloads run in-process through the CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload many_terminals --seed 1 --seconds 15 --trace 0

Workloads: many_terminals, deep_levels, yes_families, audit (see
``workloads.py`` and ``NOTES.md``).  The library is imported from ``src/`` of
the same checkout and from nowhere else; without it the run exits with
status 1 and prints no result.  Single process, single thread, standard
library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "connjoin"


def import_library() -> None:
    """Import connjoin from this checkout's sources, and from nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: connjoin sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import connjoin
    if Path(connjoin.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: imported connjoin from {connjoin.__file__}, "
                 f"not from {PACKAGE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                    ROOT / ".bench_work")
    return 0


if __name__ == "__main__":
    sys.exit(main())
