"""Compare result records of two commits, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE [BASE ...] --vs NEW [NEW ...]

Each argument is a timed result record written by ``perfbench/run.py``
or a directory of them; each record counts as one run.  Bounds come
from ``BENCHMARK.json``.  See ``vn2bench/compare.py`` for the verdicts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, metavar="NEW")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from vn2bench.compare import bounds, compare, load_records, render

    base, new = load_records(args.base), load_records(args.vs)
    if not base or not new:
        print("compare: each side needs at least one timed record",
              file=sys.stderr)
        return 2
    print(render(compare(base, new, bounds())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
