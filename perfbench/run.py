"""VN2 repository benchmark: serving and offline workloads, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all                 # all three, timed
    python3 perfbench/run.py --workload ingest-paced --seed 7 --seconds 15
    python3 perfbench/run.py --workload offline --trace 1   # per-layer rows

Workloads: ``ingest-flat``, ``ingest-paced``, ``offline``;
``BENCHMARK.json`` gates the last two (see ``perfbench/README.md``).  The first run in a checkout simulates the
serving fixtures (~1.5 min).  Every run checks its outputs, prints each
metric by name with its unit and sample count, writes a result record
under ``.perfbench/records/`` and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the headline metrics of
``BENCHMARK.json``; with ``--trace 1`` a second, traced run follows the
timed one and the metrics are the per-layer rows.  The exit status is 1
when any output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=["ingest-flat", "ingest-paced", "offline", "all"])
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="result record path (default: .perfbench/records/)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _die("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _die(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    # SIGTERM unwinds like Ctrl-C, so every sink this run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ["REPRO_VN2_CACHE"] = str(ROOT / ".perfbench" / "cache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from vn2bench import bench

    try:
        record = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), log=_log)
    except Exception as exc:  # the benchmark could not measure
        import traceback

        traceback.print_exc()
        return _die(f"run failed: {type(exc).__name__}: {exc}")
    path = Path(args.record) if args.record else bench.default_record_path(
        args.workload, args.seed, bool(args.trace))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(bench.render(record))
    print(f"record: {path}")
    final = bench.final_line(record, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
