"""Compare two sets of result records, workload by workload.

Each side is one or more timed records (files, or directories of them),
one record per run.  For every workload and metric the table shows each
side's median and quartiles over its runs and the ratio of the medians
(new / base).  A metric is marked ``unresolved`` when either side's
run-to-run spread (interquartile distance over the median) is wider than
the metric's bound, or a side has fewer than two runs: the runs cannot
tell a change of that size from noise.  Otherwise it reads ``worse``
when the new median is worse than the base by more than the bound,
``better`` when it is better by more than the base's own spread, and
``same`` in between.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from vn2bench import catalog
from vn2bench.stats import quartiles, relative_spread

#: Bound of a metric BENCHMARK.json does not gate (the largest it allows).
DEFAULT_BOUND = 0.25


def load_records(paths: Iterable[str]) -> List[dict]:
    records = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text())
            if "workloads" in record and not record.get("trace"):
                records.append(record)
    return records


def collect(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per record (run)."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for name, entry in record["workloads"].items():
            values = {k: m["value"] for k, m in entry["metrics"].items()}
            values["ops_failed_frac"] = entry["ops_failed_frac"]
            for metric, value in values.items():
                out.setdefault((name, metric), []).append(value)
    return out


def bounds() -> Dict[str, float]:
    """Headline bounds from ``BENCHMARK.json``; each workload metric
    inherits the bound of the headline it feeds."""
    out = dict(catalog.HEADLINE_BOUNDS)
    for mapping in catalog.HEADLINE.values():
        for name, source in mapping.items():
            out.setdefault(source, catalog.HEADLINE_BOUNDS[name])
    return out


def better_direction(metric: str) -> str:
    if metric in catalog.HEADLINE_UNITS:
        return catalog.HEADLINE_UNITS[metric][1]
    return catalog.E2E.get(metric, "lower")


def verdict(base: List[float], new: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """(verdict, new median / base median)."""
    b_mid, n_mid = quartiles(base)[1], quartiles(new)[1]
    if b_mid == n_mid == 0:
        return "same", 1.0  # e.g. ops_failed_frac at 0 on both sides
    ratio = n_mid / b_mid if b_mid else float("inf")
    if len(base) < 2 or len(new) < 2:
        return "unresolved", ratio
    if relative_spread(base) > bound or relative_spread(new) > bound:
        return "unresolved", ratio
    # Positive change = worse, in either direction of "better".
    change = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if change > bound:
        return "worse", ratio
    if -change > relative_spread(base):
        return "better", ratio
    return "same", ratio


def compare(base: List[dict], new: List[dict],
            bounds: Dict[str, float]) -> List[dict]:
    a, b = collect(base), collect(new)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        bound = bounds.get(metric, DEFAULT_BOUND)
        result, ratio = verdict(a[key], b[key], bound, better_direction(metric))
        rows.append({
            "workload": workload, "metric": metric, "bound": bound,
            "base": quartiles(a[key]), "new": quartiles(b[key]),
            "runs": (len(a[key]), len(b[key])), "ratio": ratio,
            "verdict": result,
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<13s} {'metric':<16s} {'base median [q1, q3]':>32s} "
             f"{'new median [q1, q3]':>32s} {'new/base':>9s} {'bound':>6s}  verdict"]
    for r in rows:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        lines.append(
            f"{r['workload']:<13s} {r['metric']:<16s} {side(r['base']):>32s} "
            f"{side(r['new']):>32s} {r['ratio']:>9.3f} {r['bound']:>6.2f}  "
            f"{r['verdict']} (runs {r['runs'][0]}/{r['runs'][1]})")
    return "\n".join(lines)
