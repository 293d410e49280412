"""Run workloads, assemble the result record, render and summarize it."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List

from vn2bench import catalog
from vn2bench.fixtures import ROOT, STATE_DIR, ensure_fixtures
from vn2bench.offline import run_offline
from vn2bench.procfs import fingerprint, git_commit, host_cpu
from vn2bench.result import WorkloadResult
from vn2bench.serving import run_flat, run_paced

RUNNERS = {
    "ingest-flat": run_flat,
    "ingest-paced": run_paced,
    "offline": run_offline,
}

RECORD_SCHEMA = 1


def _overhead(name: str, timed: WorkloadResult, traced: WorkloadResult) -> float:
    """Relative cost of tracing on the workload's headline (positive =
    the traced run was slower)."""
    if name == "ingest-flat":
        return 1.0 - traced.metrics["ingest_pps"].value / timed.metrics["ingest_pps"].value
    if name == "ingest-paced":
        return traced.metrics["event_p50_ms"].value / timed.metrics["event_p50_ms"].value - 1.0
    return 1.0 - traced.layers["traced_diagnose_pps"] / timed.metrics["diagnose_pps"].value


def run_workload(name: str, fx, seed: int, seconds: float, trace: bool,
                 log: Callable[[str], None]) -> dict:
    workdir = STATE_DIR / "work" / name
    runner = RUNNERS[name]
    log(f"{name}: timed run ({seconds:g}s, seed {seed})")
    steal0, total0 = host_cpu()
    timed = runner(fx, seed, seconds, workdir, trace=(trace and name == "offline"))
    steal1, total1 = host_cpu()
    timed.info["host_steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    entry = timed.to_dict()
    if trace:
        traced = timed
        if name != "offline":
            log(f"{name}: traced run")
            traced = runner(fx, seed, seconds, workdir, trace=True)
            for kind, n in traced.ledger.attempted.items():
                timed.ledger.attempt(kind, n)
            for kind, n in traced.ledger.failed.items():
                timed.ledger.fail(kind, n)
            timed.ledger.notes += traced.ledger.notes
        layers = {key: 0.0 for key in catalog.LAYERS}
        layers.update(timed.layers)
        layers.update(traced.layers)
        layers["obs.trace_overhead"] = _overhead(name, timed, traced)
        entry.update({
            "layers": layers,
            "trace_overhead": layers["obs.trace_overhead"],
            "traced_metrics": {k: m.value for k, m in traced.metrics.items()},
            "spans": traced.spans_path,
        })
    entry["ops"] = timed.ledger.to_dict()
    entry["ops_failed_frac"] = timed.ledger.frac
    entry["attempted"] = timed.ledger.n_attempted
    entry["failed"] = timed.ledger.n_failed
    if timed.ledger.notes:
        log(f"{name}: FAILURES: " + "; ".join(timed.ledger.notes[:5]))
    return entry


def run(workload: str, seed: int, seconds: float, trace: bool,
        log: Callable[[str], None]) -> dict:
    fx = ensure_fixtures(log)
    names = tuple(RUNNERS) if workload == "all" else (workload,)
    record = {
        "schema": RECORD_SCHEMA,
        "host": fingerprint(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "fixtures_build_s": fx.build_s,
        "workloads": {},
    }
    for name in names:
        record["workloads"][name] = run_workload(name, fx, seed, seconds,
                                                 trace, log)
    return record


def default_record_path(workload: str, seed: int, trace: bool) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    tag = "traced" if trace else "timed"
    return STATE_DIR / "records" / f"{stamp}-{workload}-{seed}-{tag}.json"


def final_line(record: dict, trace: bool) -> dict:
    """The one-line summary: correctness, op counts and the metrics named
    in ``BENCHMARK.json`` (headline when timed, per-layer when traced)."""
    workloads = record["workloads"]
    attempted = sum(e["attempted"] for e in workloads.values())
    failed = sum(e["failed"] for e in workloads.values())
    metrics: Dict[str, dict] = {}
    single = len(workloads) == 1
    for name, entry in workloads.items():
        prefix = "" if single else f"{name}."
        if trace:
            for key, (unit, *_rest) in catalog.LAYERS.items():
                metrics[prefix + key] = {"value": entry["layers"][key], "unit": unit}
        else:
            values = {k: m["value"] for k, m in entry["metrics"].items()}
            for key, value in catalog.headline(name, values).items():
                metrics[prefix + key] = {
                    "value": value, "unit": catalog.HEADLINE_UNITS[key][0]}
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def render(record: dict) -> str:
    """Every end-to-end metric by name, with unit and sample count; the
    per-layer rows when the record is traced."""
    lines: List[str] = [
        f"seed {record['seed']}, {record['seconds']:g}s per run, "
        f"commit {record['commit'] or 'unknown'}, "
        f"{record['host']['nproc']} CPUs ({record['host']['cpu_model']})",
        f"{'workload':<13s} {'metric':<16s} {'value':>12s} {'unit':<7s} {'n':>6s}",
    ]
    for name, entry in record["workloads"].items():
        for metric in catalog.WORKLOAD_METRICS[name]:
            m = entry["metrics"][metric]
            lines.append(f"{name:<13s} {metric:<16s} {m['value']:>12.4g} "
                         f"{m['unit']:<7s} {m['n']:>6d}")
        lines.append(f"{name:<13s} {'ops_failed_frac':<16s} "
                     f"{entry['ops_failed_frac']:>12.4g} {'ratio':<7s} "
                     f"{entry['attempted']:>6d}")
    for name, entry in record["workloads"].items():
        if "trace_overhead" not in entry:
            continue
        lines.append(f"\n{name}: per-layer rows (trace overhead "
                     f"{entry['trace_overhead']:+.1%})")
        layer = None
        for key, (unit, _better, owner, moves) in catalog.LAYERS.items():
            if owner != layer:
                layer = owner
                lines.append(f"  [{owner}] should move: {moves}")
            lines.append(f"    {key:<40s} {entry['layers'][key]:>12.4g} {unit}")
        if name == "ingest-flat":
            lay = entry["layers"]
            lines.append(
                "  1/ingest_pps = {:.2f} us/pkt: client encode {:.2f} + "
                "protocol decode {:.2f} + session {:.2f} + unattributed "
                "{:.2f}".format(
                    lay["split.served_us_per_pkt"],
                    lay["service.client.encode_us_per_pkt"],
                    lay["service.protocol.decode_us_per_pkt"],
                    lay["session.us_per_pkt"],
                    lay["split.unattributed_us_per_pkt"]))
    return "\n".join(lines)
