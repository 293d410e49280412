"""Every metric the benchmark reports: names, directions, and the mapping.

``BENCHMARK.json`` at the checkout root names the gated workloads, the
headline metrics (``end_to_end``, the same names on every workload) and
the traced run's per-layer rows, each with its unit and direction; this
module reads them from there.  ``ingest-flat`` is not among the gated
workloads (see README.md) but reports the same headline metrics.  What
lives here is what the file does not say: the workloads' own end-to-end
metrics, which of them feeds each headline, and which layer owns each
per-layer row and which end-to-end metric it should move.  Every
traced run reports every per-layer row, 0 where the layer does no work
in that workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
_DOC = json.loads(BENCHMARK_JSON.read_text())

#: End-to-end metric -> which direction is better (units and meanings
#: are in README.md and on each measured value).
E2E: Dict[str, str] = {
    "setup_s": "lower", "ingest_pps": "higher", "ack_p50_ms": "lower",
    "ack_p90_ms": "lower", "delivered_pps": "higher", "event_p50_ms": "lower",
    "event_p99_ms": "lower", "scrape_p50_ms": "lower", "scrape_p90_ms": "lower",
    "ops_failed_frac": "lower", "peak_rss_mb": "lower",
    "cpu_us_per_pkt": "lower", "sim_rows_per_s": "higher",
    "cpu_us_per_row": "lower", "fit_s": "lower", "diagnose_pps": "higher",
}

#: Which E2E metrics each workload reports (besides ops_failed_frac).
WORKLOAD_METRICS: Dict[str, List[str]] = {
    "ingest-flat": ["setup_s", "ingest_pps", "ack_p50_ms", "ack_p90_ms",
                    "cpu_us_per_pkt", "peak_rss_mb"],
    "ingest-paced": ["setup_s", "delivered_pps", "event_p50_ms",
                     "event_p99_ms", "ack_p50_ms", "ack_p90_ms",
                     "scrape_p50_ms", "scrape_p90_ms", "cpu_us_per_pkt",
                     "peak_rss_mb"],
    "offline": ["setup_s", "sim_rows_per_s", "cpu_us_per_row", "fit_s",
                "diagnose_pps", "peak_rss_mb"],
}

#: The headline: what ``BENCHMARK.json`` gates, the same names on every
#: workload.  Wall-clock rates and latencies are reported and recorded
#: but not gated: on a shared 2-vCPU host the same code read up to 45%
#: apart between runs (the hypervisor stole 0.4-7% of the CPU), wider
#: than CPU time per item did.  name -> (unit, better).
HEADLINE_UNITS: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _DOC["end_to_end"]}
#: name -> bound (share of the base median it may get worse by).
HEADLINE_BOUNDS: Dict[str, float] = {
    m["name"]: m["bound"] for m in _DOC["end_to_end"]}
#: Per workload, headline name -> the workload metric it reports.
HEADLINE: Dict[str, Dict[str, str]] = {
    "ingest-flat": {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                    "cpu_us_per_item": "cpu_us_per_pkt"},
    "ingest-paced": {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                     "cpu_us_per_item": "cpu_us_per_pkt"},
    "offline": {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                "cpu_us_per_item": "cpu_us_per_row"},
}


def headline(workload: str, metrics: Dict[str, float]) -> Dict[str, float]:
    """The headline values of one workload run."""
    return {name: metrics[source]
            for name, source in HEADLINE[workload].items()}


#: Per-layer row name prefix -> (owning layer, which E2E metric it
#: should move on which workload).  The first matching prefix wins.
OWNERS: List[Tuple[str, str, str]] = [
    ("simnet.", "simnet", "sim_rows_per_s on offline"),
    ("runner.", "runner", "sim_rows_per_s on offline"),
    ("traces.", "traces", "sim_rows_per_s, setup_s on offline"),
    ("core.fit.", "core.fit", "fit_s on offline"),
    ("core.", "core.streaming", "diagnose_pps on offline; ingest_pps on "
     "ingest-flat; event_p50_ms on ingest-paced"),
    ("session.", "core.streaming", "diagnose_pps on offline; ingest_pps on "
     "ingest-flat; event_p50_ms on ingest-paced"),
    ("service.client.", "service.client",
     "ingest_pps on ingest-flat; ack_p50_ms on ingest-paced"),
    ("service.protocol.", "service.protocol",
     "ingest_pps on ingest-flat; ack_p90_ms on ingest-paced"),
    ("service.server.", "service.server",
     "ingest_pps on ingest-flat; event_p99_ms on ingest-paced"),
    ("service.", "service.backends/service.worker",
     "event_p50_ms on ingest-paced"),
    ("dashboard.", "dashboard", "event_p99_ms, scrape_p90_ms on ingest-paced"),
    ("obs.", "obs", "scrape_p90_ms on ingest-paced"),
    ("loadgen.", "load generator",
     "none: shows the generator was never the limit"),
]


def owner(name: str) -> Tuple[str, str]:
    """(layer, should move) of a per-layer row."""
    for prefix, layer, moves in OWNERS:
        if name.startswith(prefix):
            return layer, moves
    raise KeyError(f"per-layer row {name!r} has no owning layer in OWNERS")


#: name -> (unit, better, layer, should move), in ``BENCHMARK.json`` order.
LAYERS: Dict[str, Tuple[str, str, str, str]] = {
    m["name"]: (m["unit"], m["better"], *owner(m["name"]))
    for m in _DOC["per_layer"]}
