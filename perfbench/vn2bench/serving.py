"""The two serving workloads: ``ingest-flat`` and ``ingest-paced``.

Both run ``vn2 serve`` as a subprocess and check every served event
against an in-process :class:`StreamingDiagnosisSession` replay of the
same packets, as canonical event JSON.

ingest-flat
    Closed loop: one SDK connection submits 256-packet batches, each
    batch of the trace to each of :data:`FLAT_DEPLOYMENTS` deployments in
    turn, on the default (in-process backend) sink.  One more connection
    subscribes to every deployment.  The trace is sent in passes, each
    into fresh deployments; a pass ends when ``/metrics`` shows all its
    packets diagnosed and its queues empty.  ``ingest_pps`` is the median
    over passes.

ingest-paced
    Open loop at :data:`PACED_RATE` packets/s into
    :data:`PACED_DEPLOYMENTS` deployments on ``vn2 serve --workers 2
    --dashboard``.  Every packet has a due time; event latency is timed
    from the due time of the packet whose state emitted the event.  One
    reader thread takes the SSE stream and scrapes between frames.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

from vn2bench import layers as L
from vn2bench.fixtures import Fixtures, seeded_traffic
from vn2bench.loadshape import (
    attribute_events,
    reference_replay,
    run_open_loop,
)
from vn2bench.result import (
    WorkloadResult,
    single,
    summarize,
    summarize_groups,
)
from vn2bench.sink import (
    DashboardReader,
    Sink,
    Subscriber,
    get,
    get_json,
    histogram_quantile,
    parse_prometheus,
    prom_buckets,
    prom_total,
    wait_diagnosed,
)
from vn2bench.stats import median

BATCH = 256
FLAT_DEPLOYMENTS = 4
PACED_RATE = 3000.0
PACED_DEPLOYMENTS = 2
PACED_WORKERS = 2
#: The paced generator sends at most once per tick (all that is due).
PACED_TICK_S = 0.01
#: Sink launches per run; ``setup_s`` is their median, the last serves.
SETUP_REPEATS = 3
#: How long to wait for stragglers once the load is sent.
SETTLE_TIMEOUT_S = 60.0


def _load(fx: Fixtures, trace_path: Path, seed: int, tag: str):
    from repro.core.pipeline import VN2
    from repro.traces.io import load_frame

    return VN2.load(fx.model_path), seeded_traffic(load_frame(trace_path),
                                                   seed, tag)


def _reference(tool, packets):
    from repro.core.streaming import StreamingDiagnosisSession
    from repro.service import protocol

    # The sink's defaults (ServiceConfig): no positions, the model's
    # threshold, 10k retained closed incidents.
    session = StreamingDiagnosisSession(tool, max_closed_incidents=10000)
    return reference_replay(session, packets, protocol.incident_event_obj)


def _launch(fx: Fixtures, workdir: Path, args: Sequence[str]):
    """Launch the sink SETUP_REPEATS times; keep the last one running."""
    workdir.mkdir(parents=True, exist_ok=True)
    setups: List[float] = []
    for _ in range(SETUP_REPEATS - 1):
        with Sink(fx.model_path, workdir, args) as probe:
            setups.append(probe.start())
    sink = Sink(fx.model_path, workdir, args)
    setups.append(sink.start())
    return sink, setups


def _check_events(result: WorkloadResult, served, reference, deployments,
                  due_of, n_per_pass: int) -> Dict[int, List[float]]:
    """Ledger every deployment's served stream against the reference;
    return the event latencies grouped by the pass of their packet."""
    by_pass: Dict[int, List[float]] = {}
    for index, name in enumerate(deployments):
        attr = attribute_events(served.parsed(name), reference,
                                lambda i, k=index: due_of(k, i))
        result.ledger.attempt("events", len(reference.events))
        if attr.failed:
            result.ledger.fail(
                "events", attr.failed,
                f"{name}: {attr.mismatched} unequal, {attr.missing} missing, "
                f"{attr.extra} extra")
        for trigger, latency in zip(attr.triggers, attr.latencies):
            by_pass.setdefault(trigger // n_per_pass, []).append(latency)
    return by_pass


def _check_packets(result: WorkloadResult, seen: Dict[str, int], n: int) -> None:
    for name, count in seen.items():
        result.ledger.attempt("packets", n)
        if count != n:
            result.ledger.fail("packets", abs(n - count),
                               f"{name}: diagnosed {count} of {n}")


def _server_layers(before: str, after: str, wall: float, cpu0, cpu1,
                   n_workers: int) -> Dict[str, float]:
    """Server-side rows from two Prometheus scrapes and /proc CPU."""
    b, a = parse_prometheus(before), parse_prometheus(after)
    hist = "repro_service_ingest_seconds"
    hb, ha = prom_buckets(b, hist), prom_buckets(a, hist)
    batches = prom_total(a, hist + "_count") - prom_total(b, hist + "_count")
    served_s = prom_total(a, hist + "_sum") - prom_total(b, hist + "_sum")
    session_s = (prom_total(a, "repro_streaming_packet_seconds_sum")
                 - prom_total(b, "repro_streaming_packet_seconds_sum"))
    p50 = histogram_quantile(hb, ha, 0.5)
    p99 = histogram_quantile(hb, ha, 0.99)
    return {
        "service.server.batch_p50_ms": 1e3 * (p50 or 0.0),
        "service.server.batch_p99_ms": 1e3 * (p99 or 0.0),
        "service.server.cpu_share": (cpu1[0] - cpu0[0]) / wall,
        "service.backends.hop_ms": (
            1e3 * (served_s - session_s) / batches if batches else 0.0),
        "service.worker.cpu_share": (
            (cpu1[1] - cpu0[1]) / wall if n_workers else 0.0),
    }


def _codec_layers(packets: Sequence[tuple]) -> Dict[str, float]:
    """Client encode and front-door decode/validate, timed in-process on
    one pass of the workload's batches and the wire bytes they make."""
    from repro.service import protocol
    from repro.service.client import _packet_obj

    n = len(packets)
    batches = [packets[i:i + BATCH] for i in range(0, n, BATCH)]
    encode_s, decode_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        lines = [
            protocol.encode(protocol.ingest("bench", [_packet_obj(p) for p in b], i))
            for i, b in enumerate(batches)
        ]
        t1 = time.perf_counter()
        for line in lines:
            protocol.parse_ingest(protocol.decode(line))
        t2 = time.perf_counter()
        encode_s.append(t1 - t0)
        decode_s.append(t2 - t1)
    return {
        "service.client.encode_us_per_pkt": 1e6 * median(encode_s) / n,
        "service.protocol.decode_us_per_pkt": 1e6 * median(decode_s) / n,
    }


def _session_layers(tool, packets) -> Dict[str, float]:
    """The session-stage split: the workload's per-deployment traffic
    replayed in-process under stage spans."""
    from repro.core.streaming import StreamingDiagnosisSession
    from repro.obs import MetricsRegistry, Tracer, set_registry

    # Untraced first: the session's share of the served time per packet.
    session = StreamingDiagnosisSession(tool, max_closed_incidents=10000)
    t0 = time.perf_counter()
    for packet in packets:
        session.push_packet(*packet)
    wall = time.perf_counter() - t0

    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    counts: Counter = Counter()
    previous = set_registry(registry)
    try:
        session = StreamingDiagnosisSession(
            tool, max_closed_incidents=10000, registry=registry)
        with L.session_stage_spans(tracer, counts):
            for packet in packets:
                session.push_packet(*packet)
    finally:
        set_registry(previous)
    rows = L.session_stage_metrics(tracer, registry, counts, session.n_states,
                                   session.n_exceptions)
    rows["session.us_per_pkt"] = 1e6 * wall / len(packets)
    return rows


def _traced_client(tracer):
    """Spans around the SDK's submit and the wire encode inside it."""
    from repro.service import protocol
    from repro.service.client import ServiceClient

    return L.wrapped([
        (protocol, "encode",
         lambda fn: L.spanning(tracer, "service.client.encode", fn)),
        (ServiceClient, "submit",
         lambda fn: L.spanning(tracer, "service.client.submit", fn)),
    ])


def _queue_peak(sink: Sink) -> int:
    shards = get_json(sink.http_port, "/metrics")["deployments"].values()
    return max((d.get("queue_peak_packets", 0) for d in shards), default=0)


def _prometheus(sink: Sink) -> str:
    status, body = get(sink.http_port, "/metrics?format=prometheus")
    if status != "200":
        raise ConnectionError(f"prometheus scrape -> HTTP {status}")
    return body.decode("utf-8")


# ----------------------------------------------------------------------
# ingest-flat
# ----------------------------------------------------------------------


def run_flat(fx: Fixtures, seed: int, seconds: float, workdir: Path,
             trace: bool = False) -> WorkloadResult:
    from repro.obs import Tracer
    from repro.service import protocol
    from repro.service.client import ServiceClient

    result = WorkloadResult("ingest-flat")
    tool, traffic = _load(fx, fx.citysee_path, seed, "flat")
    n = len(traffic.packets)
    deployments = [f"flat-{k}" for k in range(FLAT_DEPLOYMENTS)]
    tracer = Tracer(enabled=trace)
    sink, setups = _launch(fx, workdir, [])
    subscriber = client = None
    try:
        subscriber = Subscriber(sink.port)
        client = ServiceClient(port=sink.port)
        client.connect()
        result.ledger.check("subscriptions", subscriber.subscribe(deployments))
        prom_before = _prometheus(sink) if trace else ""
        cpu0, my_cpu0 = sink.cpu(), time.process_time()
        acks: List[List[float]] = []
        pps: List[float] = []
        cpu_us: List[float] = []
        retries = 0
        t_start = time.perf_counter()
        with _traced_client(tracer) if trace else L.wrapped([]):
            while not pps or time.perf_counter() - t_start < seconds:
                packets = traffic.shifted(len(pps))
                acks.append([])
                pass_cpu0 = sum(sink.cpu()) + time.process_time()
                t0 = time.perf_counter()
                for lo in range(0, n, BATCH):
                    batch = packets[lo:lo + BATCH]
                    for name in deployments:
                        result.ledger.attempt("batches")
                        ts = time.perf_counter()
                        try:
                            with tracer.span("bench.batch", batch=lo,
                                             deployment=name):
                                reply = client.submit(name, batch)
                        except protocol.ProtocolError as exc:
                            result.ledger.fail("batches", note=str(exc))
                            continue
                        acks[-1].append(time.perf_counter() - ts)
                        retries += reply.backpressure_retries
                seen = wait_diagnosed(
                    sink.http_port,
                    {d: (len(pps) + 1) * n for d in deployments},
                    timeout=SETTLE_TIMEOUT_S)
                pps.append(len(deployments) * n / (time.perf_counter() - t0))
                cpu_us.append(
                    1e6 * (sum(sink.cpu()) + time.process_time() - pass_cpu0)
                    / (len(deployments) * n))
        wall = time.perf_counter() - t_start
        cpu1, my_cpu1 = sink.cpu(), time.process_time()
        if trace:
            prom_after = _prometheus(sink)
        _check_packets(result, seen, len(pps) * n)
        reference = _reference(tool, traffic.repeated(len(pps)))
        subscriber.events.wait({d: len(reference.events) for d in deployments},
                               SETTLE_TIMEOUT_S)
        _check_events(result, subscriber.events, reference, deployments,
                      lambda k, i: 0.0, n)
        for error in subscriber.errors:
            result.ledger.fail("subscriptions", note=str(error))
        rss = sink.peak_rss_mb()
        queue_peak = _queue_peak(sink)
    finally:
        for closer in (subscriber, client):
            if closer is not None:
                closer.close()
        sink.stop()

    m = result.metrics
    m["setup_s"] = summarize(setups, 0.5, "s")
    m["ingest_pps"] = summarize(pps, 0.5, "pkt/s")
    m["cpu_us_per_pkt"] = summarize(cpu_us, 0.5, "us")
    m["ack_p50_ms"] = summarize_groups(acks, 0.5, "ms", 1e3)
    m["ack_p90_ms"] = summarize_groups(acks, 0.9, "ms", 1e3)
    m["peak_rss_mb"] = single(rss, "MB")
    result.info = {
        "deployments": len(deployments), "passes": len(pps),
        "packets_per_pass": n, "events_per_deployment": len(reference.events),
        "wall_s": wall,
    }
    if trace:
        result.layers.update(_server_layers(
            prom_before, prom_after, wall, cpu0, cpu1, 0))
        result.layers["service.server.queue_peak_packets"] = float(queue_peak)
        result.layers["service.server.backpressure_retries"] = float(retries)
        result.layers["loadgen.cpu_share"] = (my_cpu1 - my_cpu0) / wall
        result.layers["loadgen.lag_max_ms"] = 0.0  # closed loop: no schedule
        result.layers.update(_codec_layers(traffic.packets))
        result.layers.update(_session_layers(tool, traffic.packets))
        served_us = 1e6 / m["ingest_pps"].value
        attributed = (result.layers["service.client.encode_us_per_pkt"]
                      + result.layers["service.protocol.decode_us_per_pkt"]
                      + result.layers["session.us_per_pkt"])
        result.layers["split.served_us_per_pkt"] = served_us
        result.layers["split.unattributed_us_per_pkt"] = served_us - attributed
        result.spans_path = str(workdir / "spans-ingest-flat.jsonl")
        L.export_spans(tracer, Path(result.spans_path))
    return result


# ----------------------------------------------------------------------
# ingest-paced
# ----------------------------------------------------------------------


def run_paced(fx: Fixtures, seed: int, seconds: float, workdir: Path,
              trace: bool = False) -> WorkloadResult:
    from repro.obs import Tracer
    from repro.service import protocol
    from repro.service.client import ServiceClient

    result = WorkloadResult("ingest-paced")
    tool, traffic = _load(fx, fx.chaos_path, seed, "paced")
    n = len(traffic.packets)
    D = PACED_DEPLOYMENTS
    # At least two passes: enough scrapes for their p90 (~65 a pass).
    passes = max(2, round(seconds * PACED_RATE / (D * n)))
    packets = traffic.repeated(passes)
    deployments = [f"paced-{k}" for k in range(D)]
    # Send order: packet i of every deployment, then packet i + 1.  Item
    # g of the schedule is packet g // D of deployment g % D.
    total = D * len(packets)

    tracer = Tracer(enabled=trace)
    sink, setups = _launch(fx, workdir, [
        "--workers", str(PACED_WORKERS), "--dashboard"])
    reader = client = None
    try:
        reader = DashboardReader(sink.http_port)
        reader.start()
        client = ServiceClient(port=sink.port)
        client.connect()
        prom_before = _prometheus(sink) if trace else ""
        cpu0, my_cpu0 = sink.cpu(), time.process_time()
        retries = 0

        def send(lo: int, hi: int) -> None:
            nonlocal retries
            for k in range(D):
                batch = [packets[g // D] for g in range(lo, hi) if g % D == k]
                if not batch:
                    continue
                result.ledger.attempt("batches")
                try:
                    with tracer.span("bench.batch", batch=lo, deployment=k):
                        reply = client.submit(deployments[k], batch)
                except protocol.ProtocolError as exc:
                    result.ledger.fail("batches", note=str(exc))
                    continue
                retries += reply.backpressure_retries

        t_start = time.perf_counter() + 0.05
        due = [t_start + g / PACED_RATE for g in range(total)]
        with _traced_client(tracer) if trace else L.wrapped([]):
            loop = run_open_loop(due, send, max_batch=BATCH, tick_s=PACED_TICK_S)
        seen = wait_diagnosed(sink.http_port,
                              {d: len(packets) for d in deployments},
                              timeout=SETTLE_TIMEOUT_S)
        t_done = time.perf_counter()
        cpu1, my_cpu1 = sink.cpu(), time.process_time()
        reference = _reference(tool, packets)
        reader.events.wait({d: len(reference.events) for d in deployments},
                           SETTLE_TIMEOUT_S)
        if trace:
            prom_after = _prometheus(sink)
        reader.stop()  # before reading what it collected
        _check_packets(result, seen, len(packets))
        per_pass = _check_events(result, reader.events, reference, deployments,
                                 lambda k, i: due[i * D + k], n)
        scrapes = [s for s in reader.scrapes if s[0].startswith("/metrics")]
        topology = [s for s in reader.scrapes if s[0] == "/api/topology"]
        for path, _s, ok, _b in reader.scrapes:
            result.ledger.check("scrapes", ok, f"{path} failed")
        result.ledger.check("sse", not reader.closed_by_server,
                            "SSE stream closed by the sink (evicted)")
        evicted = prom_total(parse_prometheus(reader.last_exposition),
                             "repro_dashboard_clients_evicted_total")
        rss = sink.peak_rss_mb()
        queue_peak = _queue_peak(sink)
    finally:
        if reader is not None:
            reader.stop()
        if client is not None:
            client.close()
        sink.stop()

    wall = t_done - t_start
    groups = [per_pass.get(p, []) for p in range(passes)]
    m = result.metrics
    m["setup_s"] = summarize(setups, 0.5, "s")
    m["delivered_pps"] = single(total / wall, "pkt/s")
    m["cpu_us_per_pkt"] = single(
        1e6 * (sum(cpu1) + my_cpu1 - sum(cpu0) - my_cpu0) / total, "us")
    m["event_p50_ms"] = summarize_groups(groups, 0.5, "ms", 1e3)
    m["event_p99_ms"] = summarize_groups(groups, 0.99, "ms", 1e3)
    m["ack_p50_ms"] = summarize(loop.ack_samples(), 0.5, "ms", 1e3)
    m["ack_p90_ms"] = summarize(loop.ack_samples(), 0.9, "ms", 1e3)
    m["scrape_p50_ms"] = summarize([s[1] for s in scrapes], 0.5, "ms", 1e3)
    m["scrape_p90_ms"] = summarize([s[1] for s in scrapes], 0.9, "ms", 1e3)
    m["peak_rss_mb"] = single(rss, "MB")
    result.info = {
        "deployments": D, "passes": passes, "packets_per_pass": n,
        "rate_pps": PACED_RATE, "events_per_deployment": len(reference.events),
        "flush_events_excluded": len(reference.flush) * D,
        "wall_s": wall, "lag_max_ms": 1e3 * loop.lag_max_s,
    }
    if trace:
        result.layers.update(_server_layers(
            prom_before, prom_after, wall, cpu0, cpu1, PACED_WORKERS))
        result.layers["service.server.queue_peak_packets"] = float(queue_peak)
        result.layers["service.server.backpressure_retries"] = float(retries)
        result.layers["loadgen.lag_max_ms"] = 1e3 * loop.lag_max_s
        result.layers["loadgen.cpu_share"] = (my_cpu1 - my_cpu0) / wall
        result.layers["dashboard.sse_frames"] = float(reader.frames)
        result.layers["dashboard.evicted"] = evicted
        result.layers["dashboard.topology_ms"] = (
            1e3 * median([s[1] for s in topology]) if topology else 0.0)
        result.layers["obs.exposition_bytes"] = float(
            len(reader.last_exposition.encode("utf-8")))
        result.layers["obs.metrics_scrape_ms"] = m["scrape_p50_ms"].value
        result.layers.update(_codec_layers(traffic.packets))
        result.layers.update(_session_layers(tool, traffic.packets))
        result.spans_path = str(workdir / "spans-ingest-paced.jsonl")
        L.export_spans(tracer, Path(result.spans_path))
    return result
