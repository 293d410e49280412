"""Driving ``vn2 serve`` from outside: process, sockets and scrapes.

Nothing here imports the server.  The sink runs as a subprocess; the
benchmark talks to it over its TCP port (ingest, subscribe), its HTTP
port (``/metrics``, ``/health``, ``/api/...``) and ``/proc``.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from vn2bench.fixtures import ROOT
from vn2bench.procfs import cpu_seconds, peak_rss_mb

READY_TIMEOUT_S = 120.0


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    env["REPRO_VN2_CACHE"] = str(ROOT / ".perfbench" / "cache")
    return env


class Sink:
    """One ``vn2 serve`` subprocess on ephemeral ports."""

    def __init__(self, model_path: Path, workdir: Path, args: Sequence[str]):
        self.model_path = model_path
        self.workdir = workdir
        self.args = list(args)
        self.proc: Optional[subprocess.Popen] = None
        self.port = self.http_port = 0
        self.health: dict = {}
        self._log = None

    def start(self) -> float:
        """Launch and wait for the ready file; returns launch-to-ready s."""
        ready = self.workdir / "ready.json"
        if ready.exists():
            ready.unlink()
        self._log = open(self.workdir / "serve.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(self.model_path),
             "--port", "0", "--http-port", "0", "--ready-file", str(ready),
             *self.args],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
        )
        deadline = t0 + READY_TIMEOUT_S
        while True:
            if ready.exists():
                try:
                    doc = json.loads(ready.read_text())
                    break
                except ValueError:
                    pass  # written but not yet complete
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"vn2 serve exited with {self.proc.returncode}; "
                    f"see {self.workdir / 'serve.log'}"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("vn2 serve did not become ready")
            time.sleep(0.005)
        elapsed = time.perf_counter() - t0
        self.port, self.http_port = doc["port"], doc["http_port"]
        self.health = get_json(self.http_port, "/health")
        return elapsed

    def pids(self) -> List[int]:
        """Front door plus every shard worker."""
        workers = self.health.get("workers") or []
        return [self.proc.pid] + [w["pid"] for w in workers if w.get("pid")]

    def worker_pids(self) -> List[int]:
        return self.pids()[1:]

    def cpu(self) -> Tuple[float, float]:
        """(front door CPU s, summed worker CPU s), from ``/proc``."""
        return (
            cpu_seconds(self.proc.pid),
            sum(cpu_seconds(p) for p in self.worker_pids()),
        )

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(p) for p in self.pids())

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


def _request(path: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            "Connection: close\r\n\r\n").encode("latin-1")


def _split_response(payload: bytes) -> Tuple[str, bytes]:
    head, _, body = payload.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    return (parts[1].decode("latin-1") if len(parts) > 1 else "?"), body


def get(port: int, path: str, timeout: float = 30.0) -> Tuple[str, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(_request(path))
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    return _split_response(b"".join(chunks))


def get_json(port: int, path: str) -> dict:
    status, body = get(port, path)
    if status != "200":
        raise ConnectionError(f"GET {path} -> HTTP {status}")
    return json.loads(body)


def wait_diagnosed(http_port: int, expected: Dict[str, int],
                   timeout: float = 60.0, poll_s: float = 0.01) -> Dict[str, int]:
    """Poll ``/metrics`` until each deployment has diagnosed its packets
    and its queue is empty; returns the diagnosed counts last seen."""
    deadline = time.perf_counter() + timeout
    while True:
        doc = get_json(http_port, "/metrics")["deployments"]
        seen = {d: int(doc.get(d, {}).get("packets", 0)) for d in expected}
        done = all(
            seen[d] >= n and not doc.get(d, {}).get("queue_depth_packets")
            for d, n in expected.items()
        )
        if done or time.perf_counter() > deadline:
            return seen
        time.sleep(poll_s)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


def parse_prometheus(text: str) -> Dict[str, List[Tuple[str, float]]]:
    """``name -> [(labels, value), ...]`` for every sample line."""
    out: Dict[str, List[Tuple[str, float]]] = defaultdict(list)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        try:
            out[name].append((labels.rstrip("}"), float(value)))
        except ValueError:
            continue
    return out


def prom_total(samples, name: str) -> float:
    return sum(v for _labels, v in samples.get(name, ()))


def prom_buckets(samples, name: str) -> Dict[float, float]:
    """Cumulative bucket counts of histogram ``name`` summed over labels."""
    out: Dict[float, float] = defaultdict(float)
    for labels, value in samples.get(name + "_bucket", ()):
        for pair in labels.split(","):
            key, _, raw = pair.partition("=")
            if key.strip() == "le":
                le = raw.strip('"')
                out[float("inf") if le == "+Inf" else float(le)] += value
    return dict(out)


def histogram_quantile(before: Dict[float, float], after: Dict[float, float],
                       q: float) -> Optional[float]:
    """Quantile of the observations made between two bucket snapshots,
    interpolated linearly inside the bucket (Prometheus' rule)."""
    bounds = sorted(after)
    counts = [after[b] - before.get(b, 0.0) for b in bounds]
    total = counts[-1] if counts else 0.0
    if total <= 0:
        return None
    target = q * total
    prev_bound, prev_count = 0.0, 0.0
    for bound, count in zip(bounds, counts):
        if count >= target:
            if bound == float("inf"):
                return prev_bound
            span = count - prev_count
            frac = (target - prev_count) / span if span else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, count
    return prev_bound


# ----------------------------------------------------------------------
# event capture: raw bytes on arrival, parsed after the run
# ----------------------------------------------------------------------


class EventLog:
    """Served events per deployment, kept as raw JSON until the run ends.

    Readers only timestamp and file each message on arrival; parsing
    waits, so the reader thread takes as little of the load generator's
    interpreter time as it can.
    """

    _KEY = b'"deployment":"'

    def __init__(self):
        self.raw: Dict[str, List[Tuple[bytes, float]]] = defaultdict(list)

    def add(self, message: bytes, arrived: float) -> None:
        start = message.index(self._KEY) + len(self._KEY)
        name = message[start:message.index(b'"', start)].decode()
        self.raw[name].append((message, arrived))

    def count(self, deployment: str) -> int:
        return len(self.raw.get(deployment, ()))

    def parsed(self, deployment: str) -> List[Tuple[dict, float]]:
        return [(json.loads(m)["event"], t) for m, t in self.raw.get(deployment, ())]

    def wait(self, expected: Dict[str, int], timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if all(self.count(d) >= n for d, n in expected.items()):
                return True
            time.sleep(0.01)
        return False


# ----------------------------------------------------------------------
# TCP subscriber
# ----------------------------------------------------------------------


class Subscriber:
    """One TCP connection subscribed to many deployments.

    A reader thread timestamps every event on arrival; the caller adds
    subscriptions from its own thread and waits for each to be
    confirmed before sending the deployment any packet.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self.sock.makefile("rb")
        hello = json.loads(self._file.readline())
        if hello.get("type") != "hello":
            raise ConnectionError(f"expected hello, got {hello!r}")
        self.events = EventLog()
        self.errors: List[dict] = []
        self._confirmed: set = set()
        self._cond = threading.Condition()
        self._seq = 0
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        clock = time.perf_counter
        for line in self._file:
            arrived = clock()
            if line.startswith(b'{"v":1,"type":"event"'):
                self.events.add(line, arrived)
                continue
            message = json.loads(line)
            mtype = message.get("type")
            if mtype == "subscribed":
                with self._cond:
                    self._confirmed.add(message["deployment"])
                    self._cond.notify_all()
            elif mtype == "error":
                self.errors.append(message)

    def subscribe(self, deployments: Sequence[str], timeout: float = 10.0) -> bool:
        from repro.service import protocol

        for name in deployments:
            self._seq += 1
            self.sock.sendall(protocol.encode(protocol.subscribe(name, self._seq)))
        with self._cond:
            return self._cond.wait_for(
                lambda: self._confirmed.issuperset(deployments), timeout)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=10)
        self._file.close()
        self.sock.close()


# ----------------------------------------------------------------------
# dashboard reader: SSE stream plus operator scrapes, one thread
# ----------------------------------------------------------------------


class DashboardReader:
    """Reads ``/api/incidents/stream`` and, between frames, scrapes.

    One thread multiplexes the SSE socket and at most one in-flight
    scrape with a selector, so a frame that arrives during a scrape is
    still timestamped when it arrives.  Scrapes cycle through
    :attr:`SCRAPES` (three ``/metrics?format=prometheus`` to one
    ``/api/topology``), a new one starting ``scrape_every_s`` after the
    previous one finished.
    """

    SCRAPES = ("/metrics?format=prometheus",) * 3 + ("/api/topology",)

    def __init__(self, http_port: int, scrape_every_s: float = 0.05):
        self.http_port = http_port
        self.scrape_every_s = scrape_every_s
        self.events = EventLog()
        self.frames = 0
        self.hello = False
        self.closed_by_server = False
        #: (path, seconds, ok, n_bytes)
        self.scrapes: List[Tuple[str, float, bool, int]] = []
        self.last_exposition = ""
        self._stop = threading.Event()
        self._sse = socket.create_connection(("127.0.0.1", http_port))
        self._sse.sendall(_request("/api/incidents/stream"))
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self, timeout: float = 10.0) -> None:
        self._thread.start()
        deadline = time.perf_counter() + timeout
        while not self.hello:
            if time.perf_counter() > deadline:
                raise ConnectionError("no SSE hello frame")
            time.sleep(0.005)

    def stop(self) -> None:
        """Stop the reader thread and close the stream (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=30)
        self._sse.close()

    def _on_frame(self, block: bytes, arrived: float) -> None:
        kind = None
        data = None
        for line in block.split(b"\n"):
            if line.startswith(b"event: "):
                kind = line[7:].decode()
            elif line.startswith(b"data: "):
                data = line[6:]
        if data is None:
            return  # keepalive comment
        self.frames += 1
        if kind == "hello":
            self.hello = True
        elif kind == "incident":
            self.events.add(data, arrived)

    def _run(self) -> None:
        clock = time.perf_counter
        sel = selectors.DefaultSelector()
        sel.register(self._sse, selectors.EVENT_READ, "sse")
        buffer = b""
        headers_done = False
        scrape = None  # (socket, path, t0, chunks)
        next_scrape = clock()
        turn = 0
        try:
            while not self._stop.is_set():
                now = clock()
                if scrape is None and now >= next_scrape:
                    path = self.SCRAPES[turn % len(self.SCRAPES)]
                    turn += 1
                    t0 = clock()
                    try:
                        sock = socket.create_connection(
                            ("127.0.0.1", self.http_port), timeout=10)
                        sock.sendall(_request(path))
                        sock.setblocking(False)
                        sel.register(sock, selectors.EVENT_READ, "scrape")
                        scrape = (sock, path, t0, [])
                    except OSError:
                        self.scrapes.append((path, clock() - t0, False, 0))
                        next_scrape = clock() + self.scrape_every_s
                wait = 0.05 if scrape is not None else max(
                    min(next_scrape - clock(), 0.05), 0.0)
                for key, _mask in sel.select(timeout=wait):
                    if key.data == "sse":
                        data = self._sse.recv(65536)
                        arrived = clock()
                        if not data:
                            self.closed_by_server = True
                            sel.unregister(self._sse)
                            self._stop.set()
                            break
                        buffer += data
                        if not headers_done:
                            if b"\r\n\r\n" not in buffer:
                                continue
                            buffer = buffer.partition(b"\r\n\r\n")[2]
                            headers_done = True
                        *blocks, buffer = buffer.split(b"\n\n")
                        for block in blocks:
                            self._on_frame(block, arrived)
                    else:
                        sock, path, t0, chunks = scrape
                        try:
                            data = sock.recv(65536)
                        except BlockingIOError:
                            continue
                        if data:
                            chunks.append(data)
                            continue
                        sel.unregister(sock)
                        sock.close()
                        status, body = _split_response(b"".join(chunks))
                        ok = status == "200"
                        self.scrapes.append((path, clock() - t0, ok, len(body)))
                        if ok and path.startswith("/metrics"):
                            self.last_exposition = body.decode("utf-8")
                        scrape = None
                        next_scrape = clock() + self.scrape_every_s
        finally:
            if scrape is not None:
                scrape[0].close()
            sel.close()
