"""Shard backends: where a deployment's diagnosis session actually runs.

PR 4 built the sink as one asyncio process — the front door *was* the
shard host.  This module splits that coupling: the server keeps the
listeners, wire protocol and backpressure contract, and delegates shard
execution to a :class:`ShardBackend`:

* :class:`InprocBackend` — the original architecture, unchanged: one
  :class:`~repro.service.server.DeploymentShard` (session + bounded
  queue + worker task) per deployment, inside the server process.  The
  default, and bit-identical to the pre-split server.
* :class:`ProcessPoolBackend` — shards live in a pool of worker
  processes (:mod:`repro.service.worker` children driven through
  :class:`repro.runner.pool.ProcessPool`), routed by consistent hashing
  on the deployment name (:class:`HashRing`).  The front door validates
  and sequences batches, fans them out over FIFO pipes, and merges the
  returned incident-event streams — per-deployment ordering holds
  because one deployment maps to one worker and both pipe directions
  are FIFO.

Failure semantics of the pool backend (the cluster's contract):

* **Backpressure** is still per deployment and still explicit: a route
  tracks packets sent-but-unacked, and a batch that would push it past
  ``queue_size`` is rejected with ``retry_after`` — never dropped.
* **Worker death** is observed as pipe EOF.  The dead worker leaves the
  hash ring, its deployments remap to survivors (minimal movement —
  that is the point of the ring), and every unacked batch is replayed
  in order to the new owner, whose session materializes fresh on the
  first replayed packet.  Delivery is therefore *at least once* across
  a crash: a batch the dead worker had half-diagnosed is diagnosed
  again, but no accepted packet is ever lost.
* **Graceful drain** (SIGTERM) broadcasts ``drain_all``; pipe FIFO
  guarantees every accepted batch is diagnosed before the worker
  flushes open incidents and reports ``w_bye`` with its final metrics
  dump and span trees.

Metrics: each route keeps front-door :class:`ShardCounters` (labelled
``{"deployment"}``, exactly like inproc), workers keep their sessions'
series labelled ``{"deployment", "worker"}``, and the merged Prometheus
scrape is rendered via :func:`repro.obs.merge_dumps` over the front
door's registry dump plus the latest dump from every worker.
"""

from __future__ import annotations

import asyncio
import bisect
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import get_tracer, merge_dumps
from repro.service import protocol
from repro.service.metrics import (
    LatencyWindow,
    ShardCounters,
    empty_session_counters,
)

__all__ = [
    "HashRing",
    "InprocBackend",
    "ModelSwap",
    "ProcessPoolBackend",
    "ShardBackend",
    "make_backend",
]


@dataclass
class ModelSwap:
    """In-queue rotation command for inproc shards.

    The inproc backend rotates by enqueuing one of these into every
    shard's packet queue: the shard loop applies it strictly between two
    batches — the same FIFO-boundary guarantee the pool backend gets from
    its worker pipes — and resolves ``future`` with the session's
    rotation boundary.
    """

    tool: object
    future: asyncio.Future


class HashRing:
    """Consistent hashing over worker ids (sha256, virtual nodes).

    ``lookup(key)`` walks clockwise from the key's point to the next
    virtual node.  Removing a node only remaps the keys that hashed to
    its arcs — the property the cluster's worker-death handoff relies on
    to move as few deployments as possible.
    """

    def __init__(self, nodes=(), replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self.nodes: Set[str] = set()
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        if node in self.nodes:
            return
        self.nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self.nodes:
            return
        self.nodes.discard(node)
        kept = [
            (p, o) for p, o in zip(self._points, self._owners) if o != node
        ]
        self._points = [p for p, _ in kept]
        self._owners = [o for _, o in kept]

    def lookup(self, key: str) -> Optional[str]:
        """The node owning ``key`` (None when the ring is empty)."""
        if not self._points:
            return None
        index = bisect.bisect(self._points, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]


class ShardBackend:
    """What the front door needs from a shard host.

    Sync methods run on the server's event loop (dispatch path); async
    methods are awaited by lifecycle and HTTP handlers.  ``try_enqueue``
    must be atomic — either the whole batch is accepted (and will be
    diagnosed exactly in order within its deployment) or nothing is.
    """

    name = "abstract"

    async def start(self) -> None:
        raise NotImplementedError

    async def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """True once every shard host is confirmed healthy."""
        raise NotImplementedError

    def try_enqueue(self, deployment: str, packets, now: float) -> Tuple[bool, int]:
        """Atomically accept or backpressure one batch → (accepted, queued)."""
        raise NotImplementedError

    def deployments(self) -> List[str]:
        """Names of every materialized shard/route."""
        raise NotImplementedError

    def subscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        raise NotImplementedError

    def unsubscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        raise NotImplementedError

    async def drain(self) -> None:
        """Diagnose everything accepted, flush open incidents, shut down."""
        raise NotImplementedError

    async def abort(self) -> None:
        """Shut down without draining (the fast test-teardown path)."""
        raise NotImplementedError

    def shard_snapshots(self) -> Dict[str, dict]:
        """Per-deployment ``/metrics`` entries (may be a beat stale)."""
        raise NotImplementedError

    async def refresh(self) -> None:
        """Pull fresh state from the shard hosts (no-op inproc)."""

    async def rotate_model(self, tool) -> Dict[str, dict]:
        """Atomically swap every live session to ``tool`` mid-stream.

        Returns deployment → rotation boundary (``{"packets", "states"}``)
        for every shard that existed when the rotation landed.  The swap
        is a FIFO barrier per shard: no batch is split across models, no
        event is dropped, duplicated or reordered.
        """
        raise NotImplementedError

    async def collect_refit_states(self) -> Tuple[Dict[str, object], Dict[str, float]]:
        """Drain retained exception states and drift scores per shard.

        Returns ``(states, drift)``: deployment → drained
        :class:`~repro.core.states.StateMatrix` (omitted when empty) and
        deployment → drift score.
        """
        raise NotImplementedError

    async def prometheus_text(self) -> str:
        raise NotImplementedError

    async def registry_snapshot(self) -> dict:
        """The registry's JSON snapshot, merged across all processes
        (``GET /api/series`` — the dashboard's sparkline feed)."""
        raise NotImplementedError

    async def incidents_doc(self, deployment: Optional[str] = None) -> dict:
        raise NotImplementedError

    async def node_summaries_doc(
        self, deployment: Optional[str] = None
    ) -> Dict[str, list]:
        """Deployment → per-node summary list (the ``/api/topology`` feed).

        Summaries come from each live session's
        :meth:`~repro.core.streaming.StreamingDiagnosisSession.node_summaries`;
        in cluster mode one deployment lives on exactly one worker, so
        merging per-worker answers never collides.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        """The ``/health`` backend section (worker ids/pids/liveness)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# in-process backend (the PR 4 architecture, verbatim)
# --------------------------------------------------------------------------


class InprocBackend(ShardBackend):
    """Shards as asyncio tasks inside the server process (the default)."""

    name = "inproc"

    def __init__(self, service):
        self.service = service
        #: Exposed as ``DiagnosisService.shards`` for compatibility —
        #: tests and benchmarks poke shard internals through it.
        self.shards: Dict[str, object] = {}

    async def start(self) -> None:
        pass

    async def wait_ready(self, timeout: Optional[float] = None) -> bool:
        return True

    def shard(self, deployment: str):
        shard = self.shards.get(deployment)
        if shard is None:
            from repro.service.server import DeploymentShard

            shard = self.shards[deployment] = DeploymentShard(
                deployment, self.service
            )
            self.service._deployment_materialized(deployment)
        return shard

    def try_enqueue(self, deployment: str, packets, now: float) -> Tuple[bool, int]:
        shard = self.shard(deployment)
        accepted = shard.try_enqueue(packets, now)
        return accepted, shard.pending

    def deployments(self) -> List[str]:
        return list(self.shards)

    def subscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        self.shard(deployment).subscribers.add(outbox)

    def unsubscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        shard = self.shards.get(deployment)
        if shard is not None:
            shard.subscribers.discard(outbox)

    async def drain(self) -> None:
        for shard in self.shards.values():
            await shard.drain()

    async def abort(self) -> None:
        for shard in self.shards.values():
            shard.worker.cancel()

    def shard_snapshots(self) -> Dict[str, dict]:
        return {
            name: shard.snapshot()
            for name, shard in sorted(self.shards.items())
        }

    async def rotate_model(self, tool) -> Dict[str, dict]:
        """Swap every shard to ``tool`` via an in-queue :class:`ModelSwap`.

        The sentinel rides the same bounded queue as packet batches, so
        the shard loop applies it strictly between two batches — exactly
        the FIFO boundary the pool backend gets from its worker pipes.
        ``service.tool`` is updated first so shards materialized during
        the rotation start on the new model from their first packet.
        """
        self.service.tool = tool
        loop = asyncio.get_running_loop()
        waits = []
        for name, shard in sorted(self.shards.items()):
            swap = ModelSwap(tool=tool, future=loop.create_future())
            shard.queue.put_nowait(swap)
            waits.append((name, swap.future))
        return {name: await future for name, future in waits}

    async def collect_refit_states(self) -> Tuple[Dict[str, object], Dict[str, float]]:
        states: Dict[str, object] = {}
        drift: Dict[str, float] = {}
        for name, shard in sorted(self.shards.items()):
            drained = shard.session.drain_exception_states()
            if len(drained):
                states[name] = drained
            drift[name] = shard.session.drift_score
        return states, drift

    async def prometheus_text(self) -> str:
        return self.service.registry.to_prometheus()

    async def registry_snapshot(self) -> dict:
        return self.service.registry.snapshot()

    async def incidents_doc(self, deployment: Optional[str] = None) -> dict:
        names = (
            [deployment] if deployment is not None else sorted(self.shards)
        )
        out = {}
        for name in names:
            shard = self.shards.get(name)
            if shard is None:
                continue
            out[name] = _tracker_doc(shard.session.tracker)
        return out

    async def node_summaries_doc(
        self, deployment: Optional[str] = None
    ) -> Dict[str, list]:
        names = (
            [deployment] if deployment is not None else sorted(self.shards)
        )
        out = {}
        for name in names:
            shard = self.shards.get(name)
            if shard is not None:
                out[name] = shard.session.node_summaries()
        return out

    def describe(self) -> dict:
        return {"backend": self.name, "workers": []}


def _tracker_doc(tracker) -> dict:
    return {
        "open": [
            protocol.incident_obj(i) for i in tracker.open_incidents()
        ],
        "closed": [protocol.incident_obj(i) for i in tracker.incidents],
        "closed_total": tracker.n_closed_total,
        "evicted": tracker.n_evicted,
    }


# --------------------------------------------------------------------------
# multi-process backend
# --------------------------------------------------------------------------


class ShardRoute:
    """Front-door state for one deployment routed to a pool worker."""

    def __init__(self, name: str, backend: "ProcessPoolBackend"):
        service = backend.service
        config = service.config
        labels = {"deployment": name}
        self.name = name
        self.worker_id: Optional[str] = backend.ring.lookup(name)
        self.pending = 0  #: packets sent to the worker, not yet acked
        self.peak_pending = 0
        self.batch_seq = 0
        #: batch_id -> (packets, enqueued_at); insertion order is send
        #: order, which is what a crash replay must preserve.
        self.unacked: "OrderedDict[int, tuple]" = OrderedDict()
        self.counters = ShardCounters(
            latency=LatencyWindow(config.latency_window),
            registry=service.registry,
            labels=labels,
        )
        self.subscribers: Set[asyncio.Queue] = set()
        #: Latest session counters reported by the owning worker.
        self.session_counters: dict = empty_session_counters()
        ref = weakref.ref(self)
        service.registry.gauge(
            "repro_service_queue_depth_packets",
            "Packets queued but not yet diagnosed",
            labels,
            fn=lambda: float(ref().pending) if ref() is not None else 0.0,
        )
        service.registry.gauge(
            "repro_service_subscribers",
            "Live event subscribers of this deployment",
            labels,
            fn=lambda: (
                float(len(ref().subscribers)) if ref() is not None else 0.0
            ),
        )

    def publish(self, events: List[dict]) -> None:
        """Fan worker-produced incident-event objects out to subscribers.

        ``events`` are :func:`protocol.incident_event_obj` dicts exactly
        as the worker's session emitted them, so the framed messages are
        byte-identical to the inproc backend's.
        """
        if not events:
            return
        self.counters.add_events_emitted(len(events))
        if not self.subscribers:
            return
        messages = [
            {
                "v": protocol.PROTOCOL_VERSION,
                "type": "event",
                "deployment": self.name,
                "event": event,
            }
            for event in events
        ]
        for outbox in self.subscribers:
            for message in messages:
                outbox.put_nowait(message)

    def snapshot(self) -> dict:
        return {
            **empty_session_counters(),
            **self.session_counters,
            **self.counters.snapshot(),
            "queue_depth_packets": self.pending,
            "queue_peak_packets": self.peak_pending,
            "subscribers": len(self.subscribers),
            "worker": self.worker_id,
        }


class ProcessPoolBackend(ShardBackend):
    """Shards in a pool of worker processes, consistent-hash routed."""

    name = "pool"

    def __init__(self, service, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.service = service
        self.n_workers = n_workers
        self.ring = HashRing()
        self.routes: Dict[str, ShardRoute] = {}
        self.pool = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready: Optional[asyncio.Event] = None
        self._draining = False
        #: worker_id -> {"pid", "hello", "beats", "last_beat", "alive",
        #:               "bye": Future}
        self._workers: Dict[str, dict] = {}
        #: worker_id -> latest registry dump (w_metrics or w_bye).
        self._dumps: Dict[str, dict] = {}
        self._req_seq = 0
        #: req id -> {"waiting": set, "future", "replies": dict}
        self._requests: Dict[int, dict] = {}
        registry = service.registry
        self._m_handoffs = registry.counter(
            "repro_service_worker_handoffs_total",
            "Deployments remapped off a dead worker",
        )
        self._m_replayed = registry.counter(
            "repro_service_packets_replayed_total",
            "Packets resent to a surviving worker after a crash",
        )
        self._m_worker_errors = registry.counter(
            "repro_service_worker_errors_total",
            "w_error messages received from shard workers",
        )
        self._m_pump_errors = registry.counter(
            "repro_errors_total",
            "Exceptions caught and counted instead of propagated, by site",
            labels={"site": "pool.pump"},
        )
        registry.gauge(
            "repro_service_workers_alive",
            "Live shard worker processes",
            fn=lambda: float(len(self.ring.nodes)),
        )

    # -- lifecycle -----------------------------------------------------

    def _worker_options(self) -> dict:
        config = self.service.config
        return {
            "positions": config.positions,
            "threshold_ratio": config.threshold_ratio,
            "max_epoch_gap": config.max_epoch_gap,
            "min_strength": config.min_strength,
            "time_gap_s": config.time_gap_s,
            "radius_m": config.radius_m,
            "max_closed_incidents": config.max_closed_incidents,
            "keep_exception_states": config.keep_exception_states,
            "heartbeat_s": config.heartbeat_s,
        }

    async def start(self) -> None:
        from repro.runner.pool import ProcessPool
        from repro.service.worker import worker_main

        self._loop = asyncio.get_running_loop()
        self._ready = asyncio.Event()
        self.pool = ProcessPool(
            worker_main,
            self.n_workers,
            args=(self.service.tool, self._worker_options()),
            on_message=self._on_pipe_message,
        )
        self.pool.start()
        for worker_id in self.pool.workers:
            self.ring.add(worker_id)
            self._workers[worker_id] = {
                "pid": self.pool.workers[worker_id].pid,
                "hello": False,
                "beats": 0,
                "last_beat": None,
                "alive": True,
                "bye": self._loop.create_future(),
            }

    async def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """True once every worker has reported a healthy heartbeat."""
        assert self._ready is not None, "backend not started"
        try:
            await asyncio.wait_for(self._ready.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def drain(self) -> None:
        """Graceful shutdown: every accepted packet diagnosed, incidents
        flushed (published to subscribers), workers exited via ``w_bye``."""
        self._draining = True
        if self.pool is None:
            return
        byes = [
            info["bye"] for info in self._workers.values()
            if info["alive"] and not info["bye"].done()
        ]
        self.pool.broadcast(protocol.drain_all())
        if byes:
            await asyncio.wait(
                byes, timeout=self.service.config.drain_timeout_s
            )
        await asyncio.to_thread(self.pool.stop, 5.0)

    async def abort(self) -> None:
        self._draining = True
        if self.pool is not None:
            await asyncio.to_thread(self.pool.terminate)

    # -- dispatch path -------------------------------------------------

    def route(self, deployment: str) -> ShardRoute:
        route = self.routes.get(deployment)
        if route is None:
            route = self.routes[deployment] = ShardRoute(deployment, self)
            if route.worker_id is not None:
                self.pool.send(
                    route.worker_id,
                    protocol.assign(deployment, route.worker_id),
                )
            self.service._deployment_materialized(deployment)
        return route

    def try_enqueue(self, deployment: str, packets, now: float) -> Tuple[bool, int]:
        route = self.route(deployment)
        if route.worker_id is None:
            # The ring was empty at route creation (all workers dead);
            # a later lookup may succeed if that ever changes.
            route.worker_id = self.ring.lookup(deployment)
        config = self.service.config
        if (
            route.worker_id is None
            or route.pending + len(packets) > config.queue_size
        ):
            route.counters.add_batch_rejected()
            return False, route.pending
        route.batch_seq += 1
        batch_id = route.batch_seq
        route.unacked[batch_id] = (packets, now)
        route.pending += len(packets)
        route.peak_pending = max(route.peak_pending, route.pending)
        route.counters.add_batch_accepted(len(packets))
        self.pool.send(
            route.worker_id,
            protocol.shard_ingest(deployment, batch_id, packets),
        )
        return True, route.pending

    def deployments(self) -> List[str]:
        return list(self.routes)

    def subscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        self.route(deployment).subscribers.add(outbox)

    def unsubscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        route = self.routes.get(deployment)
        if route is not None:
            route.subscribers.discard(outbox)

    # -- pipe messages (reader thread -> event loop) -------------------

    def _on_pipe_message(self, worker_id: str, message: dict) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._handle, worker_id, message)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _handle(self, worker_id: str, message: dict) -> None:
        from repro.runner.pool import WORKER_LOST

        mtype = message.get("type")
        if mtype == WORKER_LOST:
            self._on_worker_lost(worker_id)
            return
        info = self._workers.get(worker_id)
        if info is None:
            return
        if mtype == "w_hello":
            info["hello"] = True
            info["pid"] = message.get("pid", info["pid"])
        elif mtype == "w_heartbeat":
            info["beats"] += 1
            info["last_beat"] = message.get("ts")
            self._check_ready()
        elif mtype == "w_ack":
            route = self.routes.get(message["deployment"])
            if route is None:
                return
            entry = route.unacked.pop(message["batch_id"], None)
            if entry is not None:
                packets, enqueued_at = entry
                route.pending -= len(packets)
                route.counters.observe_latency(
                    time.monotonic() - enqueued_at
                )
            if message.get("counters"):
                route.session_counters = message["counters"]
            route.publish(message.get("events") or [])
        elif mtype == "w_drained":
            route = self.routes.get(message["deployment"])
            if route is not None:
                if message.get("counters"):
                    route.session_counters = message["counters"]
                route.publish(message.get("events") or [])
        elif mtype == "w_bye":
            self._dumps[worker_id] = message.get("dump") or {}
            spans = message.get("spans") or []
            if spans:
                from repro.runner.pool import attach_span_trees

                attach_span_trees(
                    get_tracer(), list(enumerate(spans))
                )
            if not info["bye"].done():
                info["bye"].set_result(True)
        elif mtype in (
            "w_metrics", "w_incidents", "w_model", "w_states", "w_topology"
        ):
            if mtype == "w_metrics":
                self._dumps[worker_id] = message.get("dump") or {}
                for shard in message.get("shards") or []:
                    route = self.routes.get(shard.get("deployment"))
                    if route is not None:
                        route.session_counters = {
                            k: v for k, v in shard.items()
                            if k != "deployment"
                        }
            request = self._requests.get(message.get("req"))
            if request is not None and worker_id in request["waiting"]:
                request["waiting"].discard(worker_id)
                request["replies"][worker_id] = message
                if not request["waiting"] and not request["future"].done():
                    request["future"].set_result(request["replies"])
        elif mtype == "w_error":
            self._m_worker_errors.inc()

    def _check_ready(self) -> None:
        if self._ready is None or self._ready.is_set():
            return
        if all(
            info["hello"] and info["beats"] >= 1
            for info in self._workers.values()
        ):
            self._ready.set()

    def _on_worker_lost(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is None or not info["alive"]:
            return
        info["alive"] = False
        self.ring.remove(worker_id)
        if not info["bye"].done():
            # Death during drain: unblock the waiter; the worker's
            # accepted-but-undiagnosed work is gone with it.
            info["bye"].set_result(False)
        # A dead worker will never answer an in-flight operator query
        # (metrics/incidents/model/states): drop it from every pending
        # request so gathers resolve with the survivors' replies instead
        # of stalling to the timeout.
        for request in self._requests.values():
            if worker_id in request["waiting"]:
                request["waiting"].discard(worker_id)
                if not request["waiting"] and not request["future"].done():
                    request["future"].set_result(request["replies"])
        if self._draining:
            return
        for route in self.routes.values():
            if route.worker_id != worker_id:
                continue
            new_worker = self.ring.lookup(route.name)
            route.worker_id = new_worker
            self._m_handoffs.inc()
            if new_worker is None:
                continue  # no survivors: unacked kept, ingest backpressures
            self.pool.send(
                new_worker, protocol.assign(route.name, new_worker)
            )
            replayed = 0
            for batch_id, (packets, _t0) in route.unacked.items():
                self.pool.send(
                    new_worker,
                    protocol.shard_ingest(route.name, batch_id, packets),
                )
                replayed += len(packets)
            if replayed:
                self._m_replayed.inc(replayed)

    # -- chaos / introspection -----------------------------------------

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL one worker (the chaos hook CI's cluster job uses)."""
        self.pool.kill(worker_id)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "workers": [
                {
                    "id": worker_id,
                    "pid": info["pid"],
                    "alive": info["alive"],
                    "beats": info["beats"],
                }
                for worker_id, info in sorted(self._workers.items())
            ],
        }

    def shard_snapshots(self) -> Dict[str, dict]:
        return {
            name: route.snapshot()
            for name, route in sorted(self.routes.items())
        }

    # -- operator queries ----------------------------------------------

    def _begin_request(self, alive: List[str]):
        self._req_seq += 1
        req = self._req_seq
        request = {
            "waiting": set(alive),
            "replies": {},
            "future": self._loop.create_future(),
        }
        self._requests[req] = request
        return req, request

    async def _gather(self, request, timeout: float) -> dict:
        try:
            return await asyncio.wait_for(request["future"], timeout)
        except asyncio.TimeoutError:
            return request["replies"]

    async def refresh(self, timeout: float = 5.0) -> None:
        """Pull a fresh registry dump + session counters from every worker."""
        if self.pool is not None:
            # The pump threads count into the pool; publish the count here,
            # on the loop, where every scrape passes first.
            self._m_pump_errors.inc(
                self.pool.callback_errors - self._m_pump_errors.value
            )
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive or self._draining:
            return
        req, request = self._begin_request(alive)
        try:
            for worker_id in alive:
                self.pool.send(worker_id, protocol.metrics_query(req))
            await self._gather(request, timeout)
        finally:
            self._requests.pop(req, None)

    async def prometheus_text(self) -> str:
        await self.refresh()
        merged = merge_dumps(
            [self.service.registry.dump()] + list(self._dumps.values())
        )
        return merged.to_prometheus()

    async def registry_snapshot(self) -> dict:
        await self.refresh()
        merged = merge_dumps(
            [self.service.registry.dump()] + list(self._dumps.values())
        )
        return merged.snapshot()

    async def node_summaries_doc(
        self, deployment: Optional[str] = None, timeout: float = 5.0
    ) -> Dict[str, list]:
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive:
            return {}
        req, request = self._begin_request(alive)
        try:
            for worker_id in alive:
                self.pool.send(
                    worker_id, protocol.topology_query(req, deployment)
                )
            replies = await self._gather(request, timeout)
        finally:
            self._requests.pop(req, None)
        out: Dict[str, list] = {}
        for reply in replies.values():
            out.update(reply.get("nodes") or {})
        return dict(sorted(out.items()))

    async def incidents_doc(
        self, deployment: Optional[str] = None, timeout: float = 5.0
    ) -> dict:
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive:
            return {}
        req, request = self._begin_request(alive)
        try:
            for worker_id in alive:
                self.pool.send(
                    worker_id, protocol.incidents_query(req, deployment)
                )
            replies = await self._gather(request, timeout)
        finally:
            self._requests.pop(req, None)
        out: dict = {}
        for reply in replies.values():
            out.update(reply.get("incidents") or {})
        return dict(sorted(out.items()))

    async def rotate_model(self, tool, timeout: float = 30.0) -> Dict[str, dict]:
        """Broadcast ``model_update`` and gather per-shard boundaries.

        Each worker's pipe is FIFO, so the update lands strictly between
        two ingest batches on every shard it owns — the same no-split
        guarantee the inproc sentinel gives.  ``service.tool`` is updated
        too, keeping ``/health`` and future restarts consistent.
        """
        self.service.tool = tool
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive or self._draining:
            return {}
        req, request = self._begin_request(alive)
        try:
            version = tool.model_version
            for worker_id in alive:
                self.pool.send(
                    worker_id, protocol.model_update(req, tool, version)
                )
            replies = await self._gather(request, timeout)
        finally:
            self._requests.pop(req, None)
        boundaries: Dict[str, dict] = {}
        for reply in replies.values():
            boundaries.update(reply.get("boundaries") or {})
        return dict(sorted(boundaries.items()))

    async def collect_refit_states(
        self, timeout: float = 10.0
    ) -> Tuple[Dict[str, object], Dict[str, float]]:
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive or self._draining:
            return {}, {}
        req, request = self._begin_request(alive)
        try:
            for worker_id in alive:
                self.pool.send(worker_id, protocol.states_query(req))
            replies = await self._gather(request, timeout)
        finally:
            self._requests.pop(req, None)
        states: Dict[str, object] = {}
        drift: Dict[str, float] = {}
        for reply in replies.values():
            states.update(reply.get("states") or {})
            drift.update(reply.get("drift") or {})
        return states, drift


def make_backend(service) -> ShardBackend:
    """Pick a backend from the service config.

    ``backend="auto"`` (the default) selects inproc for ``workers <= 1``
    — keeping the single-worker server literally the PR 4 code path, the
    differential anchor — and the process pool above that.  ``"pool"``
    forces the pool even at one worker (the cluster tests' fixture).
    """
    config = service.config
    choice = getattr(config, "backend", "auto")
    workers = getattr(config, "workers", 0)
    if choice == "inproc" or (choice == "auto" and workers <= 1):
        return InprocBackend(service)
    if choice in ("auto", "pool"):
        return ProcessPoolBackend(service, max(1, workers))
    raise ValueError(f"unknown backend {choice!r}")
