"""Network assembly: nodes + medium + MAC arbitration + sink collection.

:class:`Network` wires the substrate together and implements the two radio
primitives the nodes use:

* :meth:`transmit_data` — a unicast data frame with CSMA, PRR-drawn frame
  loss, receiver-side processing and an ACK on the reverse link;
* :meth:`broadcast_beacon` — a routing beacon delivered independently to
  every in-range neighbor.

It also owns delivery statistics (for PRR analysis) and the ground-truth
event log the evaluation harnesses compare diagnoses against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


from repro.metrics.collector import SinkCollector
from repro.simnet.ctp.forwarding import DataFrame, TxResult
from repro.simnet.environment import Environment
from repro.simnet.hardware import ClockParams, EnergyParams
from repro.simnet.kernel import Simulator
from repro.simnet.link import Medium
from repro.simnet.mac import ChannelActivity, CsmaMac, MacParams, bump_activity
from repro.simnet.node import Node
from repro.simnet.radio import RadioParams
from repro.simnet.rng import RngRegistry, uniform_reader
from repro.simnet.topology import Topology

#: Airtime of one data frame + ACK turnaround (CC2420, ~133 bytes max).
FRAME_AIRTIME_S = 0.004
ACK_AIRTIME_S = 0.001


@dataclass
class NetworkConfig:
    """All tunables of a simulation run.

    Defaults match the CitySee-style deployment (10-minute reports); the
    testbed generator overrides ``report_period_s`` to 180 s as in the
    paper's experiments.
    """

    report_period_s: float = 600.0
    beacon_min_s: float = 30.0
    beacon_max_s: float = 480.0
    maintenance_period_s: float = 60.0
    queue_capacity: int = 12
    neighbor_timeout_s: float = 1800.0
    tx_spacing_s: float = 0.05
    retry_delay_s: float = 0.15
    no_parent_retry_s: float = 10.0
    max_range_m: float = 150.0
    day_seconds: float = 86400.0
    seed: int = 0
    #: Extra sink nodes beyond ``topology.sink_id`` (multi-gateway
    #: deployments).  Every gateway delivers into the same shared
    #: :class:`~repro.metrics.collector.SinkCollector`, and CTP failover
    #: between gateways is emergent: sinks advertise path-ETX 0, so when
    #: one gateway dies its subtree re-routes to the next-cheapest one.
    gateway_ids: Tuple[int, ...] = ()
    radio: RadioParams = field(default_factory=RadioParams)
    mac: MacParams = field(default_factory=MacParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    clock: ClockParams = field(default_factory=ClockParams)


@dataclass
class NetworkStats:
    """Aggregate delivery statistics."""

    packets_generated: int = 0
    data_tx_attempts: int = 0
    data_tx_acked: int = 0
    beacons_sent: int = 0


@dataclass
class GroundTruthEvent:
    """One injected (or emergent) fault episode, for evaluation."""

    kind: str
    node_ids: Tuple[int, ...]
    start: float
    end: float


class Network:
    """A running sensor network simulation."""

    def __init__(self, topology: Topology, config: Optional[NetworkConfig] = None):
        self.topology = topology
        self.config = config or NetworkConfig()
        self.sim = Simulator()
        self.rngs = RngRegistry(self.config.seed)
        self.environment = Environment(
            rng=self.rngs.stream("environment"),
            day_seconds=self.config.day_seconds,
        )
        self.medium = Medium(
            topology=topology,
            environment=self.environment,
            params=self.config.radio,
            rng=self.rngs.stream("radio"),
            max_range=self.config.max_range_m,
        )
        self.mac = CsmaMac(self.config.mac, self.rngs.stream("mac"))
        # Frame-loss verdicts; the reader is the stream's only consumer.
        self._loss_draw = uniform_reader(self.rngs.stream("loss"))
        self.collector = SinkCollector()
        self.stats = NetworkStats()
        self.ground_truth: List[GroundTruthEvent] = []

        self._activity: Dict[int, ChannelActivity] = {
            nid: ChannelActivity(self.config.mac.activity_decay_s)
            for nid in topology.node_ids
        }
        # Cache neighbor lists once: O(1) activity bumps per transmission.
        self._neighbor_cache: Dict[int, List[int]] = {
            nid: self.medium.neighbors(nid) for nid in topology.node_ids
        }

        unknown_gateways = set(self.config.gateway_ids) - set(topology.node_ids)
        if unknown_gateways:
            raise ValueError(
                f"gateway_ids {sorted(unknown_gateways)} not in topology"
            )
        sink_ids = {topology.sink_id, *self.config.gateway_ids}
        self.nodes: Dict[int, Node] = {}
        for node_id in topology.node_ids:
            self.nodes[node_id] = Node(node_id, self, is_sink=node_id in sink_ids)

        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def sink(self) -> Node:
        """The primary sink node."""
        return self.nodes[self.topology.sink_id]

    @property
    def sink_ids(self) -> List[int]:
        """All sink/gateway node ids, ascending (primary sink included)."""
        return sorted({self.topology.sink_id, *self.config.gateway_ids})

    def start(self) -> None:
        """Arm every node's timers (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()

    def run(self, duration: float) -> None:
        """Start (if needed) and advance the simulation by ``duration`` s."""
        self.start()
        self.sim.run(duration)

    def run_until(self, end_time: float) -> None:
        """Start (if needed) and advance the simulation to ``end_time``."""
        self.start()
        self.sim.run_until(end_time)

    def record_ground_truth(
        self, kind: str, node_ids: Tuple[int, ...], start: float, end: float
    ) -> None:
        """Append an event to the ground-truth log."""
        self.ground_truth.append(GroundTruthEvent(kind, node_ids, start, end))

    def move_node(self, node_id: int, position: Tuple[float, float]) -> None:
        """Relocate a node (mobile deployments): links and caches follow.

        The medium rebuilds every link touching the node (new distances,
        freshly drawn shadowing for newly in-range pairs) and the
        neighbor/activity caches are refreshed.  Deterministic: the event
        loop is single-threaded and shadowing draws come off the medium's
        own named stream in sorted-peer order.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        self.topology.positions[node_id] = (float(position[0]), float(position[1]))
        self.medium.rebuild_links_for(node_id)
        self.nodes[node_id].sensors.set_position(self.topology.positions[node_id])
        self._neighbor_cache = {
            nid: self.medium.neighbors(nid) for nid in self.topology.node_ids
        }

    # ------------------------------------------------------------------
    # radio primitives
    # ------------------------------------------------------------------

    def _noise_rise_at(self, node_id: int, now: float) -> float:
        pos = self.topology.positions[node_id]
        return (
            self.environment.noise_floor(now, pos)
            - self.environment.base_noise_floor
        )

    def _bump_activity_around(self, node_id: int, now: float) -> None:
        activity = self._activity
        bump_activity(
            [activity[neighbor_id] for neighbor_id in self._neighbor_cache[node_id]],
            now,
            self.config.mac.activity_per_frame,
        )

    def transmit_data(
        self,
        sender: Node,
        receiver_id: int,
        frame: DataFrame,
        callback: Callable[[int, TxResult], None],
    ) -> None:
        """One unicast attempt sender -> receiver with CSMA, loss and ACK.

        All randomness is drawn immediately; the outcome is delivered to
        ``callback(receiver_id, result)`` after the computed channel delay,
        so each attempt costs a single scheduled event.
        """
        now = self.sim.now()
        attempt = self.mac.attempt(
            self._activity[sender.node_id].level(now),
            self._noise_rise_at(sender.node_id, now),
        )
        sender.counters.mac_backoff_counter += attempt.backoffs
        if not attempt.acquired:
            self.sim.schedule(
                attempt.delay_s, lambda: callback(receiver_id, TxResult.CHANNEL_FAIL)
            )
            return

        self.stats.data_tx_attempts += 1
        sender.counters.transmit_counter += 1
        sender.hardware.on_transmit()
        self._bump_activity_around(sender.node_id, now)

        result = self._resolve_delivery(sender, receiver_id, frame, now)
        if result is TxResult.ACKED:
            self.stats.data_tx_acked += 1
        total_delay = attempt.delay_s + FRAME_AIRTIME_S + ACK_AIRTIME_S
        self.sim.schedule(total_delay, lambda: callback(receiver_id, result))

    def _resolve_delivery(
        self, sender: Node, receiver_id: int, frame: DataFrame, now: float
    ) -> TxResult:
        receiver = self.nodes.get(receiver_id)
        if receiver is None or not receiver.alive:
            return TxResult.NOACK_LOST
        p_data = self.medium.frame_success_probability(
            sender.node_id, receiver_id, now
        )
        if self._loss_draw() >= p_data:
            return TxResult.NOACK_LOST

        receiver.hardware.on_receive()
        verdict = receiver.forwarding.on_frame_received(frame)
        if verdict.loop_detected:
            receiver.routing.on_loop_detected()
        if verdict.delivered_at_sink:
            self.collector.deliver(frame.report, received_at=now)
        if verdict.accepted and not receiver.is_sink:
            receiver.schedule_service()
        if not verdict.send_ack:
            return TxResult.NOACK_OVERFLOW

        receiver.counters.ack_counter += 1
        receiver.hardware.on_transmit()
        p_ack = self.medium.frame_success_probability(
            receiver_id, sender.node_id, now
        )
        if self._loss_draw() >= p_ack:
            return TxResult.NOACK_ACK_LOST
        return TxResult.ACKED

    def broadcast_beacon(self, sender: Node) -> None:
        """Broadcast a routing beacon to every in-range, living neighbor."""
        now = self.sim.now()
        beacon = sender.routing.make_beacon()
        self.stats.beacons_sent += 1
        sender.hardware.on_transmit()
        self._bump_activity_around(sender.node_id, now)
        medium = self.medium
        for neighbor_id in self._neighbor_cache[sender.node_id]:
            receiver = self.nodes[neighbor_id]
            if not receiver.alive:
                continue
            # One RSSI sample serves both the PRR and the receiver: the
            # link's fading has already advanced to ``now``.
            rssi = medium.rssi(sender.node_id, neighbor_id, now)
            p = (
                0.0 if rssi is None
                else medium.reception_probability(neighbor_id, rssi, now)
            )
            if self._loss_draw() < p:
                receiver.on_beacon_received(beacon, rssi)

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------

    def delivery_ratio(self) -> float:
        """Fraction of generated report packets that reached the sink."""
        if self.stats.packets_generated == 0:
            return 0.0
        return self.collector.packets_received / self.stats.packets_generated

    def alive_node_count(self) -> int:
        """Number of living nodes (including the sink if alive)."""
        return sum(1 for n in self.nodes.values() if n.alive)
