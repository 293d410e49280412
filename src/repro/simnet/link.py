"""Per-link state and the shared radio medium.

A :class:`Link` is a *directed* channel a -> b.  Its RSSI at time t is

    tx_power - path_loss(d) + shadowing + fading(t) - degradation(t)

where shadowing is static per link, fading is an Ornstein-Uhlenbeck process
updated lazily (only when the link is actually used), and degradation is
injected by faults.  The :class:`Medium` owns every link within radio range
plus the environment's noise floor, and answers the two questions the upper
layers ask: *what RSSI does b see from a right now* and *with what
probability does a single frame from a reach b*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simnet.environment import Environment
from repro.simnet.radio import RadioParams, path_loss_db, prr_from_snr
from repro.simnet.topology import Topology


@dataclass
class DegradationWindow:
    """Extra attenuation applied to a link during [start, end)."""

    start: float
    end: float
    extra_db: float

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end


class Link:
    """Directed link a -> b with static shadowing and temporal fading.

    ``distance``, ``shadowing_db`` and the radio params are fixed for the
    link's lifetime (a relocation builds new links), so the static part of
    the RSSI sum is computed once.
    """

    __slots__ = (
        "src",
        "dst",
        "distance",
        "shadowing_db",
        "_static_db",
        "_fade_db",
        "_fade_time",
        "_params",
        "_rng",
        "degradations",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        distance: float,
        shadowing_db: float,
        params: RadioParams,
        rng: np.random.Generator,
    ):
        self.src = src
        self.dst = dst
        self.distance = distance
        self.shadowing_db = shadowing_db
        # The left-associative prefix of the sum in rssi(): same float.
        self._static_db = (
            params.tx_power_dbm - path_loss_db(distance, params) + shadowing_db
        )
        self._fade_db = 0.0
        self._fade_time = 0.0
        self._params = params
        self._rng = rng
        self.degradations: List[DegradationWindow] = []

    def _fading(self, time: float) -> float:
        """Advance the OU fading process lazily to ``time`` and sample it."""
        dt = time - self._fade_time
        if dt > 0:
            params = self._params
            decay = math.exp(-dt / params.fading_tau_s)
            noise_scale = params.fading_sigma_db * math.sqrt(
                max(0.0, 1.0 - decay * decay)
            )
            self._fade_db = self._fade_db * decay + float(
                self._rng.normal(0.0, 1.0)
            ) * noise_scale
            self._fade_time = time
        return self._fade_db

    def _degradation(self, time: float) -> float:
        return sum(w.extra_db for w in self.degradations if w.active_at(time))

    def add_degradation(self, window: DegradationWindow) -> None:
        self.degradations.append(window)

    def rssi(self, time: float) -> float:
        """Received signal strength (dBm) at ``dst`` for a frame from ``src``."""
        rssi = self._static_db + self._fading(time)
        if self.degradations:
            rssi -= self._degradation(time)
        return rssi


class Medium:
    """All links within radio range, plus the ambient noise floor.

    Args:
        topology: Node layout.
        environment: Supplies the (possibly interference-raised) noise floor.
        params: Radio constants.
        rng: Random stream for shadowing/fading.
        max_range: Links are instantiated only for pairs within this many
            meters; beyond it frames are never received.
    """

    def __init__(
        self,
        topology: Topology,
        environment: Environment,
        params: RadioParams,
        rng: np.random.Generator,
        max_range: float = 150.0,
    ):
        self.topology = topology
        self.environment = environment
        self.params = params
        self._rng = rng
        self.max_range = max_range
        self._links: Dict[Tuple[int, int], Link] = {}
        self._build_links()

    def _build_links(self) -> None:
        ids = self.topology.node_ids
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                distance = self.topology.distance(a, b)
                if distance > self.max_range:
                    continue
                # Shadowing is mostly symmetric with a small asymmetric part,
                # matching empirical 802.15.4 link studies.
                common = float(self._rng.normal(0.0, self.params.shadowing_sigma_db))
                asym_ab = float(self._rng.normal(0.0, 0.8))
                asym_ba = float(self._rng.normal(0.0, 0.8))
                self._links[(a, b)] = Link(
                    a, b, distance, common + asym_ab, self.params, self._rng
                )
                self._links[(b, a)] = Link(
                    b, a, distance, common + asym_ba, self.params, self._rng
                )

    def rebuild_links_for(self, node_id: int) -> None:
        """Recompute every link touching ``node_id`` after a relocation.

        Pairs now out of range are dropped; pairs still (or newly) in range
        get fresh distance and shadowing.  Re-drawing shadowing even for
        surviving pairs is intentional — a moved node sees a new multipath
        environment.  Peers are visited in ascending id order so the rng
        draw sequence is a pure function of the call, keeping runs
        bit-reproducible.
        """
        positions = self.topology.positions
        if node_id not in positions:
            raise KeyError(f"unknown node {node_id}")
        for key in [k for k in self._links if node_id in k]:
            del self._links[key]
        for other in sorted(positions):
            if other == node_id:
                continue
            distance = self.topology.distance(node_id, other)
            if distance > self.max_range:
                continue
            common = float(self._rng.normal(0.0, self.params.shadowing_sigma_db))
            asym_ab = float(self._rng.normal(0.0, 0.8))
            asym_ba = float(self._rng.normal(0.0, 0.8))
            a, b = node_id, other
            self._links[(a, b)] = Link(
                a, b, distance, common + asym_ab, self.params, self._rng
            )
            self._links[(b, a)] = Link(
                b, a, distance, common + asym_ba, self.params, self._rng
            )

    def link(self, src: int, dst: int) -> Optional[Link]:
        """The directed link src -> dst, or ``None`` if out of range."""
        return self._links.get((src, dst))

    def links_from(self, src: int) -> List[Link]:
        """All outgoing links of ``src``."""
        return [l for (a, _b), l in self._links.items() if a == src]

    def neighbors(self, node_id: int) -> List[int]:
        """Nodes within radio range of ``node_id``."""
        return [dst for (src, dst) in self._links if src == node_id]

    def rssi(self, src: int, dst: int, time: float) -> Optional[float]:
        """RSSI of src at dst, or ``None`` if out of range."""
        link = self.link(src, dst)
        if link is None:
            return None
        return link.rssi(time)

    def frame_success_probability(self, src: int, dst: int, time: float) -> float:
        """Probability a single frame from src is decoded at dst."""
        link = self.link(src, dst)
        if link is None:
            return 0.0
        return self.reception_probability(dst, link.rssi(time), time)

    def reception_probability(self, dst: int, rssi: float, time: float) -> float:
        """Probability dst decodes a frame arriving at ``rssi`` dBm."""
        noise = self.environment.noise_floor(time, self.topology.positions[dst])
        return prr_from_snr(rssi - noise, self.params)

    def degrade_region(
        self,
        center: Tuple[float, float],
        radius: float,
        start: float,
        end: float,
        extra_db: float,
    ) -> int:
        """Attenuate every link with an endpoint inside a disk.

        Returns:
            Number of (directed) links affected.
        """
        affected = 0
        for (src, dst), link in self._links.items():
            for endpoint in (src, dst):
                x, y = self.topology.positions[endpoint]
                if math.hypot(x - center[0], y - center[1]) <= radius:
                    link.add_degradation(DegradationWindow(start, end, extra_db))
                    affected += 1
                    break
        return affected
