"""Link estimation: per-neighbor RSSI and ETX.

Follows the hybrid strategy of TinyOS's 4-bit link estimator: beacon
receptions give an *ingoing* quality estimate for every neighbor (even ones
we never send to), while data transmissions give a much sharper
attempts-per-ACK estimate for the neighbors we actually use.  The data
estimate dominates once available.

Entries age out when no beacon has been heard for several beacon periods —
this is what makes ``neighbor_num`` fall after a neighbor dies, and what
frees a child to select a new parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

MAX_ETX = 50.0
"""Cap for ETX estimates (effectively 'unusable link')."""


@dataclass
class NeighborEntry:
    """Estimator state for one neighbor."""

    neighbor_id: int
    rssi_ewma: float = -90.0
    last_heard: float = 0.0
    #: Neighbor's advertised path ETX from its most recent beacon.
    advertised_path_etx: float = MAX_ETX
    #: Neighbor's advertised hop count from its most recent beacon.
    advertised_path_length: int = 0
    # beacon-driven ingoing quality (EWMA of reception indicator)
    beacon_quality: float = 0.0
    # data-driven estimate
    data_attempts: int = 0
    data_acks: int = 0
    #: link_etx() memo: the inputs it was computed from, and its value.
    _etx_inputs: Optional[Tuple[int, int, float]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _etx: float = field(default=MAX_ETX, init=False, repr=False, compare=False)

    def link_etx(self) -> float:
        """Current link-ETX estimate (>= 1.0, capped at MAX_ETX)."""
        inputs = (self.data_attempts, self.data_acks, self.beacon_quality)
        if inputs == self._etx_inputs:
            return self._etx
        if self.data_attempts >= 4 and self.data_acks > 0:
            etx = self.data_attempts / self.data_acks
            etx = min(MAX_ETX, max(1.0, etx))
        elif self.beacon_quality > 0.02:
            # ETX ~ 1/q_in^2: assume the reverse link resembles the forward.
            etx = 1.0 / (self.beacon_quality * self.beacon_quality)
            etx = min(MAX_ETX, max(1.0, etx))
        else:
            etx = MAX_ETX
        self._etx_inputs = inputs
        self._etx = etx
        return etx


class LinkEstimator:
    """Per-node neighbor table with RSSI/ETX estimation and aging.

    Args:
        table_size: Maximum entries kept (the C2 packet carries 10).
        rssi_alpha: EWMA weight for new RSSI samples.
        beacon_alpha: EWMA weight for beacon reception indicators.
        entry_timeout_s: Entries not refreshed within this window age out.
        data_window: Data attempt/ACK counters are halved once attempts
            reach this value, so the estimate tracks recent behaviour.
    """

    def __init__(
        self,
        table_size: int = 10,
        rssi_alpha: float = 0.25,
        beacon_alpha: float = 0.2,
        entry_timeout_s: float = 1800.0,
        data_window: int = 32,
    ):
        self.table_size = table_size
        self.rssi_alpha = rssi_alpha
        self.beacon_alpha = beacon_alpha
        self.entry_timeout_s = entry_timeout_s
        self.data_window = data_window
        self.entries: Dict[int, NeighborEntry] = {}
        #: Set when a brand-new neighbor was inserted since the last check
        #: (drives beacon-timer resets on topology change).
        self.new_neighbor_seen = False

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def on_beacon(
        self,
        neighbor_id: int,
        rssi: float,
        advertised_path_etx: float,
        now: float,
        advertised_path_length: int = 0,
    ) -> None:
        """Process a received beacon from ``neighbor_id``."""
        entry = self.entries.get(neighbor_id)
        if entry is None:
            entry = self._insert(neighbor_id, rssi, now)
            if entry is None:
                return
        entry.rssi_ewma += self.rssi_alpha * (rssi - entry.rssi_ewma)
        entry.beacon_quality += self.beacon_alpha * (1.0 - entry.beacon_quality)
        entry.advertised_path_etx = advertised_path_etx
        entry.advertised_path_length = advertised_path_length
        entry.last_heard = now

    def on_beacon_period(self, now: float) -> None:
        """Decay beacon quality for neighbors we did *not* hear this period."""
        for entry in self.entries.values():
            if entry.last_heard < now:
                entry.beacon_quality *= 1.0 - self.beacon_alpha

    def on_data_attempt(self, neighbor_id: int, acked: bool) -> None:
        """Record a unicast data attempt (and its ACK outcome) to a neighbor."""
        entry = self.entries.get(neighbor_id)
        if entry is None:
            return
        entry.data_attempts += 1
        if acked:
            entry.data_acks += 1
        if entry.data_attempts >= self.data_window:
            entry.data_attempts //= 2
            entry.data_acks //= 2

    def _insert(self, neighbor_id: int, rssi: float, now: float) -> Optional[NeighborEntry]:
        """Insert a new neighbor, evicting the worst entry if the table is full."""
        if len(self.entries) >= self.table_size:
            evictable = max(
                self.entries.values(), key=lambda e: e.link_etx()
            )
            # Only evict if the newcomer is plausibly better (stronger RSSI
            # than the worst entry) — avoids thrash from marginal neighbors.
            if evictable.link_etx() < MAX_ETX and rssi <= evictable.rssi_ewma:
                return None
            del self.entries[evictable.neighbor_id]
        entry = NeighborEntry(neighbor_id=neighbor_id, rssi_ewma=rssi, last_heard=now)
        self.entries[neighbor_id] = entry
        self.new_neighbor_seen = True
        return entry

    def age_out(self, now: float) -> List[int]:
        """Remove entries not heard within the timeout; returns removed ids."""
        stale = [
            nid
            for nid, entry in self.entries.items()
            if now - entry.last_heard > self.entry_timeout_s
        ]
        for nid in stale:
            del self.entries[nid]
        return stale

    def clear(self) -> None:
        """Forget everything (node reboot)."""
        self.entries.clear()
        self.new_neighbor_seen = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def neighbor_ids(self) -> List[int]:
        """Ids of all table entries."""
        return list(self.entries)

    def entry(self, neighbor_id: int) -> Optional[NeighborEntry]:
        return self.entries.get(neighbor_id)

    def sorted_entries(self) -> List[NeighborEntry]:
        """Entries best-first (by link ETX, then RSSI)."""
        return sorted(
            self.entries.values(),
            key=lambda e: (e.link_etx(), -e.rssi_ewma),
        )

    def consume_new_neighbor_flag(self) -> bool:
        """Return-and-clear the 'new neighbor inserted' flag."""
        flag = self.new_neighbor_seen
        self.new_neighbor_seen = False
        return flag
