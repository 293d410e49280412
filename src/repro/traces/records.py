"""Per-snapshot records that travel alongside a :class:`TraceFrame`.

:class:`SnapshotRow` is one complete 43-metric snapshot of one node as it
reaches the sink — the live, per-packet unit the JSONL tailer yields and
the service client submits.  :class:`GroundTruth` is one injected fault
episode, kept for evaluation only (the algorithm never sees it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.metrics.catalog import NUM_METRICS


@dataclass
class SnapshotRow:
    """One complete snapshot of one node, as received at the sink."""

    node_id: int
    epoch: int
    generated_at: float
    received_at: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (NUM_METRICS,):
            raise ValueError(
                f"snapshot values must have shape ({NUM_METRICS},), "
                f"got {self.values.shape}"
            )


@dataclass
class GroundTruth:
    """An injected fault episode (copied from the network's log)."""

    kind: str
    node_ids: Tuple[int, ...]
    start: float
    end: float
