"""Sample statistics and failure accounting shared by every workload.

Two rules from the benchmark's design live here so they can be tested
on their own:

* a percentile is only reported when at least :data:`MIN_BEYOND`
  samples lie beyond it (p99 needs 1000 samples, p90 needs 100);
* every operation a workload attempts is counted, and every failure is
  counted against it (:class:`FailureLedger`), so ``ops_failed_frac`` is
  failed over attempted across all kinds of operation.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q`` quantile."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return n - math.ceil(q * n)


def required_samples(q: float) -> int:
    """Smallest sample count whose ``q`` quantile has MIN_BEYOND beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (nearest rank), refusing unsupported tails.

    The median is always allowed; a tail percentile raises
    :class:`InsufficientSamples` unless ``MIN_BEYOND`` samples lie
    beyond it.
    """
    n = len(values)
    if n == 0:
        raise InsufficientSamples("no samples")
    if q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} needs >= {required_samples(q)} samples, got {n}"
        )
    ordered = sorted(values)
    rank = max(math.ceil(q * n), 1)
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return [value, value, value]
    return [float(v) for v in statistics.quantiles(values, n=4)]


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


@dataclass
class FailureLedger:
    """Attempted and failed operations, by kind.

    Kinds are free-form (``"packets"``, ``"events"``, ``"scrapes"`` ...);
    ``frac`` pools them, so a workload with many cheap operations and a
    few expensive ones still reports a single failure ratio.
    """

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    notes: List[str] = field(default_factory=list)

    def attempt(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] += n

    def fail(self, kind: str, n: int = 1, note: Optional[str] = None) -> None:
        self.failed[kind] += n
        if note and len(self.notes) < 50:
            self.notes.append(f"{kind}: {note}")

    def check(self, kind: str, ok: bool, note: Optional[str] = None) -> bool:
        """Count one attempt of ``kind`` and, when not ``ok``, a failure."""
        self.attempt(kind)
        if not ok:
            self.fail(kind, note=note)
        return ok

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def frac(self) -> float:
        return self.n_failed / self.n_attempted if self.n_attempted else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "notes": list(self.notes),
        }
