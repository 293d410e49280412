"""What one workload run produces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from vn2bench.stats import FailureLedger, median, percentile


@dataclass
class Measured:
    """One metric: its value, unit, sample count and raw samples."""

    value: float
    unit: str
    n: int = 1
    samples: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "n": self.n,
                "samples": self.samples}


def summarize(samples: Sequence[float], q: float, unit: str,
              scale: float = 1.0) -> Measured:
    """``q`` quantile (0.5 = median) of ``samples``, times ``scale``."""
    values = [float(s) * scale for s in samples]
    value = median(values) if q == 0.5 else percentile(values, q)
    return Measured(value, unit, len(values), values)


def summarize_groups(groups: Sequence[Sequence[float]], q: float, unit: str,
                     scale: float = 1.0) -> Measured:
    """Median over groups (passes) of each group's ``q`` quantile.

    One stalled pass then moves a tail percentile by at most one rank of
    the median instead of owning the pooled tail.  Every group must
    support ``q`` on its own; ``samples`` holds the per-group values.
    """
    per_group = [summarize(g, q, unit, scale).value for g in groups]
    return Measured(median(per_group), unit, sum(len(g) for g in groups),
                    per_group)


def single(value: float, unit: str) -> Measured:
    return Measured(float(value), unit, 1, [float(value)])


@dataclass
class WorkloadResult:
    workload: str
    metrics: Dict[str, Measured] = field(default_factory=dict)
    ledger: FailureLedger = field(default_factory=FailureLedger)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    spans_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "metrics": {k: m.to_dict() for k, m in self.metrics.items()},
            "ops": self.ledger.to_dict(),
            "ops_failed_frac": self.ledger.frac,
            "layers": self.layers,
            "info": self.info,
            "spans": self.spans_path,
        }
