"""Benchmark fixtures: two simulated traces and the model that serves them.

Simulating a CitySee ``small`` trace takes ~45 s, too long to repeat on
every run, so the serving workloads replay fixed base traces simulated
once per checkout (the first run builds them, in two pool workers):

* the plain CitySee ``small`` trace (seed 2011), on which the serving
  model is fitted with ``VN2(rank=20)``;
* the ``correlated-bursts`` chaos preset at ``small`` scale (seed 2011).

The workload seed then shapes the traffic: :func:`seeded_traffic` starts
the replay at a seed-chosen point of the base trace and wraps the head
round to the end, shifted in time and epoch, so every seed sends the
same packets in a different order against the same model.

Everything lives under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
STATE_DIR = ROOT / ".perfbench"
FIXTURE_DIR = STATE_DIR / "fixtures"
FIXTURE_SEED = 2011
MODEL_RANK = 20
#: Bump when the fixture recipe changes so stale builds are redone.
FIXTURE_VERSION = 1

Packet = Tuple[int, int, float, np.ndarray]


@dataclass
class Fixtures:
    citysee_path: Path
    chaos_path: Path
    model_path: Path
    build_s: float


def ensure_fixtures(log=print) -> Fixtures:
    """Load the fixture manifest, building the fixtures first if needed."""
    manifest = FIXTURE_DIR / "manifest.json"
    if manifest.exists():
        doc = json.loads(manifest.read_text())
        if doc.get("version") == FIXTURE_VERSION:
            return Fixtures(
                citysee_path=Path(doc["citysee"]),
                chaos_path=Path(doc["chaos"]),
                model_path=Path(doc["model"]),
                build_s=doc["build_s"],
            )
    return _build(manifest, log)


def _build(manifest: Path, log) -> Fixtures:
    import time

    from repro.chaos.presets import build_preset
    from repro.core.pipeline import VN2, VN2Config
    from repro.runner import run_jobs
    from repro.runner.jobs import ChaosJob, CitySeeJob
    from repro.traces.citysee import CitySeeProfile

    if FIXTURE_DIR.exists():
        shutil.rmtree(FIXTURE_DIR)
    FIXTURE_DIR.mkdir(parents=True)
    log("perfbench: building fixtures (two ~45 s simulations) ...")
    t0 = time.perf_counter()
    jobs = [
        CitySeeJob(CitySeeProfile.small(seed=FIXTURE_SEED)),
        ChaosJob(build_preset("correlated-bursts", seed=FIXTURE_SEED,
                              scale="small")),
    ]
    report = run_jobs(jobs, n_workers=2, cache_dir=FIXTURE_DIR / "cache")
    citysee, _chaos = report.frames()
    model_path = FIXTURE_DIR / "model"
    VN2(VN2Config(rank=MODEL_RANK)).fit(citysee).save(model_path)
    fixtures = Fixtures(
        citysee_path=Path(report.results[0].path),
        chaos_path=Path(report.results[1].path),
        model_path=model_path,
        build_s=time.perf_counter() - t0,
    )
    manifest.write_text(json.dumps({
        "version": FIXTURE_VERSION,
        "citysee": str(fixtures.citysee_path),
        "chaos": str(fixtures.chaos_path),
        "model": str(fixtures.model_path),
        "build_s": fixtures.build_s,
    }))
    log(f"perfbench: fixtures built in {fixtures.build_s:.1f}s")
    return fixtures


@dataclass
class Traffic:
    """One pass of a deployment's packets, repeatable back to back.

    Pass ``p`` is the same packets with epochs shifted by ``p`` epoch
    spans and times by ``p`` trace durations, so a deployment fed pass
    after pass sees one continuous, monotonic stream per node.
    """

    packets: List[Packet]
    epoch_span: int
    dt: float

    def shifted(self, p: int) -> List[Packet]:
        if p == 0:
            return self.packets
        de, dt = p * self.epoch_span, p * self.dt
        return [(node, epoch + de, t + dt, values)
                for node, epoch, t, values in self.packets]

    def repeated(self, passes: int) -> List[Packet]:
        return [packet for p in range(passes) for packet in self.shifted(p)]


def seeded_traffic(frame, seed: int, tag: str) -> Traffic:
    """The base trace in arrival order, rotated at a seed-chosen packet.

    Packets before the cut move after the end, shifted by one epoch span
    and one trace duration, so each node's stream stays monotonic and the
    wrapped part reads as the trace running on.
    """
    from repro.core.streaming import iter_packets
    from repro.runner.jobs import sweep_seeds

    packets = list(iter_packets(frame))
    n = len(packets)
    rng = np.random.default_rng(sweep_seeds(seed, 1, f"perfbench.{tag}")[0])
    cut = int(rng.integers(n // 4, 3 * n // 4))
    epochs = frame.epochs
    gen = frame.generated_at
    epoch_span = int(epochs.max() - epochs.min()) + 1
    period = float(gen.max() - gen.min()) / max(epoch_span - 1, 1)
    traffic = Traffic(packets[:cut], epoch_span, epoch_span * period)
    return Traffic(packets[cut:] + traffic.shifted(1), epoch_span,
                   traffic.dt)
