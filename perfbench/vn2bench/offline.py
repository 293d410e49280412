"""The ``offline`` workload: simulate → fit → diagnose, the analyst's path.

One cycle:

1. ``run_jobs`` with 2 workers simulates two seeds of CitySee ``small``
   at half a day each into a fresh cache directory, so the simulator
   really runs and spools to NPZ (``sim_rows_per_s``);
2. warm ``VN2(rank=20).fit`` on seed A, repeated :data:`FIT_REPEATS`
   times (``fit_s`` is the median);
3. seed B goes through a JSONL save/load round trip and
   ``diagnose_stream`` runs on the loaded packets, flush included,
   :data:`DIAGNOSE_REPEATS` times (``diagnose_pps`` from the median).

Half a day, not a whole one, so that a cycle takes ~10 s on a 2-core
host and a run holds several: the figures are medians over cycles, and
a median of four resists a slow spell of a shared host that a median
of two (a mean) does not.

Cycles repeat until the run's seconds are spent, at least twice; every
cycle's frames, Ψ and events must equal the first cycle's.  The timed
cycles run in a fresh child process (``python3 -m vn2bench.offline``),
so ``peak_rss_mb`` — the ``VmHWM`` of that child plus the pool workers
alive beside it, at its largest — holds the offline path only, not the
fixture build or another workload run earlier in the benchmark's own
process, and does not grow with the number of cycles.

The two simulated deployments are fixed (:data:`SIM_SEEDS`): the cost
of simulating a day depends on the topology the profile seed draws —
360 to 730 rows/s across seeds on a 2-core host — so a seed-drawn
topology would measure the seed, not the code.  The workload seed
instead rotates the packet stream ``diagnose_stream`` sees, as in the
serving workloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

from vn2bench import layers as L
from vn2bench.fixtures import Fixtures, seeded_traffic
from vn2bench.procfs import PeakSampler
from vn2bench.result import WorkloadResult, single, summarize
from vn2bench.sink import child_env

PERFBENCH = Path(__file__).resolve().parents[1]
from vn2bench.stats import median

SIM_WORKERS = 2
SIM_DAYS = 0.5
#: Profile seeds of seed A and seed B.
SIM_SEEDS = (2011, 2012)
RANK = 20
FIT_REPEATS = 7
DIAGNOSE_REPEATS = 5
SETUP_REPEATS = 7
MIN_CYCLES = 2

#: What a user of the offline path pays before the first result: a
#: fresh interpreter, the imports, the job grid and one first fit.
_SETUP_PROGRAM = """
import sys
from repro.core.pipeline import VN2, VN2Config
from repro.runner.jobs import CitySeeJob
from repro.traces.citysee import CitySeeProfile
from repro.traces.io import load_frame
jobs = [CitySeeJob(CitySeeProfile.small(seed=s, days=%r)) for s in %r]
VN2(VN2Config(rank=%d)).fit(load_frame(sys.argv[1]))
""" % (SIM_DAYS, SIM_SEEDS, RANK)


def jobs():
    from repro.runner.jobs import CitySeeJob
    from repro.traces.citysee import CitySeeProfile

    return [CitySeeJob(CitySeeProfile.small(seed=s, days=SIM_DAYS))
            for s in SIM_SEEDS]


def _setup_once(fx: Fixtures) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROGRAM, str(fx.citysee_path)],
        env=child_env(), check=True, timeout=120,
    )
    return time.perf_counter() - t0


def _children_cpu() -> float:
    """CPU seconds of this process's reaped children (the pool workers
    are reaped when ``run_jobs`` shuts its pool down)."""
    times = os.times()
    return times.children_user + times.children_system


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(array.tobytes())
    return h.hexdigest()


def _cycle(seed: int, workdir: Path, n_workers: int, tracer=None) -> dict:
    """One simulate → fit → diagnose pass; returns its measurements."""
    from repro.core.pipeline import VN2, VN2Config
    from repro.runner import run_jobs
    from repro.service.protocol import incident_event_obj
    from repro.traces.io import load_frame_jsonl, save_frame_jsonl

    cache = workdir / "cycle-cache"
    if cache.exists():
        shutil.rmtree(cache)
    cache.mkdir(parents=True)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        t0, cpu0 = time.perf_counter(), _children_cpu()
        with span("bench.run_jobs"):
            report = run_jobs(jobs(), n_workers=n_workers, cache_dir=cache)
        sim_s = time.perf_counter() - t0
        sim_cpu_s = _children_cpu() - cpu0
        out = {"jobs_ok": [r.ok for r in report.results],
               "job_s": [r.seconds for r in report.results],
               "run_jobs_s": sim_s}
        if not report.ok:
            out["error"] = "; ".join(r.error for r in report.errors())
            return out
        frame_a, frame_b = report.frames()
        rows = len(frame_a) + len(frame_b)
        own_cpu0 = time.process_time()
        fits = []
        for _ in range(FIT_REPEATS):
            t = time.perf_counter()
            with span("bench.fit"):
                tool = VN2(VN2Config(rank=RANK)).fit(frame_a)
            fits.append(time.perf_counter() - t)
        jsonl = cache / "seed-b.jsonl"
        with span("bench.jsonl_roundtrip"):
            save_frame_jsonl(frame_b, jsonl)
            loaded = load_frame_jsonl(jsonl)
        packets = seeded_traffic(loaded, seed, "offline").packets
        diag_s = []
        for _ in range(DIAGNOSE_REPEATS):
            events: List[str] = []
            n_states = n_exceptions = 0
            t = time.perf_counter()
            with span("bench.diagnose_stream"):
                for update in tool.diagnose_stream(packets):
                    if update.state is not None:
                        n_states += 1
                        n_exceptions += int(update.is_exception)
                    events += [json.dumps(incident_event_obj(e), sort_keys=True)
                               for e in update.events]
            diag_s.append(time.perf_counter() - t)
        own_cpu_s = time.process_time() - own_cpu0
        out.update({
            "rows": rows,
            "sim_rows_per_s": rows / sim_s,
            "cpu_us_per_row": 1e6 * (sim_cpu_s + own_cpu_s) / rows,
            "fit_s": fits,
            "diagnose_pps": len(packets) / median(diag_s),
            "n_states": n_states,
            "n_exceptions": n_exceptions,
            "bytes": sum(p.stat().st_size for p in cache.iterdir()),
            "digests": {
                "frames": _digest(*(a for f in (frame_a, frame_b) for a in (
                    f.node_ids, f.epochs, f.generated_at, f.values))),
                "psi": _digest(tool.nmf_.Psi),
                "events": hashlib.sha256(
                    "\n".join(events).encode()).hexdigest(),
            },
        })
        return out
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _run_cycles(seed: int, workdir: Path, seconds: float) -> List[dict]:
    """Cycles until ``seconds`` are spent, at least :data:`MIN_CYCLES`;
    stops at the first failed simulation."""
    cycles: List[dict] = []
    t_start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - t_start < seconds:
        cycles.append(_cycle(seed, workdir, SIM_WORKERS))
        if "error" in cycles[-1]:
            break
    return cycles


def _cycles_main(seed: str, workdir: str, seconds: str, model_trace: str,
                 out: str) -> None:
    """Child entry point: one first fit, so the timed fits are warm, then
    the timed cycles, written to ``out`` as JSON."""
    from repro.core.pipeline import VN2, VN2Config
    from repro.traces.io import load_frame

    VN2(VN2Config(rank=RANK)).fit(load_frame(model_trace))
    cycles = _run_cycles(int(seed), Path(workdir), float(seconds))
    Path(out).write_text(json.dumps(cycles))


def _run_child(fx: Fixtures, seed: int, seconds: float, workdir: Path):
    """Timed cycles in a fresh child; (cycles, peak RSS MB of the child
    and the pool workers alive with it)."""
    out = workdir / "cycles.json"
    out.unlink(missing_ok=True)
    env = child_env()
    env["PYTHONPATH"] = str(PERFBENCH) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "vn2bench.offline", str(seed), str(workdir),
         repr(seconds), str(fx.citysee_path), str(out)],
        env=env, start_new_session=True,
    )
    try:
        with PeakSampler([proc.pid]) as rss:
            code = proc.wait(timeout=seconds + 120)
    finally:
        try:  # the child, if still running, and any pool worker left over
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"offline: cycle process exited with {code}")
    return json.loads(out.read_text()), rss.total_mb


def run_offline(fx: Fixtures, seed: int, seconds: float, workdir: Path,
                trace: bool = False) -> WorkloadResult:
    result = WorkloadResult("offline")
    workdir.mkdir(parents=True, exist_ok=True)
    setups = [_setup_once(fx) for _ in range(SETUP_REPEATS)]
    cycles, peak_mb = _run_child(fx, seed, seconds, workdir)
    for i, cycle in enumerate(cycles):
        for ok in cycle["jobs_ok"]:
            result.ledger.check("jobs", ok, cycle.get("error"))
        if i and "error" not in cycle:
            for key, value in cycle["digests"].items():
                result.ledger.check("outputs", value == cycles[0]["digests"][key],
                                    f"cycle {i + 1} {key} differ")
    good = [c for c in cycles if "error" not in c]
    if not good:
        raise RuntimeError(f"offline: simulation failed: {cycles[0]['error']}")

    m = result.metrics
    m["setup_s"] = summarize(setups, 0.5, "s")
    m["sim_rows_per_s"] = summarize([c["sim_rows_per_s"] for c in good],
                                    0.5, "rows/s")
    m["cpu_us_per_row"] = summarize([c["cpu_us_per_row"] for c in good],
                                    0.5, "us")
    m["fit_s"] = summarize([f for c in good for f in c["fit_s"]], 0.5, "s")
    m["diagnose_pps"] = summarize([c["diagnose_pps"] for c in good],
                                  0.5, "pkt/s")
    m["peak_rss_mb"] = single(peak_mb, "MB")
    result.info = {
        "cycles": len(cycles), "rows_per_cycle": good[0]["rows"],
        "sim_workers": SIM_WORKERS, "sim_days": SIM_DAYS,
    }
    result.layers.update({
        "runner.job_s": median([s for c in good for s in c["job_s"]]),
        "runner.overhead_s": median(
            [c["run_jobs_s"] - max(c["job_s"]) for c in good]),
    })
    if trace:
        from repro.core.pipeline import VN2, VN2Config
        from repro.traces.io import load_frame

        # This process's own first fit, so the traced fits are warm too.
        VN2(VN2Config(rank=RANK)).fit(load_frame(fx.citysee_path))
        result.spans_path = str(workdir / "spans-offline.jsonl")
        result.layers.update(_traced_cycle(seed, workdir,
                                           Path(result.spans_path)))
    return result


def _traced_cycle(seed: int, workdir: Path, spans_path: Path) -> Dict[str, float]:
    """One cycle with every layer wrapped; simulation runs inline (one
    process) so the simulator's counters are visible here."""
    import repro.runner.engine as engine
    import repro.traces.citysee as citysee
    import repro.traces.io as tio
    from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
    from repro.simnet.ctp.routing import RoutingEngine
    from repro.simnet.kernel import Simulator
    from repro.simnet.mac import CsmaMac

    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    counts: Counter = Counter()

    def run_until(fn):
        def wrapper(self, end_time):
            before = self.events_processed
            with tracer.span("simnet.run"):
                fn(self, end_time)
            counts["simnet.events"] += self.events_processed - before
        return wrapper

    codec = []
    for module in (tio, citysee):
        for attr, name in (("save_frame_npz", "traces.npz_encode"),
                           ("load_frame_npz", "traces.npz_decode"),
                           ("save_frame_jsonl", "traces.jsonl_encode"),
                           ("load_frame_jsonl", "traces.jsonl_decode")):
            codec.append((module, attr,
                          lambda fn, n=name: L.spanning(tracer, n, fn)))
    codec.append((engine, "load_frame_npz",
                  lambda fn: L.spanning(tracer, "traces.npz_decode", fn)))
    patches = codec + [
        (Simulator, "run_until", run_until),
        (CsmaMac, "attempt",
         lambda fn: L.counting(counts, "simnet.mac_attempts", fn, timed=True)),
        (RoutingEngine, "_cost_via",
         lambda fn: L.counting(counts, "simnet.route_cost_calls", fn)),
    ]
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    try:
        with L.wrapped(patches), L.session_stage_spans(tracer, counts):
            cycle = _cycle(seed, workdir, n_workers=1, tracer=tracer)
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)
    if "error" in cycle:
        raise RuntimeError(f"offline traced cycle failed: {cycle['error']}")
    L.export_spans(tracer, spans_path)

    def wall(name):
        return L.wall_seconds(tracer, name)[0]

    rows = {
        "simnet.events": float(counts["simnet.events"]),
        "simnet.run_s": wall("simnet.run"),
        "simnet.mac_attempts": float(counts["simnet.mac_attempts"]),
        "simnet.mac_attempt_s": counts["simnet.mac_attempts_s"],
        "simnet.route_cost_calls": float(counts["simnet.route_cost_calls"]),
        "traces.npz_encode_s": wall("traces.npz_encode"),
        "traces.npz_decode_s": wall("traces.npz_decode"),
        "traces.jsonl_encode_s": wall("traces.jsonl_encode"),
        "traces.jsonl_decode_s": wall("traces.jsonl_decode"),
        "traces.bytes": float(cycle["bytes"]),
        "core.fit.nmf_iters": L.counter_total(
            registry, "repro_core_nmf_iterations_total") / FIT_REPEATS,
    }
    for stage in ("states", "exceptions", "normalize", "nmf", "sparsify",
                  "interpret"):
        rows[f"core.fit.{stage}_s"] = wall(f"fit.{stage}") / FIT_REPEATS
    stages = L.session_stage_metrics(
        tracer, registry, counts, cycle["n_states"], cycle["n_exceptions"])
    for key in ("core.states.push_s", "core.screen_s", "core.inference.nnls_s",
                "core.inference.nnls_calls", "core.incidents.observe_s",
                "core.incidents.add_s"):
        stages[key] /= DIAGNOSE_REPEATS  # per diagnose_stream pass
    rows.update(stages)
    rows["traced_diagnose_pps"] = cycle["diagnose_pps"]
    return rows


if __name__ == "__main__":
    _cycles_main(*sys.argv[1:])
