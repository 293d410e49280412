"""Spans for the traced run, opened from the benchmark's own files.

The timed runs record nothing.  In a traced run the benchmark installs
an enabled :class:`repro.obs.Tracer` and wraps the public calls and
stage entry points it wants split out, for the duration of the run
only (:func:`wrapped`).  Spans the program already emits (``fit.*``,
``runner.job``) land in the same tree.

Layer self time is span time minus the time its child spans cover
(:func:`self_seconds`).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import Span, Tracer


def spanning(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def counting(counter: Dict[str, float], name: str, fn: Callable,
             timed: bool = False) -> Callable:
    """Count calls (and optionally their wall time) without a span each —
    for entry points called millions of times (the simulator's MAC)."""
    clock = time.perf_counter

    if timed:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[name] += 1
                counter[name + "_s"] += clock() - t0
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def wrapped(patches: Sequence[Tuple[object, str, Callable[[Callable], Callable]]]):
    """Replace ``owner.attr`` by ``make(original)`` for each patch, and
    put every original back on exit."""
    with ExitStack() as stack:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            stack.callback(setattr, owner, attr, original)
        yield


def walk(tracer: Tracer) -> Iterator[Span]:
    for root in tracer.roots:
        yield from root.walk()


def self_seconds(tracer: Tracer, name: str) -> Tuple[float, int]:
    """Summed self time and count of every span called ``name``."""
    total, count = 0.0, 0
    for node in walk(tracer):
        if node.name == name:
            total += node.self_s or 0.0
            count += 1
    return total, count


def wall_seconds(tracer: Tracer, name: str) -> Tuple[float, int]:
    total, count = 0.0, 0
    for node in walk(tracer):
        if node.name == name:
            total += node.wall_s or 0.0
            count += 1
    return total, count


def export_spans(tracer: Tracer, path: Path) -> int:
    """Write every span as one JSON line: id, parent, name, start, end,
    self time and attributes (the batch id among them).  Start and end
    are seconds on the run's ``perf_counter`` clock."""
    records: List[dict] = []

    def emit(node: Span, parent: Optional[int]) -> None:
        span_id = len(records)
        start = getattr(node, "_t0_wall", None)
        records.append({
            "id": span_id,
            "parent": parent,
            "name": node.name,
            "start": start,
            "end": None if start is None else start + (node.wall_s or 0.0),
            "self_s": node.self_s,
            "attrs": node.attrs or None,
        })
        for child in node.children:
            emit(child, span_id)

    for root in tracer.roots:
        emit(root, None)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return len(records)


def counter_total(registry, name: str) -> float:
    """Sum of every series of counter ``name`` in ``registry``."""
    return float(sum(m.value for m in registry.collect().get(name, ())))


@contextmanager
def session_stage_spans(tracer: Tracer, counts: Dict[str, float]):
    """Spans around the streaming session's stage entry points.

    * ``core.states.push`` — ``StreamingStateBuilder.push``
    * ``core.streaming.push_state`` — the screen; its self time is the
      screen plus the glue between stages
    * ``core.inference.nnls`` — the per-state NNLS solve
    * ``core.incidents.observe`` — ``observations_for_state``
    * ``core.incidents.add`` — ``IncidentTracker.add``

    It also counts passive-set factorizations (``counts["nnls.factorize"]``):
    with the session's factor cache on, each one is a cache miss.
    """
    import repro.core.inference as inference
    import repro.core.streaming as streaming
    from repro.core.incidents import IncidentTracker

    patches = [
        (streaming.StreamingStateBuilder, "push",
         lambda fn: spanning(tracer, "core.states.push", fn)),
        (streaming.StreamingDiagnosisSession, "push_state",
         lambda fn: spanning(tracer, "core.streaming.push_state", fn)),
        (streaming, "infer_weights_batch",
         lambda fn: spanning(tracer, "core.inference.nnls", fn)),
        (streaming, "observations_for_state",
         lambda fn: spanning(tracer, "core.incidents.observe", fn)),
        (IncidentTracker, "add",
         lambda fn: spanning(tracer, "core.incidents.add", fn)),
        (inference, "_pattern_factor",
         lambda fn: counting(counts, "nnls.factorize", fn)),
    ]
    with wrapped(patches):
        yield


def session_stage_metrics(tracer: Tracer, registry, counts: Dict[str, float],
                          n_states: int, n_exceptions: int) -> Dict[str, float]:
    """The ``core.streaming`` layer rows from a traced session replay."""
    nnls_s, nnls_calls = self_seconds(tracer, "core.inference.nnls")
    hits = counter_total(registry, "repro_core_nnls_factor_cache_hits_total")
    lookups = hits + counts["nnls.factorize"]
    return {
        "core.states.push_s": self_seconds(tracer, "core.states.push")[0],
        "core.screen_s": self_seconds(tracer, "core.streaming.push_state")[0],
        "core.inference.nnls_s": nnls_s,
        "core.inference.nnls_calls": float(nnls_calls),
        "core.inference.factor_hit_ratio": hits / lookups if lookups else 0.0,
        "core.incidents.observe_s": self_seconds(tracer, "core.incidents.observe")[0],
        "core.incidents.add_s": self_seconds(tracer, "core.incidents.add")[0],
        "core.streaming.exception_ratio": (
            n_exceptions / n_states if n_states else 0.0),
    }

