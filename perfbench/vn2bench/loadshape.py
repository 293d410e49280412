"""Load shapes and event attribution, free of sockets so they can be tested.

* :func:`run_open_loop` — the paced generator.  Every packet has a due
  time fixed before the run starts.  The generator sends whatever is
  due; a slow ack makes later packets go out late, and because their
  latency is timed from the due time, that wait is counted, never hidden
  by sending faster afterwards.
* :func:`reference_replay` — the in-process replay of a deployment's
  packets that every served event stream is checked against.  It also
  records, for each event, the index of the packet whose state emitted
  it; end-of-stream flush events are kept apart and never attributed.
* :func:`attribute_events` — matches a served stream to its reference,
  counting mismatches and missing events, and turns each matched event
  into a latency from its triggering packet's due time.
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple


def event_key(event: dict) -> str:
    """Canonical JSON of one incident event (the bit-identity check)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------


@dataclass
class SendRecord:
    """One send of packets ``[lo, hi)``: when it left and when it was acked."""

    lo: int
    hi: int
    sent_at: float
    acked_at: float

    @property
    def ack_s(self) -> float:
        return self.acked_at - self.sent_at


@dataclass
class OpenLoopResult:
    records: List[SendRecord] = field(default_factory=list)
    sent_at: List[float] = field(default_factory=list)  #: per packet
    lag_max_s: float = 0.0  #: latest a packet left after its due time

    def ack_samples(self) -> List[float]:
        return [r.ack_s for r in self.records]


def run_open_loop(
    due: Sequence[float],
    send: Callable[[int, int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    max_batch: int = 256,
    tick_s: float = 0.0,
) -> OpenLoopResult:
    """Send packets ``0..len(due)`` on their schedule (open loop).

    ``send(lo, hi)`` transmits packets ``[lo, hi)`` and returns once they
    are acked.  Each call takes every packet already due (at most
    ``max_batch``), so a stall leaves a backlog that goes out in the next
    sends, late, with the lateness recorded.  Sends start at least
    ``tick_s`` apart, as a gateway that flushes on a timer would send.
    """
    out = OpenLoopResult(sent_at=[0.0] * len(due))
    cursor = 0
    n = len(due)
    next_send = -float("inf")
    while cursor < n:
        now = clock()
        wake = max(due[cursor], next_send)
        if wake > now:
            sleep(wake - now)
            continue
        hi = min(bisect.bisect_right(due, now, lo=cursor), cursor + max_batch)
        sent_at = clock()
        next_send = sent_at + tick_s
        send(cursor, hi)
        acked_at = clock()
        out.records.append(SendRecord(cursor, hi, sent_at, acked_at))
        out.lag_max_s = max(out.lag_max_s, sent_at - due[cursor])
        for i in range(cursor, hi):
            out.sent_at[i] = sent_at
        cursor = hi
    return out


# ----------------------------------------------------------------------
# reference replay and attribution
# ----------------------------------------------------------------------


@dataclass
class Reference:
    """What a deployment must serve for a given packet sequence."""

    events: List[str]  #: canonical event JSON, in emission order
    trigger: List[int]  #: packet index whose state emitted each event
    flush: List[str]  #: end-of-stream flush events (never attributed)


def reference_replay(session, packets: Sequence[tuple], to_obj) -> Reference:
    """Push ``packets`` through ``session`` one at a time.

    ``session`` is a :class:`~repro.core.streaming.StreamingDiagnosisSession`
    (or anything with ``push_packet`` and ``finish``); ``to_obj`` turns an
    incident event into its wire object.
    """
    events: List[str] = []
    trigger: List[int] = []
    for index, packet in enumerate(packets):
        update = session.push_packet(*packet)
        if update is not None and update.events:
            for event in update.events:
                events.append(event_key(to_obj(event)))
                trigger.append(index)
    flush = [event_key(to_obj(e)) for e in session.finish()]
    return Reference(events=events, trigger=trigger, flush=flush)


@dataclass
class Attribution:
    matched: int
    mismatched: int
    missing: int
    extra: int
    latencies: List[float]  #: per matched event
    triggers: List[int]  #: the triggering packet of each latency

    @property
    def failed(self) -> int:
        return self.mismatched + self.missing + self.extra


def attribute_events(
    served: Sequence[Tuple[dict, float]],
    reference: Reference,
    packet_due: Callable[[int], float],
) -> Attribution:
    """Check a served stream against its reference and time each event.

    ``served`` is ``(event_obj, arrival_time)`` in arrival order.  Served
    events must equal the reference position by position.  Flush events
    never arrive during a run (the sink only flushes on drain); any that
    do, and anything beyond the reference, count as extra.  Latency is
    arrival minus the due time of the triggering packet.
    """
    matched = mismatched = 0
    latencies: List[float] = []
    triggers: List[int] = []
    limit = min(len(served), len(reference.events))
    for k in range(limit):
        event, arrived = served[k]
        if event_key(event) == reference.events[k]:
            matched += 1
            triggers.append(reference.trigger[k])
            latencies.append(arrived - packet_due(triggers[-1]))
        else:
            mismatched += 1
    return Attribution(
        matched=matched,
        mismatched=mismatched,
        missing=max(len(reference.events) - len(served), 0),
        extra=max(len(served) - len(reference.events), 0),
        latencies=latencies,
        triggers=triggers,
    )
