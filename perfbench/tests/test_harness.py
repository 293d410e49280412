"""Tests of the benchmark harness itself (no sink, no simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from vn2bench import procfs  # noqa: E402
from vn2bench.compare import verdict  # noqa: E402
from vn2bench.loadshape import (  # noqa: E402
    Reference,
    attribute_events,
    event_key,
    reference_replay,
    run_open_loop,
)
from vn2bench.sink import histogram_quantile  # noqa: E402
from vn2bench.stats import (  # noqa: E402
    FailureLedger,
    InsufficientSamples,
    percentile,
    required_samples,
    samples_beyond,
)

# ----------------------------------------------------------------------
# the ">= 10 samples beyond the percentile" rule
# ----------------------------------------------------------------------


def test_required_samples_for_common_percentiles():
    assert required_samples(0.9) == 100
    assert required_samples(0.99) == 1000
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 0.99)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(1, 1001)), 0.99) == 990.0
    assert percentile(list(range(1, 101)), 0.9) == 90.0


def test_median_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


# ----------------------------------------------------------------------
# open-loop due-time accounting
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_stalled_ack_delays_later_sends_and_counts_in_their_latency():
    clock = FakeClock()
    due = [i * 0.1 for i in range(10)]  # 10 packets/s
    stall_s = 0.55

    def send(lo, hi):
        if lo == 2:  # the ack of the batch holding packet 2 stalls
            clock.now += stall_s

    result = run_open_loop(due, send, clock=clock, sleep=clock.sleep)
    # Packets 3..7 came due during the stall and go out together, late.
    late = result.records[3]
    assert (late.lo, late.hi) == (3, 8)
    assert result.sent_at[3] == pytest.approx(0.2 + stall_s)
    # Timed from the due time, the stall shows in every delayed packet,
    # not only the one that waited for the ack.
    delays = [result.sent_at[i] - due[i] for i in range(10)]
    assert delays[3] == pytest.approx(stall_s - 0.1)
    assert delays[7] == pytest.approx(stall_s - 0.5)
    assert all(d == pytest.approx(0.0) for d in delays[8:])
    assert result.lag_max_s == pytest.approx(stall_s - 0.1)
    # The generator never sends ahead of schedule to make up.
    assert all(result.sent_at[i] >= due[i] for i in range(10))


def test_event_latency_from_due_time_includes_the_stall():
    clock = FakeClock()
    due = [i * 0.1 for i in range(4)]

    def send(lo, hi):
        if lo == 0:
            clock.now += 0.35  # stall on the first ack

    loop = run_open_loop(due, send, clock=clock, sleep=clock.sleep)
    reference = Reference(events=[event_key({"id": 1})], trigger=[2], flush=[])
    # The event leaves the sink 5 ms after its packet was sent.
    arrival = loop.sent_at[2] + 0.005
    attr = attribute_events([({"id": 1}, arrival)], reference, due.__getitem__)
    assert attr.latencies == [pytest.approx(0.35 - 0.2 + 0.005)]


def test_open_loop_respects_max_batch():
    clock = FakeClock()
    due = [0.0] * 10
    result = run_open_loop(due, lambda lo, hi: None, clock=clock,
                           sleep=clock.sleep, max_batch=4)
    assert [(r.lo, r.hi) for r in result.records] == [(0, 4), (4, 8), (8, 10)]


# ----------------------------------------------------------------------
# event → triggering packet attribution
# ----------------------------------------------------------------------


class _Update:
    def __init__(self, events):
        self.events = events


class FakeSession:
    """Emits events at scripted packet indices, plus two flush events."""

    def __init__(self, script):
        self.script = script
        self.index = -1

    def push_packet(self, *packet):
        self.index += 1
        events = self.script.get(self.index)
        return _Update(events) if events else None

    def finish(self):
        return [{"kind": "close", "id": "flush-a"}, {"kind": "close", "id": "flush-b"}]


def _identity(event):
    return event


def test_reference_replay_attributes_events_to_their_packets():
    script = {1: [{"kind": "open", "id": 1}],
              4: [{"kind": "update", "id": 1}, {"kind": "open", "id": 2}]}
    ref = reference_replay(FakeSession(script), [(0, 0, 0.0, None)] * 6, _identity)
    assert ref.trigger == [1, 4, 4]
    assert [json.loads(e)["id"] for e in ref.events] == [1, 1, 2]
    # Flush events are kept apart and never attributed to a packet.
    assert [json.loads(e)["id"] for e in ref.flush] == ["flush-a", "flush-b"]
    assert len(ref.trigger) == len(ref.events)


def test_attribution_counts_mismatches_missing_and_flush_extras():
    script = {0: [{"id": 1}], 2: [{"id": 2}], 3: [{"id": 3}]}
    ref = reference_replay(FakeSession(script), [(0, 0, 0.0, None)] * 4, _identity)
    due = [10.0, 11.0, 12.0, 13.0]

    exact = [({"id": 1}, 10.5), ({"id": 2}, 12.25), ({"id": 3}, 13.0)]
    attr = attribute_events(exact, ref, due.__getitem__)
    assert attr.failed == 0
    assert attr.latencies == [0.5, 0.25, 0.0]

    wrong = [({"id": 1}, 10.5), ({"id": 99}, 12.5)]
    attr = attribute_events(wrong, ref, due.__getitem__)
    assert (attr.matched, attr.mismatched, attr.missing) == (1, 1, 1)
    assert attr.latencies == [0.5]

    # A flush close arriving mid-run is not part of the attributed stream.
    flushed = exact + [({"kind": "close", "id": "flush-a"}, 14.0)]
    attr = attribute_events(flushed, ref, due.__getitem__)
    assert (attr.matched, attr.extra) == (3, 1)
    assert len(attr.latencies) == 3


def test_event_key_is_order_independent_but_value_exact():
    assert event_key({"a": 1, "b": 0.1}) == event_key({"b": 0.1, "a": 1})
    assert event_key({"a": 0.1 + 0.2}) != event_key({"a": 0.3})


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


def test_ledger_pools_kinds_into_one_failed_fraction():
    ledger = FailureLedger()
    ledger.attempt("packets", 1000)
    ledger.fail("packets", 3, "dep-0: diagnosed 997 of 1000")
    ledger.attempt("events", 100)
    assert ledger.check("scrapes", True)
    assert not ledger.check("scrapes", False, "/metrics failed")
    assert ledger.n_attempted == 1102
    assert ledger.n_failed == 4
    assert ledger.frac == pytest.approx(4 / 1102)
    assert ledger.to_dict()["failed"] == {"packets": 3, "scrapes": 1}


def test_ledger_with_nothing_attempted_reads_as_all_failed():
    ledger = FailureLedger()
    assert ledger.frac == 1.0
    ledger.attempt("jobs", 2)
    assert ledger.frac == 0.0


# ----------------------------------------------------------------------
# compare and histogram helpers
# ----------------------------------------------------------------------


def test_compare_marks_a_noisy_metric_unresolved():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert verdict(steady, steady, 0.05, "lower")[0] == "same"
    assert verdict(steady, noisy, 0.05, "lower")[0] == "unresolved"
    assert verdict(steady, [v * 1.2 for v in steady], 0.05, "lower")[0] == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], 0.05, "lower")[0] == "better"
    assert verdict(steady, [v * 1.2 for v in steady], 0.05, "higher")[0] == "better"
    assert verdict([1.0], [1.0], 0.05, "lower")[0] == "unresolved"


def test_histogram_quantile_of_the_observations_between_scrapes():
    before = {0.01: 10.0, 0.1: 10.0, float("inf"): 10.0}
    after = {0.01: 10.0, 0.1: 110.0, float("inf"): 110.0}
    # All 100 new observations fell in (0.01, 0.1].
    assert histogram_quantile(before, after, 0.5) == pytest.approx(0.055)
    assert histogram_quantile(before, before, 0.5) is None


def test_peak_memory_counts_only_the_workers_alive_together(monkeypatch):
    # The root (pid 1) forks a fresh pair of pool workers per cycle.
    tree = {1: [2, 3]}
    hwm = {1: 300.0, 2: 50.0, 3: 50.0, 4: 60.0, 5: 60.0}
    monkeypatch.setattr(procfs, "children", lambda pid: tree.get(pid, []))
    monkeypatch.setattr(procfs, "peak_rss_mb", lambda pid: hwm[pid])
    sampler = procfs.PeakSampler([1])
    sampler.sample()
    tree[1] = [4, 5]  # the first pair has exited
    sampler.sample()
    tree[1] = []
    sampler.sample()
    assert sampler.total_mb == 420.0
