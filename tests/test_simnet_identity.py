"""Simulator output identity: every bit ``repro.simnet`` produces is pinned.

The golden-trace tests only load a committed file, and the runner
differentials compare two runs of the same code, which drift together.
These tests regenerate traces in-process and compare them with values
recorded from a known-good simulator, so any change to event order,
random-draw order or float arithmetic fails here.  A deliberate change
to simulator behaviour updates the digests (and the golden file) in the
same commit.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.presets import build_preset
from repro.chaos.runtime import generate_chaos_frame
from repro.traces.citysee import CitySeeProfile, generate_citysee_frame
from tests.data.regenerate_golden import write_golden

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_trace.jsonl"

COLUMNS = (
    "node_ids", "epochs", "generated_at", "received_at", "values",
    "arrival_times", "arrival_nodes",
)


def frame_digest(frame) -> str:
    """SHA-256 over every column's dtype, shape and bytes, plus ground truth."""
    digest = hashlib.sha256()
    for name in COLUMNS:
        column = np.ascontiguousarray(getattr(frame, name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        digest.update(column.tobytes())
    for event in frame.ground_truth:
        digest.update(repr((
            event.kind, tuple(int(n) for n in event.node_ids),
            float(event.start), float(event.end),
        )).encode())
    digest.update(
        f"{frame.packets_generated}:{frame.packets_received}".encode()
    )
    return digest.hexdigest()


def test_golden_trace_regenerates_byte_for_byte(tmp_path):
    path = tmp_path / "golden.jsonl"
    write_golden(path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_citysee_tiny_digest():
    frame = generate_citysee_frame(CitySeeProfile.tiny(), use_cache=False)
    assert frame_digest(frame) == (
        "02318fe261373d79ca7a15f1750cd7d05fe40eaa081217e86c3795fe8d692557"
    )


@pytest.mark.parametrize("preset, expected", [
    # NodeMove re-draws radio shadowing mid-run; DutyCycle sleeps radios.
    ("flaky-field",
     "24f763854f74aa754f0fcdf1a6b248c2c74c3724888888b3fc3b29e753a9b862"),
    # Multi-gateway failover.
    ("gateway-blackout",
     "0e36b48c16a5c6a69b692028f7e6c9735e36239c32d6a61a8772f7ba78cbc771"),
])
def test_chaos_tiny_digest(preset, expected):
    scenario = build_preset(preset, seed=7, scale="tiny")
    frame = generate_chaos_frame(scenario, use_cache=False)
    assert frame_digest(frame) == expected
