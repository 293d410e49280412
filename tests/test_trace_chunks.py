"""Chunked and tailing trace readers: bounded-memory IO equals full loads.

``iter_frame_chunks`` must reproduce ``load_frame`` column for column at
any chunk size and for both codecs, and ``tail_frame_jsonl`` must keep up
with a concurrently appending writer — the two ingestion paths behind
``vn2 watch`` and the streaming benchmark.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.traces.io import (
    iter_frame_chunks,
    load_frame,
    read_frame_header,
    save_frame,
    tail_frame_jsonl,
)


@pytest.fixture(scope="module")
def frame(testbed_trace):
    return testbed_trace


@pytest.fixture(scope="module", params=["jsonl", "npz"])
def saved_path(request, frame, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / f"trace.{request.param}"
    save_frame(frame, path, fmt=request.param)
    return path


COLUMNS = ("node_ids", "epochs", "generated_at", "received_at", "values")


@pytest.mark.parametrize("chunk_rows", [1, 97, 4096, 10**6])
def test_chunks_concatenate_to_full_frame(saved_path, frame, chunk_rows):
    chunks = list(iter_frame_chunks(saved_path, chunk_rows=chunk_rows))
    assert sum(len(c) for c in chunks) == len(frame)
    assert all(len(c) <= chunk_rows for c in chunks)
    # Compare against a full load of the same file: the chunked reader's
    # contract is bit-equality with load_frame (JSONL itself rounds floats
    # on write, identically for both readers).
    full = load_frame(saved_path)
    for column in COLUMNS:
        streamed = np.concatenate([getattr(c, column) for c in chunks])
        assert np.array_equal(streamed, getattr(full, column)), column


def test_read_frame_header_both_codecs(saved_path, frame):
    header = read_frame_header(saved_path)
    assert header["metadata"] == frame.metadata
    assert header["packets_generated"] == frame.packets_generated
    assert header["packets_received"] == frame.packets_received


def test_header_rejects_non_trace_file(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text(json.dumps({"hello": "world"}) + "\n")
    with pytest.raises(ValueError):
        read_frame_header(bogus)


def _row_dict(frame, i):
    return {
        "node_id": int(frame.node_ids[i]),
        "epoch": int(frame.epochs[i]),
        "generated_at": float(frame.generated_at[i]),
        "received_at": float(frame.received_at[i]),
        "values": frame.values[i].tolist(),
    }


def test_tail_reads_static_file_without_follow(frame, tmp_path):
    path = tmp_path / "static.jsonl"
    save_frame(frame, path, fmt="jsonl")
    loaded = load_frame(path)
    rows = list(tail_frame_jsonl(path, follow=False))
    assert len(rows) == len(frame)
    assert rows[0].node_id == int(frame.node_ids[0])
    assert np.array_equal(rows[-1].values, loaded.values[-1])


def test_tail_follows_growing_file(frame, tmp_path):
    """A background writer appends while the tail consumes: every row
    arrives, in order, including ones split across write() calls."""
    path = tmp_path / "growing.jsonl"
    n_rows = min(len(frame), 60)
    header = json.dumps(read_header_obj(frame))

    def writer():
        with path.open("a", encoding="utf-8") as fh:
            for i in range(n_rows):
                line = json.dumps(_row_dict(frame, i)) + "\n"
                # Split every line in two flushes to exercise the
                # partial-line buffer.
                fh.write(line[: len(line) // 2])
                fh.flush()
                fh.write(line[len(line) // 2 :])
                fh.flush()

    path.write_text(header + "\n")
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        rows = list(
            tail_frame_jsonl(path, poll_s=0.05, idle_timeout=5.0)
        )
    finally:
        thread.join()
    assert len(rows) == n_rows
    for i, row in enumerate(rows):
        assert row.node_id == int(frame.node_ids[i])
        assert row.epoch == int(frame.epochs[i])
        assert np.array_equal(row.values, frame.values[i])


def read_header_obj(frame):
    """The header dict a JSONL save writes (via a real save)."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "scratch.jsonl"
        save_frame(frame, scratch, fmt="jsonl")
        with scratch.open("r", encoding="utf-8") as fh:
            return json.loads(fh.readline())


def test_tail_stop_callable_ends_follow(frame, tmp_path):
    path = tmp_path / "stopped.jsonl"
    save_frame(frame, path, fmt="jsonl")
    seen = []
    rows = tail_frame_jsonl(
        path, poll_s=0.01, stop=lambda: len(seen) >= 0  # stop at first EOF
    )
    for row in rows:
        seen.append(row)
    assert len(seen) == len(frame)
