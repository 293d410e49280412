"""The worker-pool pump survives, counts and logs callback errors."""

import json
import threading

from repro.runner.pool import WORKER_LOST, ProcessPool


def _ticker(conn, worker_id, n):
    for i in range(n):
        conn.send({"type": "tick", "i": i})
    conn.close()


def test_raising_callback_is_counted_logged_and_survived(capfd):
    received = []
    lost = threading.Event()

    def on_message(worker_id, message):
        if message["type"] == WORKER_LOST:
            lost.set()
            return
        if message["i"] == 2:
            raise RuntimeError("broken callback")
        received.append(message["i"])

    pool = ProcessPool(_ticker, 1, args=(5,), on_message=on_message)
    pool.start()
    try:
        assert lost.wait(timeout=30.0), "worker EOF never reached the pump"
    finally:
        pool.stop(timeout=10.0)

    assert received == [0, 1, 3, 4]
    assert pool.callback_errors == 1
    records = [
        json.loads(line) for line in capfd.readouterr().err.splitlines()
        if line.startswith("{")
    ]
    assert len(records) == 1
    record = records[0]
    assert record["site"] == "pool.pump"
    assert record["worker"] == "w0"
    assert record["type"] == "tick"
    assert record["error"] == "RuntimeError('broken callback')"
