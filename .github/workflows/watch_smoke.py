"""CI smoke test: `vn2 watch` tails a trace while a writer appends it.

Trains a small testbed model, saves it, then starts a background thread
that appends the trace's JSONL rows one by one while `vn2 watch` follows
the file with the saved model.  The watcher must exit cleanly on idle
timeout, having seen every packet, and append its incident events to
``$VN2_WATCH_LOG`` (uploaded as the job's artifact).
"""

import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.pipeline import VN2, VN2Config
from repro.traces.io import save_frame
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

N_ROWS = 400

work = Path("watch-smoke")
work.mkdir(exist_ok=True)

frame = generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=7)
VN2(VN2Config(rank=10, filter_exceptions=False)).fit(frame).save(work / "model")
save_frame(frame, work / "full.jsonl")
lines = (work / "full.jsonl").read_text().splitlines()

live = work / "live.jsonl"


def writer():
    with live.open("a", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n")  # header
        for row in lines[1 : N_ROWS + 1]:
            fh.write(row + "\n")
            fh.flush()
            time.sleep(0.002)


thread = threading.Thread(target=writer)
thread.start()
rc = subprocess.call(
    [
        sys.executable,
        "-m",
        "repro.cli",
        "watch",
        str(live),
        "--model",
        str(work / "model"),
        "--poll",
        "0.1",
        "--idle-timeout",
        "5",
    ]
)
thread.join()
sys.exit(rc)
