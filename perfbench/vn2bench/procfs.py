"""Process CPU and memory from ``/proc``, and the host fingerprint."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0 if it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime/stime are 14/15.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MB (0 if it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    """Direct children of ``pid``, across all its threads."""
    out: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:  # ``pid`` has ended
        return out
    for task in tasks:
        try:
            out += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return out


def host_cpu() -> Tuple[int, int]:
    """(steal, total) jiffies over all CPUs since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else on our virtual CPUs;
    a run with a high share of it measured a slower machine.
    """
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


class PeakSampler:
    """Tracks the peak memory of a process tree while it runs.

    A background thread samples every ``period_s``: each sample sums the
    ``VmHWM`` of the processes alive at that moment, and the peak is the
    largest such sum.  Pool workers that come and go (one pair per
    offline cycle) count only while they live, so the peak does not grow
    with the number of cycles a run fits in.
    """

    def __init__(self, root_pids: Iterable[int], period_s: float = 0.1):
        self.root_pids = list(root_pids)
        self.period_s = period_s
        self.total_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        pids = list(self.root_pids)
        for pid in self.root_pids:
            pids += children(pid)
        self.total_mb = max(self.total_mb,
                            sum(peak_rss_mb(pid) for pid in pids))

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self) -> "PeakSampler":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sample()


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
    }
