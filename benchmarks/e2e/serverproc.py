"""A ``repro serve`` child process, observed from outside.

The benchmark never embeds the server: it spawns ``python -m repro.cli
serve`` exactly as an operator would, times start-up to the first PONG,
and reads the server's CPU time and peak memory from ``/proc`` for the
server process and every process it started (the shard pool and the
multiprocessing resource tracker).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.serving.client import ServingClient

_BANNER = re.compile(r"listening on [^:]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SHM = "/dev/shm"


class ServerError(RuntimeError):
    """The server failed to start, to answer, or to stop cleanly."""


def _children_by_parent() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def process_tree(pid: int) -> List[int]:
    """``pid`` and all of its live descendants."""
    tree = _children_by_parent()
    found, frontier = [pid], [pid]
    while frontier:
        children = tree.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pids: Iterable[int]) -> Dict[int, float]:
    """User + system CPU seconds of each live process in ``pids``."""
    seconds = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        seconds[pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return seconds


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` over the live processes in ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_entries() -> Set[str]:
    """Names currently in ``/dev/shm`` (empty where it does not exist)."""
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


class ServerProcess:
    """One ``repro serve`` child on an ephemeral port.

    ``setup_s`` is the wall time from spawning the process to the first
    PONG: interpreter start, imports, basis build, pool fork and corpus
    open all count.  ``stop()`` sends SIGTERM, requires exit code 0 and
    waits until every process the server started has ended.
    """

    def __init__(self, root: str, flags: Sequence[str], log_path: str) -> None:
        self.root = root
        self.flags = list(flags)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.started_tree: List[int] = []

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", *self.flags,
        ]
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        deadline = started + timeout
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            line = self.proc.stdout.readline() if ready else ""
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(1))
                break
            if not line:
                self.kill()
                raise ServerError(
                    f"repro serve did not start listening; see {self.log_path}"
                )
        with ServingClient("127.0.0.1", self.port, timeout=timeout) as client:
            if not client.ping().get("ready"):
                self.kill()
                raise ServerError("first PONG reported not ready")
        self.setup_s = time.perf_counter() - started
        self.started_tree = process_tree(self.proc.pid)
        return self

    def tree(self) -> List[int]:
        """The server and its live descendants."""
        return process_tree(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait, and return the exit code; every child must end."""
        known = self.tree()
        self.proc.send_signal(signal.SIGTERM)
        try:
            _out, _err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("repro serve ignored SIGTERM")
        self._reap(known[1:])
        return self.proc.returncode

    def kill(self) -> None:
        """Hard stop (error paths): the server and everything it started."""
        if self.proc is None or self.proc.poll() is not None:
            return
        known = process_tree(self.proc.pid)
        for pid in reversed(known):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.communicate()
        self._reap(known[1:])

    @staticmethod
    def _reap(pids: Sequence[int], timeout: float = 10.0) -> None:
        """Wait for the server's former children (reparented) to exit."""
        deadline = time.perf_counter() + timeout
        alive = list(pids)
        while alive and time.perf_counter() < deadline:
            alive = [pid for pid in alive if _running(pid)]
            if alive:
                time.sleep(0.01)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if alive:
            raise ServerError(f"server children {alive} outlived the server")
