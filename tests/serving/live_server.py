"""A live ``repro serve`` subprocess and its process tree, read from /proc.

Shared by the tests that look at a server from outside, as an operator
would: which processes it runs for a given traffic, which shared
segments they hold, and what a SIGKILL leaves behind.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import time

_BANNER = re.compile(r"listening on [^:]+:(\d+)")
_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: The grid and basis every live server here builds (and tests rebuild
#: locally with ``ServerConfig(n_samples=4096, basis_size=8)``).
SMALL_FLAGS = ("--n-samples", "4096", "--basis-size", "8")


def _state_and_parent(pid):
    """``(state, ppid)`` of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper does not)."""
    stat = _state_and_parent(pid)
    return stat is not None and stat[0] != "Z"


def process_tree(pid):
    """``pid`` and its live descendants."""
    children = {}
    for entry in os.listdir("/proc"):
        stat = _state_and_parent(entry) if entry.isdigit() else None
        if stat is not None and stat[0] != "Z":
            children.setdefault(stat[1], []).append(int(entry))
    found, frontier = [pid], [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def arena_segments(pid="self"):
    """``(st_dev, st_ino)`` of each ``SharedArena`` segment ``pid`` holds open.

    Arena segments are anonymous ``memfd:repro-arena`` files, so their
    descriptors are the only place to find them; a gone ``pid`` holds
    none.
    """
    fd_dir = f"/proc/{pid}/fd"
    try:
        entries = os.listdir(fd_dir)
    except OSError:
        return set()
    found = set()
    for entry in entries:
        path = os.path.join(fd_dir, entry)
        try:
            if os.readlink(path).startswith("/memfd:repro-arena"):
                stat = os.stat(path)
                found.add((stat.st_dev, stat.st_ino))
        except OSError:  # closed while we looked
            pass
    return found


def arena_mappings(pid="self"):
    """Inode numbers of the ``SharedArena`` segments ``pid`` has mapped;
    a gone ``pid`` maps none."""
    try:
        with open(f"/proc/{pid}/maps") as maps:
            return {
                int(line.split()[4])
                for line in maps
                if "/memfd:repro-arena" in line
            }
    except OSError:
        return set()


def dev_shm_entries():
    """Everything in ``/dev/shm``."""
    return set(os.listdir("/dev/shm"))


def wait_until(predicate, timeout):
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class LiveServer:
    """``repro serve --port 0`` plus ``flags``, spawned as a subprocess.

    ``fault`` arms ``REPRO_FAULT`` in the server and every process it
    forks.  ``pids`` collects every process :meth:`tree` has seen, so
    the pool workers stay known after a SIGKILL orphaned them.  Leaving
    the ``with`` block SIGKILLs what still runs of them.
    """

    def __init__(self, tmp_path, *flags, fault=None):
        env = dict(os.environ)
        env.pop("REPRO_FAULT", None)
        if fault is not None:
            env["REPRO_FAULT"] = fault
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.stderr_path = pathlib.Path(tmp_path) / "serve.stderr"
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 *SMALL_FLAGS, *flags],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=env,
            )
        self.pids = {self.proc.pid}
        banner = self.proc.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.__exit__(None, None, None)
            raise AssertionError(
                f"repro serve did not start: {banner!r}\n{self.stderr()}"
            )
        self.port = int(match.group(1))

    def tree(self):
        """The server and its live descendants (recorded in ``pids``)."""
        pids = process_tree(self.proc.pid)
        self.pids.update(pids)
        return pids

    def stderr(self):
        """Everything the server and its children wrote to stderr."""
        return self.stderr_path.read_text()

    def stop(self):
        """SIGTERM; the exit code, once every process it started ended."""
        self.tree()
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=60)
        assert wait_until(self._all_ended, 30), "children outlived the server"
        return code

    def _all_ended(self):
        return not any(alive(pid) for pid in self.pids)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.proc.poll() is None:
            self.tree()
        for pid in self.pids:
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait(timeout=60)
        wait_until(self._all_ended, 30)
        self.proc.stdout.close()
