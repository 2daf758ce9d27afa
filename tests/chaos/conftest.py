"""Resource invariants checked after every chaos case.

A chaos case injects a fault and asserts the stack recovers; recovery
must also leave nothing behind.  After each case, and after a
``gc.collect()``, the autouse fixture below asserts:

* no new ``/dev/shm`` entries — every arena segment was unlinked, on
  whatever path the fault sent it down;
* the process's open file-descriptor count is back to its pre-test
  value — no socket, pipe or mapping outlived the case;
* the ``repro.serving`` logger emitted no shutdown warning about
  in-flight budget bytes still pinned or request tasks force-cancelled
  (the logger does not propagate, so the fixture attaches its own
  handler).

Process-lifetime multiprocessing handles — the resource-tracker pipe
and the ``pym-*`` heap arenas backing pool barriers and cluster stats
blocks — open once per process and never close (arenas under 4 MiB are
never returned); a session warm-up opens them so they belong to every
case's baseline.
"""

import gc
import logging
import multiprocessing
import os

import pytest

from repro.pipeline.runner import Runner
from repro.serving import log

_SHM = "/dev/shm"
_FD_DIR = "/proc/self/fd"

#: The shutdown warnings of :meth:`repro.serving.server.SpikeServer.close`.
_SHUTDOWN_LEAKS = ("still pinned", "force-cancelled")


def _shm_entries():
    return set(os.listdir(_SHM)) if os.path.isdir(_SHM) else set()


def _fd_count():
    return len(os.listdir(_FD_DIR)) if os.path.isdir(_FD_DIR) else 0


class _Recorder(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="session")
def _process_lifetime_handles():
    """Open the handles a process keeps once it has forked a pool."""
    with Runner(jobs=2) as runner:
        runner.ensure_pool()
    # One large shared-ctypes block opens a heap arena with room for
    # every later barrier, lock and stats block, then frees into it.
    multiprocessing.RawArray("b", 1 << 20)
    log.get_logger()  # configure now: a later first use would reset handlers
    gc.collect()


@pytest.fixture(autouse=True)
def _no_leaked_resources(_process_lifetime_handles):
    gc.collect()
    shm_before, fds_before = _shm_entries(), _fd_count()
    recorder = _Recorder()
    logger = logging.getLogger("repro.serving")
    logger.addHandler(recorder)
    try:
        yield
    finally:
        logger.removeHandler(recorder)
    gc.collect()
    leaked = sorted(_shm_entries() - shm_before)
    assert not leaked, f"/dev/shm entries left behind: {leaked}"
    assert _fd_count() == fds_before, (
        f"open file descriptors {fds_before} -> {_fd_count()}"
    )
    shutdown_leaks = [
        message
        for message in recorder.messages
        if any(marker in message for marker in _SHUTDOWN_LEAKS)
    ]
    assert not shutdown_leaks, f"shutdown leaked: {shutdown_leaks}"
