"""Chaos: a SIGKILLed server's shared-memory segments are unlinked.

A killed server runs no ``finally`` and no arena finalizer; the
multiprocessing resource tracker it started with its first segment is
what unlinks what the server left in ``/dev/shm``.  It does so once
every holder of its pipe has exited — the server alone, because the
pool forked before that first segment — so the cleanup does not wait
for the orphaned pool workers still busy with the request's shards.
"""

import os
import threading

import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ConnectionLostError
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from ..serving.live_server import (
    LiveServer,
    alive,
    is_resource_tracker,
    shm_segments,
    wait_until,
)

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc"),
    pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm"),
    pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
    ),
]


def _identify(port, wires, outcome):
    """Send one two-shard identify; record how it ended."""
    try:
        with ServingClient("127.0.0.1", port, timeout=60.0) as client:
            outcome.append(client.identify(wires, n_shards=2))
    except ConnectionLostError as exc:  # the server dies mid-request
        outcome.append(exc)


def test_killed_server_segments_unlinked_without_waiting_for_workers(
    tmp_path,
):
    wires = build_serving_basis(
        ServerConfig(n_samples=4096, basis_size=8)
    ).as_batch().select_rows([5, 2, 7])
    before = shm_segments()
    outcome = []
    # Leaving the block SIGKILLs the orphaned pool workers recorded in
    # server.pids by the tree() call before the kill, and leaves the
    # tracker to exit by itself.
    with LiveServer(
        tmp_path, "--jobs", "2", "--fast-path-bytes", "0",
        fault="serving.run_shard=delay:30000",
    ) as server:
        sender = threading.Thread(
            target=_identify, args=(server.port, wires, outcome)
        )
        sender.start()
        try:
            assert wait_until(lambda: shm_segments() - before, 30), (
                "the request never exported its arena"
            )
            tree = server.tree()
            workers = [
                pid for pid in tree[1:] if not is_resource_tracker(pid)
            ]
            assert len(workers) == 2, tree
            server.proc.kill()
            server.proc.wait(timeout=30)
            unlinked = wait_until(lambda: not shm_segments() - before, 5)
            left = sorted(shm_segments() - before)
            assert all(alive(pid) for pid in workers), (
                "the shards should still be sleeping in the workers"
            )
        finally:
            server.proc.kill()
            sender.join(timeout=60)
    assert unlinked, f"segments still in /dev/shm 5 s after the kill: {left}"
    assert not sender.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], ConnectionLostError)
