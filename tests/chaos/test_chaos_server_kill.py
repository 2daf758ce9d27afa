"""Chaos: a SIGKILLed server leaves nothing in ``/dev/shm``.

A killed server runs no ``finally`` and no arena finalizer.  Nothing
has to: its arena segments are anonymous memfds, never named in
``/dev/shm`` or anywhere else, and the kernel frees their pages when
the last holder goes — the server's descriptors when it dies, the
orphaned pool workers' mappings when they exit.  So nothing appears in
``/dev/shm`` while the request is in flight, and nothing is left after
the kill, even with the workers still busy with the request's shards.
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
    arena_segments,
    dev_shm_entries,
    wait_until,
)

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc"),
    pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm"),
    pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    ),
]


def _identify(port, wires, outcome):
    """Send one two-shard identify; record how it ended."""
    try:
        with ServingClient("127.0.0.1", port, timeout=60.0) as client:
            outcome.append(client.identify(wires, n_shards=2))
    except ConnectionLostError as exc:  # the server dies mid-request
        outcome.append(exc)


def test_killed_server_leaves_nothing_in_dev_shm(tmp_path):
    wires = build_serving_basis(
        ServerConfig(n_samples=4096, basis_size=8)
    ).as_batch().select_rows([5, 2, 7])
    before = dev_shm_entries()
    outcome = []
    # Leaving the block SIGKILLs the orphaned pool workers recorded in
    # server.pids by the tree() call before the kill.
    with LiveServer(
        tmp_path, "--jobs", "2", "--fast-path-bytes", "0",
        fault="serving.run_shard=delay:30000",
    ) as server:
        sender = threading.Thread(
            target=_identify, args=(server.port, wires, outcome)
        )
        sender.start()
        try:
            assert wait_until(lambda: arena_segments(server.proc.pid), 30), (
                "the request never exported its arena"
            )
            tree = server.tree()
            assert len(tree) == 2, tree  # the server and its one worker
            in_flight = sorted(dev_shm_entries() - before)
            workers = tree[1:]
            server.proc.kill()
            server.proc.wait(timeout=30)
            left = sorted(dev_shm_entries() - before)
            assert all(alive(pid) for pid in workers), (
                "the pooled shard should still be sleeping in its worker"
            )
        finally:
            server.proc.kill()
            sender.join(timeout=60)
    assert not in_flight, f"the live request named {in_flight} in /dev/shm"
    assert not left, f"the killed server left {left} in /dev/shm"
    assert not sender.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], ConnectionLostError)
