"""Chaos: idle pool workers killed from outside, or orphaned by a kill.

An idle worker waits on its own socket and holds nothing its siblings
need, so killing it from outside wedges nothing: the server sees the
death as EPIPE or EOF the next time it uses that worker, forks a
successor (which inherits the server's basis) and serves the request
bit-identically.  A forked worker points every socket it inherited but
its own at ``/dev/null``, so it is only ever a peer of the server's end
of its socket: when the server is SIGKILLed every idle worker reads EOF
and exits, replacements forked from the running server included, and
a client connection the server closes reads EOF although a successor
forked while it was open.

pytest-timeout is not installed: every wait below carries its own
bound, so a regression fails instead of hanging the suite.
"""

import os
import signal
import socket

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.logic.correlator import CoincidenceCorrelator
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from ..serving.live_server import LiveServer, alive, wait_until

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc"),
    pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    ),
]

#: Each served request must finish well inside this (seconds).
CLIENT_TIMEOUT = 20.0


@pytest.fixture(scope="module")
def basis():
    return build_serving_basis(ServerConfig(n_samples=4096, basis_size=8))


@pytest.fixture(scope="module")
def wires(basis):
    return basis.as_batch().select_rows([5, 2, 7, 1])


def _assert_identical(reply, expected):
    assert reply.summary["transport"] == "shared-arena", reply.summary
    for name in ("elements", "decision_slots", "spikes_inspected"):
        assert np.array_equal(getattr(reply, name), getattr(expected, name))


def _kill_and_wait(pid):
    os.kill(pid, signal.SIGKILL)
    assert wait_until(lambda: not alive(pid), 10), f"worker {pid} survived"


def test_each_killed_idle_worker_is_replaced(tmp_path, basis, wires):
    expected = CoincidenceCorrelator(basis).identify_batch(
        wires, missing="none"
    )
    with LiveServer(tmp_path, "--jobs", "3", "--fast-path-bytes", "0") as server:
        _server_pid, *workers = server.tree()
        assert len(workers) == 2, workers
        with ServingClient(
            "127.0.0.1", server.port, timeout=CLIENT_TIMEOUT
        ) as client:
            for pid in workers:
                _kill_and_wait(pid)
                # Three shards: the server computes one, each worker one.
                _assert_identical(client.identify(wires, n_shards=3), expected)
        _server_pid, *successors = server.tree()
        assert len(successors) == 2 and not set(successors) & set(workers)
        server.proc.send_signal(signal.SIGTERM)
        assert server.proc.wait(timeout=30) == 0, server.stderr()
        assert wait_until(
            lambda: not any(alive(pid) for pid in server.pids), 30
        ), "workers outlived the server"


def test_killed_server_leaves_no_idle_worker(tmp_path, wires):
    with LiveServer(tmp_path, "--jobs", "3", "--fast-path-bytes", "0") as server:
        _server_pid, *workers = server.tree()
        # One worker forked before the front-end loaded, and one forked
        # by the running server to replace its killed sibling.
        _kill_and_wait(workers[0])
        with ServingClient(
            "127.0.0.1", server.port, timeout=CLIENT_TIMEOUT
        ) as client:
            client.identify(wires, n_shards=2)
        _server_pid, *idle = server.tree()
        assert len(idle) == 2 and workers[0] not in idle, idle
        server.proc.kill()
        server.proc.wait(timeout=30)
        assert wait_until(
            lambda: not any(alive(pid) for pid in idle), 1.0
        ), "idle workers outlived their server"


def _socket_count(pid):
    """How many sockets ``pid`` holds open."""
    fd_dir = f"/proc/{pid}/fd"
    links = []
    for entry in os.listdir(fd_dir):
        try:
            links.append(os.readlink(os.path.join(fd_dir, entry)))
        except OSError:  # closed while we looked
            pass
    return sum(link.startswith("socket:") for link in links)


def test_successor_holds_only_its_own_socket(tmp_path, wires):
    with LiveServer(
        tmp_path, "--jobs", "2", "--fast-path-bytes", "0",
        "--idle-timeout", "1",
    ) as server:
        _server_pid, *workers = server.tree()
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=CLIENT_TIMEOUT
        ) as idle:
            _kill_and_wait(workers[0])
            with ServingClient(
                "127.0.0.1", server.port, timeout=CLIENT_TIMEOUT
            ) as client:
                client.identify(wires, n_shards=2)
            _server_pid, *pool = server.tree()
            (successor,) = set(pool) - set(workers)
            # The server closes the idle connection after 1 s; no copy
            # of its end may outlive that in the successor.
            idle.settimeout(5.0)
            assert idle.recv(1) == b""
            assert _socket_count(successor) == 1
