"""Chaos suite for served LOGICNET traffic: same ladder, same contract.

Logicnet shards ride the identical supervision machinery as bitset
shards (they fire the same ``serving.run_shard`` /
``serving.compute_shard`` fault points), so the PR-9 clauses must hold
unchanged: a worker killed mid-request recovers to a **bit-identical**
reply with no operator action, and an expired deadline answers a typed
retryable ``ERR_DEADLINE`` — never a partial reply.
"""

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ServingError
from repro.logic.netbatch import LogicNetBatch
from repro.serving import protocol
from repro.serving.client import ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.testing import faults

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
FAMILY = dict(seed=33, n_gates=5, depth=2)
N_NETWORKS = 8


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    faults.reset()
    yield
    faults.disarm()
    faults.reset()


@pytest.fixture(scope="module")
def expected():
    """The calm-run answer every recovery must reproduce exactly."""
    basis = build_serving_basis(ServerConfig(**SMALL))
    inputs = basis.as_batch()
    nets = LogicNetBatch.random(
        N_NETWORKS,
        FAMILY["n_gates"],
        FAMILY["depth"],
        inputs.n_trains,
        FAMILY["seed"],
    )
    return nets.evaluate(inputs.packed_words(), inputs.grid.n_samples)


def _query(client, n_shards=2):
    return client.logicnet(
        FAMILY["seed"],
        0,
        N_NETWORKS,
        n_gates=FAMILY["n_gates"],
        depth=FAMILY["depth"],
        n_shards=n_shards,
    )


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestLogicNetShardKill:
    """A pool worker SIGKILLed mid-LOGICNET shard: the reply is unaffected."""

    def test_request_survives_worker_kill_bit_identically(
        self, tmp_path, expected
    ):
        popcounts, checksums = expected
        claim = tmp_path / "claim"
        # Armed before the pool forks; the claim admits exactly one kill.
        faults.arm(f"serving.run_shard=kill@{claim}")
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                reply = _query(client, n_shards=2)
        assert claim.exists(), "the fault never fired"
        np.testing.assert_array_equal(reply.popcounts, popcounts)
        np.testing.assert_array_equal(reply.checksums, checksums)
        assert reply.summary["transport"] == "seed-rebuild"

    def test_pool_keeps_serving_after_the_kill(self, tmp_path, expected):
        popcounts, checksums = expected
        claim = tmp_path / "claim"
        faults.arm(f"serving.run_shard=kill@{claim}")
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                first = _query(client)
                second = _query(client)
        assert claim.exists(), "the fault never fired"
        for reply in (first, second):
            np.testing.assert_array_equal(reply.popcounts, popcounts)
            np.testing.assert_array_equal(reply.checksums, checksums)


class TestLogicNetDeadline:
    """A slow shard blows the deadline: ERR_DEADLINE, never a partial reply."""

    def test_expiry_is_typed_retryable_not_partial(self):
        faults.arm("serving.compute_shard=delay:2")
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(
                handle.host, handle.port, deadline_ms=1
            ) as client:
                with pytest.raises(ServingError) as info:
                    _query(client, n_shards=2)
        assert info.value.code == protocol.ERR_DEADLINE
        assert info.value.retryable

    def test_generous_deadline_succeeds_bit_identically(self, expected):
        popcounts, checksums = expected
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(
                handle.host, handle.port, deadline_ms=60_000
            ) as client:
                reply = _query(client, n_shards=2)
        np.testing.assert_array_equal(reply.popcounts, popcounts)
        np.testing.assert_array_equal(reply.checksums, checksums)
