"""Chaos suite: every recovery path ends bit-identical to the calm run.

Each test arms one fault through :mod:`repro.testing.faults`, lets the
stack absorb it without operator intervention, and asserts the three
clauses of the fault-tolerance contract:

* eventual success is **bit-identical** to the undisturbed computation;
* any client-visible error is **typed** — retryable or fatal, never a
  raw hang or an untyped disconnect;
* recovery needs no operator action (supervision replaces pool
  workers, the client retry policy reconnects and re-issues).

Faults that reach forked children must be armed *before* the fork —
the harness travels by environment variable, which existing children
never re-read.
"""

import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, packed
from repro.backend.shared import HAVE_SHARED_MEMORY, SharedArena, attach_array
from repro.errors import PipelineError, ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.logic.netbatch import LogicNetBatch
from repro.pipeline.corpus import CorpusStore
from repro.pipeline.runner import Runner
from repro.serving import protocol
from repro.serving.client import RetryPolicy, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.testing import faults
from repro.units import SimulationGrid, paper_white_grid

from ..serving.live_server import LiveServer

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)

#: Generous enough to ride out a dropped connection, small enough that a
#: genuinely broken path fails the test quickly instead of stalling it.
RETRY = RetryPolicy(attempts=8, base_delay=0.05, factor=2.0, max_delay=0.5)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    faults.reset()
    yield
    faults.disarm()
    faults.reset()


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def small_wires(small_basis):
    rng = np.random.default_rng(99)
    elements = rng.integers(small_basis.size, size=24)
    return small_basis.as_batch().select_rows(elements)


@pytest.fixture(scope="module")
def expected_identify(small_basis, small_wires):
    """The calm-run answer every recovery must reproduce exactly."""
    return CoincidenceCorrelator(small_basis).identify_batch(
        small_wires, missing="none"
    )


def _assert_identical(reply, expected):
    assert np.array_equal(reply.elements, expected.elements)
    assert np.array_equal(reply.decision_slots, expected.decision_slots)
    assert np.array_equal(reply.spikes_inspected, expected.spikes_inspected)


def _kernel_rows(task):
    """Gather target: one row range of a packed kernel over two operands
    mapped from their arena."""
    kernel, a, b, lo, hi = task
    return getattr(packed, kernel)(attach_array(a)[lo:hi], attach_array(b))


# A worker fires this before each task it runs; the caller running a
# lost task in-process never does.
_kernel_rows.fault_point = "chaos.kernel_rows"


def _pooled(runner, kernel, a, b):
    """``kernel(a, b)`` split over the pool by row range.

    The operands' arena stays open until every getter has returned, so
    a lost range re-runs on the same operands.
    """
    with SharedArena() as arena:
        specs = arena.share_array(a), arena.share_array(b)
        tasks = [
            (kernel, *specs, lo, hi)
            for lo, hi in packed.row_chunk_bounds(len(a), runner.jobs)
        ]
        getters = runner.gather(_kernel_rows, tasks)
        return np.concatenate([get() for get in getters])


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestPoolWorkerKill:
    """A pool worker SIGKILLed mid-task: supervision retries the task."""

    def test_parallel_kernel_survives_worker_kill(self, tmp_path):
        claim = tmp_path / "claim"
        rng = np.random.default_rng(3)
        grid = SimulationGrid(n_samples=1000, dt=1e-12)
        a = SpikeTrainBatch.from_raster(
            rng.random((33, 1000)) < 0.15, grid
        ).packed_words()
        b = SpikeTrainBatch.from_raster(
            rng.random((11, 1000)) < 0.15, grid
        ).packed_words()
        serial = packed.pairwise_counts(a, b)
        # Armed before the fork so workers inherit the fault; the claim
        # file admits exactly one kill across the whole pool.
        faults.arm(f"chaos.kernel_rows=kill@{claim}")
        with Runner(jobs=2) as runner:
            out = _pooled(runner, "pairwise_counts", a, b)
        assert claim.exists(), "the fault never fired"
        assert np.array_equal(out, serial)

    def test_second_dispatch_reuses_recovered_pool(self, tmp_path):
        """After one kill the same Runner keeps serving new work."""
        claim = tmp_path / "claim"
        rng = np.random.default_rng(4)
        grid = SimulationGrid(n_samples=257, dt=1e-12)
        a = SpikeTrainBatch.from_raster(
            rng.random((17, 257)) < 0.15, grid
        ).packed_words()
        b = SpikeTrainBatch.from_raster(
            rng.random((7, 257)) < 0.15, grid
        ).packed_words()
        serial = packed.coincidence_any(a, b)
        faults.arm(f"chaos.kernel_rows=kill@{claim}")
        with Runner(jobs=2) as runner:
            first = _pooled(runner, "coincidence_any", a, b)
            second = _pooled(runner, "coincidence_any", a, b)
        assert claim.exists(), "the fault never fired"
        assert np.array_equal(first, serial)
        assert np.array_equal(second, serial)


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestServingShardKill:
    """A serving pool worker dies mid-shard: the reply is unaffected."""

    def test_sharded_request_survives_shard_worker_kill(
        self, tmp_path, small_wires, expected_identify
    ):
        claim = tmp_path / "claim"
        faults.arm(f"serving.run_shard=kill@{claim}")
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                reply = client.identify(small_wires, n_shards=2)
        assert claim.exists(), "the fault never fired"
        _assert_identical(reply, expected_identify)
        assert reply.summary["transport"] == "shared-arena"

    def test_killed_worker_is_replaced_and_the_pool_keeps_serving(
        self, tmp_path, small_wires, expected_identify
    ):
        """The server process outlives the kill; its pool heals under it."""
        claim = tmp_path / "claim"
        faults.arm(f"serving.run_shard=kill@{claim}")
        with Runner(jobs=3) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            with ServerThread(
                ServerConfig(jobs=3, **SMALL), runner=runner
            ) as handle:
                with ServingClient(handle.host, handle.port) as client:
                    # The server computes shard 0, each worker one other.
                    first = client.identify(small_wires, n_shards=3)
                    assert claim.exists(), "the fault never fired"
                    # The runner replaced the victim when a getter read EOF.
                    deadline = time.monotonic() + 30.0
                    after = runner.worker_pids()
                    while (
                        after == before or len(after) != 2
                    ) and time.monotonic() < deadline:
                        time.sleep(0.05)
                        after = runner.worker_pids()
                    second = client.identify(small_wires, n_shards=3)
                    stats = client.stats()
        assert len(before) == 2
        assert len(after) == 2 and after != before
        assert len(before & after) == 1, "exactly one worker was replaced"
        for reply in (first, second):
            _assert_identical(reply, expected_identify)
            assert reply.summary["transport"] == "shared-arena"
        assert stats["pool_path_requests"] == 2
        assert stats["errors"] == 0


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestEveryPoolAttemptKilled:
    """Every shard attempt on a worker dies: after its retries each
    shard runs in the server, where the pool-only fault never fires."""

    def test_server_answers_in_process_and_exits_cleanly(self, tmp_path):
        basis = build_serving_basis(ServerConfig(n_samples=4096, basis_size=8))
        inputs = basis.as_batch()
        wires = inputs.select_rows([5, 2, 7, 1])
        expected = CoincidenceCorrelator(basis).identify_batch(
            wires, missing="none"
        )
        popcounts, checksums = LogicNetBatch.random(
            8, 6, 2, inputs.n_trains, 21
        ).evaluate(inputs.packed_words(), inputs.grid.n_samples)
        with LiveServer(
            tmp_path, "--jobs", "2", fault="serving.run_shard=kill"
        ) as server:
            with ServingClient(
                "127.0.0.1", server.port, timeout=60.0
            ) as client:
                reply = client.identify(wires, n_shards=2)
                nets = client.logicnet(
                    21, 0, 8, n_gates=6, depth=2, n_shards=2
                )
                stats = client.stats()
            assert server.stop() == 0, server.stderr()
        _assert_identical(reply, expected)
        assert reply.summary["transport"] == "shared-arena"
        np.testing.assert_array_equal(nets.popcounts, popcounts)
        np.testing.assert_array_equal(nets.checksums, checksums)
        assert nets.summary["transport"] == "seed-rebuild"
        assert stats["pool_path_requests"] == 2
        assert stats["errors"] == 0


class TestTruncatedFrame:
    """The server dies mid-write: a typed loss, then a clean retry."""

    def test_client_retry_recovers_bit_identically(
        self, small_wires, expected_identify
    ):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            faults.arm("serving.send_frame=truncate:8:n=1")
            with ServingClient(
                handle.host, handle.port, retry=RETRY
            ) as client:
                reply = client.identify(small_wires)
        _assert_identical(reply, expected_identify)

    def test_without_retry_the_loss_is_typed_retryable(self, small_wires):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            faults.arm("serving.send_frame=truncate:8:n=1")
            with ServingClient(handle.host, handle.port) as client:
                with pytest.raises((ServingError, OSError, EOFError)) as info:
                    client.identify(small_wires)
        if isinstance(info.value, ServingError):
            assert info.value.retryable


class TestExpiredDeadline:
    """A slow shard blows the request deadline: ERR_DEADLINE, retryable."""

    def test_deadline_expiry_is_typed_and_retryable(self, small_wires):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            faults.arm("serving.compute_shard=delay:30")
            with ServingClient(
                handle.host, handle.port, deadline_ms=1
            ) as client:
                with pytest.raises(ServingError) as info:
                    client.identify(small_wires, n_shards=2)
        assert info.value.code == protocol.ERR_DEADLINE
        assert info.value.retryable

    def test_generous_deadline_succeeds_bit_identically(
        self, small_wires, expected_identify
    ):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(
                handle.host, handle.port, deadline_ms=60_000
            ) as client:
                reply = client.identify(small_wires, n_shards=2)
        _assert_identical(reply, expected_identify)


class TestCorruptCorpusSegment:
    """A flipped byte on disk: a fatal PipelineError naming the segment."""

    @pytest.fixture()
    def corpus_root(self, tmp_path, small_basis):
        root = tmp_path / "library"
        grid = paper_white_grid(n_samples=SMALL["n_samples"])
        store = CorpusStore.create(root, grid)
        rng = np.random.default_rng(13)
        elements = rng.integers(SMALL["basis_size"], size=50)
        with store.writer() as writer:
            writer.append(small_basis.as_batch().select_rows(elements[:25]))
            writer.append(small_basis.as_batch().select_rows(elements[25:]))
        return root

    def test_corruption_detected_on_read(self, corpus_root):
        faults.arm("corpus.open_rows=corrupt:0:n=1")
        store = CorpusStore(corpus_root)
        with pytest.raises(PipelineError) as info:
            store.open_rows(0, 10)
        message = str(info.value)
        assert "corrupt" in message
        assert "crc32 mismatch" in message
        assert ".seg" in message or str(corpus_root) in message

    def test_damage_is_on_disk_not_in_harness_state(self, corpus_root):
        faults.arm("corpus.open_rows=corrupt:0:n=1")
        with pytest.raises(PipelineError):
            CorpusStore(corpus_root).open_rows(0, 10)
        faults.disarm()
        # A brand-new store instance (fresh verification cache, no
        # fault armed) still refuses the corrupted segment.
        with pytest.raises(PipelineError):
            CorpusStore(corpus_root).open_rows(0, 10)

    def test_verify_audit_reports_the_corruption(self, corpus_root):
        faults.arm("corpus.open_rows=corrupt:0:n=1")
        with pytest.raises(PipelineError):
            CorpusStore(corpus_root).open_rows(0, 10)
        faults.disarm()
        with pytest.raises(PipelineError):
            CorpusStore(corpus_root, verify=False).verify()

    def test_intact_corpus_verifies_clean(self, corpus_root):
        report = CorpusStore(corpus_root).verify()
        assert report == {
            "segments_checked": 2,
            "segments_unchecksummed": 0,
        }


_RESIDUE_SCRIPT = """
import sys

import numpy as np

from repro.backend import SpikeTrainBatch, packed
from repro.backend.shared import SharedArena, attach_array
from repro.pipeline.runner import Runner
from repro.testing import faults
from repro.units import SimulationGrid


def pair_counts_rows(task):
    a, b, lo, hi = task
    return packed.pairwise_counts(attach_array(a)[lo:hi], attach_array(b))


pair_counts_rows.fault_point = "chaos.pair_counts_rows"

claim = sys.argv[1]
rng = np.random.default_rng(11)
grid = SimulationGrid(n_samples=1000, dt=1e-12)
a = SpikeTrainBatch.from_raster(
    rng.random((33, 1000)) < 0.15, grid
).packed_words()
b = SpikeTrainBatch.from_raster(
    rng.random((9, 1000)) < 0.15, grid
).packed_words()
serial = packed.pairwise_counts(a, b)
faults.arm("chaos.pair_counts_rows=kill@" + claim)
with Runner(jobs=2) as runner, SharedArena() as arena:
    specs = arena.share_array(a), arena.share_array(b)
    tasks = [(*specs, lo, hi) for lo, hi in packed.row_chunk_bounds(33, 2)]
    getters = runner.gather(pair_counts_rows, tasks)
    out = np.concatenate([get() for get in getters])
assert np.array_equal(out, serial), "recovered result diverged"
print("RESIDUE-TEST-OK")
"""


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host"
)
class TestSharedArenaHygiene:
    """SIGKILLed workers must not leak /dev/shm segments or warnings."""

    def test_no_shm_residue_after_worker_kill(self, tmp_path):
        shm = pathlib.Path("/dev/shm")
        before = set(os.listdir(shm))
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop(faults.ENV_VAR, None)
        claim = tmp_path / "claim"
        proc = subprocess.run(
            [sys.executable, "-c", _RESIDUE_SCRIPT, str(claim)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RESIDUE-TEST-OK" in proc.stdout
        assert claim.exists(), "the kill fault never fired"
        assert "resource_tracker" not in proc.stderr, proc.stderr
        # Give the kernel a beat to finish unlinks from reaped children,
        # then require that nothing this run created is still mapped.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = set(os.listdir(shm)) - before
            if not leaked:
                break
            time.sleep(0.1)
        assert not leaked, f"/dev/shm residue: {sorted(leaked)}"
