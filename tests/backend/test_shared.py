"""Round-trip tests for the shared-memory transport layer.

``to_shared``/``from_shared`` must be bit-identical to the in-process
batch across densities (empty through full) and row ranges, and the
arena must never leak segments — including when the guarded block
raises.  A spec that outlived its arena must fail to attach, a view
that outlived its attachment must stay readable, and a process forked
while an arena lives must not hold its segments.
"""

import dataclasses
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch
from repro.backend.shared import (
    HAVE_SHARED_MEMORY,
    AttachmentCache,
    SharedArena,
    attach_array,
)
from repro.pipeline.runner import Runner
from repro.units import SimulationGrid

from ..serving.live_server import arena_segments, wait_until

pytestmark = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)


def _mapped_inodes():
    """Inode numbers of the arena segments this process has mapped."""
    with open("/proc/self/maps") as maps:
        return {
            int(line.split()[4])
            for line in maps
            if "/memfd:repro-arena" in line
        }


def _random_batch(rng, n_trains, n_samples, density):
    grid = SimulationGrid(n_samples=n_samples, dt=1e-9)
    raster = rng.random((n_trains, n_samples)) < density
    return SpikeTrainBatch.from_raster(raster, grid), grid


class TestShareArrayRoundTrip:
    @pytest.mark.parametrize(
        "dtype", ["int32", "int64", "uint8", "float64", "bool"]
    )
    def test_dtypes_round_trip(self, dtype):
        rng = np.random.default_rng(7)
        array = (rng.random((13, 31)) * 100).astype(dtype)
        with SharedArena() as arena:
            spec = arena.share_array(array)
            back = attach_array(spec)
            assert back.dtype == array.dtype
            assert np.array_equal(back, array)
            assert not back.flags.writeable

    def test_empty_array_round_trips(self):
        with SharedArena() as arena:
            spec = arena.share_array(np.empty(0, dtype=np.int64))
            back = attach_array(spec)
            assert back.shape == (0,)
            assert back.dtype == np.int64

    def test_noncontiguous_input_round_trips(self):
        array = np.arange(100).reshape(10, 10)[:, ::2]
        with SharedArena() as arena:
            back = attach_array(arena.share_array(array))
            assert np.array_equal(back, array)


class TestReadOnlyAttach:
    def test_attached_array_is_not_writeable(self):
        """The mapping itself is read-only, not just the view's flag."""
        with SharedArena() as arena:
            back = attach_array(arena.share_array(np.arange(16)))
            assert not back.flags.writeable
            with pytest.raises(ValueError):
                back.setflags(write=True)
            with pytest.raises(ValueError):
                back[0] = 1

    def test_attach_starts_no_resource_tracker(self):
        """Pool workers attach without starting a tracker of their own,
        and without loading the named-segment machinery at all."""
        script = (
            "import pickle, sys\n"
            "from repro.backend.shared import attach_array\n"
            "spec = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "total = int(attach_array(spec).sum())\n"
            "tracker = sys.modules.get('multiprocessing.resource_tracker')\n"
            "loaded = [name for name in ('multiprocessing.shared_memory',"
            " 'multiprocessing.resource_tracker', '_posixshmem')"
            " if name in sys.modules]\n"
            "print(total, tracker and tracker._resource_tracker._pid,"
            " *loaded)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with SharedArena() as arena:
            spec = arena.share_array(np.arange(16))
            result = subprocess.run(
                [sys.executable, "-c", script, pickle.dumps(spec).hex()],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["120", "None"]

    def test_view_outlives_release(self):
        """A view that escaped its task keeps its mapping readable.

        Run in a fresh interpreter: reading an unmapped view would
        kill the process rather than fail the test.
        """
        script = (
            "import numpy as np\n"
            "from repro.backend.shared import AttachmentCache, SharedArena\n"
            "cache = AttachmentCache()\n"
            "with SharedArena() as arena:\n"
            "    view = cache.attach(arena.share_array(np.arange(1 << 20)))\n"
            "cache.release()\n"
            "print(int(view.sum()))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert result.stdout.split() == [str((1 << 20) * ((1 << 20) - 1) // 2)]

    def test_export_maps_nothing_in_the_creator(self):
        """The arena writes its segments without mapping them."""
        with SharedArena() as arena:
            spec = arena.share_array(np.arange(1 << 16))
            assert spec.inode[1] not in _mapped_inodes()
            view = AttachmentCache().attach(spec)
            assert spec.inode[1] in _mapped_inodes()
            del view


class TestBatchSharedRoundTrip:
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.2, 0.5, 1.0])
    def test_random_batches_bit_identical(self, density):
        rng = np.random.default_rng(int(density * 1000) + 1)
        batch, _grid = _random_batch(rng, n_trains=9, n_samples=257, density=density)
        with SharedArena() as arena:
            handle = batch.to_shared(arena)
            back = SpikeTrainBatch.from_shared(handle)
            assert back == batch
            assert np.array_equal(back.raster, batch.raster)
            assert back.grid == batch.grid

    @pytest.mark.parametrize("seed", range(5))
    def test_row_ranges_match_select_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        batch, _grid = _random_batch(
            rng, n_trains=n, n_samples=128, density=float(rng.random())
        )
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        with SharedArena() as arena:
            handle = batch.to_shared(arena)
            part = SpikeTrainBatch.from_shared(handle, rows=(lo, hi))
            assert part == batch.select_rows(np.arange(lo, hi))

    def test_out_of_range_rows_raise(self):
        rng = np.random.default_rng(0)
        batch, _grid = _random_batch(rng, 4, 64, 0.3)
        from repro.errors import SpikeTrainError

        with SharedArena() as arena:
            handle = batch.to_shared(arena)
            with pytest.raises(SpikeTrainError, match="row range"):
                SpikeTrainBatch.from_shared(handle, rows=(2, 9))

    def test_handle_is_metadata_only(self):
        import pickle

        rng = np.random.default_rng(3)
        batch, _grid = _random_batch(rng, 64, 8192, 0.2)
        with SharedArena() as arena:
            handle = batch.to_shared(arena)
            payload = len(pickle.dumps(handle))
            assert payload < 1024, f"handle pickled to {payload} bytes"
            assert handle.n_trains == 64


class TestArenaLifecycle:
    def test_segments_closed_on_clean_exit(self):
        with SharedArena() as arena:
            spec = arena.share_array(np.arange(10))
            assert spec.inode in arena_segments()
        assert spec.inode not in arena_segments()

    def test_segments_closed_when_body_raises(self):
        specs = []
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArena() as arena:
                specs.append(arena.share_array(np.arange(100)))
                specs.append(arena.share_array(np.ones((4, 4))))
                raise RuntimeError("boom")
        assert len(specs) == 2
        assert not {spec.inode for spec in specs} & arena_segments()

    def test_stale_spec_raises_instead_of_attaching_the_next_arena(self):
        """Descriptor numbers are reused once an arena closes; a spec
        that outlived its arena must not map whatever took its number."""
        with SharedArena() as first:
            stale = first.share_array(np.arange(8))
        with pytest.raises(FileNotFoundError):
            AttachmentCache().attach(stale)
        with SharedArena() as second:
            fresh = second.share_array(np.arange(8) + 100)
            # The stale spec, its number now naming the next segment.
            reused = dataclasses.replace(stale, path=fresh.path)
            with pytest.raises(FileNotFoundError):
                AttachmentCache().attach(reused)
            assert AttachmentCache().attach(fresh).tolist() == list(
                range(100, 108)
            )

    def test_close_is_idempotent(self):
        arena = SharedArena()
        arena.share_array(np.arange(5))
        arena.close()
        arena.close()
        assert arena.segment_names == ()

    def test_share_array_after_close_refuses(self):
        """A segment created after close() would have no owner to
        unlink it — the arena must refuse instead of leaking."""
        arena = SharedArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed SharedArena"):
            arena.share_array(np.arange(5))

    def test_attachment_cache_evicts_on_new_arena(self):
        cache = AttachmentCache()
        with SharedArena() as first:
            spec_a = first.share_array(np.arange(4))
            cache.attach(spec_a)
            assert len(cache) == 1
            with SharedArena() as second:
                spec_b = second.share_array(np.arange(8))
                cache.attach(spec_b)  # new arena token evicts the old map
                assert len(cache) == 1
        cache.release()
        assert len(cache) == 0


def _worker_pid(_payload=None):
    """Broadcast target: the pid of the pool worker that ran it."""
    return os.getpid()


def _report_pid_and_stay_busy(path):
    """Pool task: write this worker's pid to ``path``, then block.

    A busy worker is the one to kill: an idle one may hold the pool's
    task-queue lock, and killing it would wedge the pool.
    """
    pathlib.Path(path).write_text(str(os.getpid()))
    time.sleep(120)


class TestForkedChildrenDropArenas:
    """Only the creator's descriptors and each process's own attachments
    keep a segment: a process forked while an arena lives lets go of
    what it inherited, so it never pins pages its parent has released."""

    def test_forked_child_holds_no_arena_segment(self):
        with SharedArena() as arena:
            spec = arena.share_array(np.arange(16))
            assert int(attach_array(spec).sum()) == 120  # cached, no view
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report, then leave at once
                try:
                    held = (
                        spec.inode in arena_segments()
                        or spec.inode[1] in _mapped_inodes()
                    )
                    os.write(write_end, b"held" if held else b"none")
                finally:
                    os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end, "rb") as reader:
                report = reader.read()
            os.waitpid(pid, 0)
            assert report == b"none"
            assert spec.inode in arena_segments()  # the parent keeps it
            assert AttachmentCache().attach(spec).tolist() == list(range(16))

    def test_respawned_pool_worker_holds_no_arena_segment(self, tmp_path):
        """``multiprocessing.Pool`` replaces a killed worker with a fork
        of this process, taken while the arena is live."""
        busy = tmp_path / "busy.pid"
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            assert len(before) == 2
            with SharedArena() as arena:
                spec = arena.share_array(np.arange(1 << 12))
                runner.submit(_report_pid_and_stay_busy, str(busy))
                assert wait_until(
                    lambda: busy.exists() and busy.read_text(), 30
                )
                os.kill(int(busy.read_text()), signal.SIGKILL)
                assert wait_until(
                    lambda: len(runner.worker_pids() - before) == 1, 30
                ), "the pool did not respawn its killed worker"
                (fresh,) = runner.worker_pids() - before
                # A task returning proves the fresh worker is past its
                # fork hooks.
                assert fresh in runner.broadcast(_worker_pid, sticky=False)
                assert spec.inode in arena_segments()
                assert not arena_segments(fresh)
