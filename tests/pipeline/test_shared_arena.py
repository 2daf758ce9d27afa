"""Regression tests: shared-memory dispatch never leaks segments.

The arena owns segment lifecycle for one sharded run; these tests pin
the failure path — a worker raising mid-shard must leave no segment
descriptor open behind it and no resource-tracker complaints at
interpreter shutdown.
"""

import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY, SharedArena
from repro.pipeline import ExperimentSpec, Runner, register, unregister

from ..serving.live_server import arena_segments

pytestmark = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)


@dataclass(frozen=True)
class _MeltdownConfig:
    seed: int = 2016
    n_shards: int = 2


#: Segment inodes created by the last _meltdown_shard_shared call.
#: shard_shared runs in the dispatching process, so the test can read
#: this after the run to verify every segment was closed.
_CREATED_SEGMENTS = []


def _meltdown_shard_shared(config, arena: SharedArena):
    specs = [arena.share_array(np.arange(4096)) for _ in range(3)]
    _CREATED_SEGMENTS.clear()
    _CREATED_SEGMENTS.extend(spec.inode for spec in specs)
    return [("shared", i) for i in range(config.n_shards)]


def _meltdown_shard(config):
    return [("rebuild", i) for i in range(config.n_shards)]


def _meltdown_run_shard(task):
    raise ValueError("shard meltdown")


def _meltdown_merge(config, parts):
    return parts


def _meltdown_run(config):
    return _meltdown_merge(
        config, [_meltdown_run_shard(t) for t in _meltdown_shard(config)]
    )


@pytest.fixture
def meltdown_spec():
    register(
        ExperimentSpec(
            name="zz-meltdown",
            description="worker raises mid-shard (test fixture)",
            tier="claim",
            config_type=_MeltdownConfig,
            run=_meltdown_run,
            shard=_meltdown_shard,
            run_shard=_meltdown_run_shard,
            merge=_meltdown_merge,
            shard_shared=_meltdown_shard_shared,
        )
    )
    yield
    unregister("zz-meltdown")


class TestFailingShardLeaksNothing:
    def test_worker_exception_closes_all_segments(self, meltdown_spec):
        with Runner(jobs=2) as runner:
            report = runner.run("zz-meltdown")
        assert not report.ok
        assert "shard meltdown" in report.error
        assert len(set(_CREATED_SEGMENTS)) == 3
        assert not set(_CREATED_SEGMENTS) & arena_segments()

    def test_successful_shared_run_unlinks_all_segments(self):
        with Runner(jobs=2) as runner:
            report = runner.run(
                "identify",
                overrides={"n_wires": 16, "n_trials": 2, "n_shards": 2,
                           "basis_size": 4},
            )
        assert report.ok, report.error


class TestNoResourceTrackerWarnings:
    def test_sharded_run_shutdown_is_silent(self):
        """A full interpreter lifecycle around a shared sharded run must
        emit no resource_tracker complaints (the 3.x tracker warns at
        shutdown about segments left on its ledger), and must never load
        the named-segment machinery that could start a tracker."""
        script = (
            "import sys\n"
            "from repro.pipeline import Runner\n"
            "cfg = {'n_wires': 16, 'n_trials': 2, 'n_shards': 2,"
            " 'basis_size': 4}\n"
            "with Runner(jobs=2) as runner:\n"
            "    report = runner.run('identify', overrides=cfg)\n"
            "assert report.ok, report.error\n"
            "assert report.n_shards == 2, report.n_shards\n"
            "loaded = [name for name in ('multiprocessing.shared_memory',"
            " 'multiprocessing.resource_tracker', '_posixshmem')"
            " if name in sys.modules]\n"
            "assert not loaded, loaded\n"
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
            timeout=240,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked shared_memory" not in result.stderr, result.stderr
