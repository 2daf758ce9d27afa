"""Regression tests: sharded experiment runs on a worker pool.

A shard that raises in a worker fails the run with its traceback, a
sharded run succeeds end to end, and its interpreter shuts down
without resource-tracker complaints.
"""

import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.pipeline import ExperimentSpec, Runner, register, unregister


@dataclass(frozen=True)
class _MeltdownConfig:
    seed: int = 2016
    n_shards: int = 2


def _meltdown_shard(config):
    return [("shard", i) for i in range(config.n_shards)]


def _meltdown_run_shard(task):
    """Shard 0 (the caller's share of a sharded run) passes; the rest,
    which run in workers, raise."""
    if task[1]:
        raise ValueError("shard meltdown")
    return task


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
        )
    )
    yield
    unregister("zz-meltdown")


class TestShardedRuns:
    def test_worker_exception_fails_the_run(self, meltdown_spec):
        with Runner(jobs=2) as runner:
            report = runner.run("zz-meltdown")
            assert len(runner.worker_pids()) == 1  # shard 1 dispatched
        assert not report.ok
        assert report.n_shards == 0
        assert "ValueError: shard meltdown" in report.error
        assert "Traceback" in report.error

    def test_successful_sharded_run(self):
        with Runner(jobs=2) as runner:
            report = runner.run(
                "identify",
                overrides={"n_wires": 16, "n_trials": 2, "n_shards": 2,
                           "basis_size": 4},
            )
        assert report.ok, report.error
        assert report.n_shards == 2


class TestNoResourceTrackerWarnings:
    def test_sharded_run_shutdown_is_silent(self):
        """A full interpreter lifecycle around a sharded run must
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
