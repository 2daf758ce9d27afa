"""Tests for the Runner: sharded == serial, failures don't abort runs."""

import json
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    ArtifactStore,
    ExperimentSpec,
    Runner,
    register,
    to_jsonable,
    unregister,
)

#: A small sharded workload (2 shards of 8 wires, 2 observation starts).
SMALL_IDENTIFY = {"n_wires": 16, "n_trials": 2, "n_shards": 2, "basis_size": 4}

#: Reduced configs for every shardable spec, used by the bit-identity
#: sweep (serial vs 2-job sharded must serialise identically).
SHARDABLE_SMALL = {
    "identify": SMALL_IDENTIFY,
    "speed": {"n_trials": 10},
    "gates": {"alphabet_sizes": (2,)},
    "search": {"n_inputs_sweep": (3,)},
    "verification": {"basis_sizes": (4,), "n_pairs": 4},
    "robustness": {"trials": 1},
    "table1": {"n_samples": 16384},
    "table2": {"n_samples": 16384},
    "aliasing": {},
    "scaling": {"max_inputs": 3},
    "logicnet": {
        "n_networks": 8,
        "n_gates": 6,
        "depth": 2,
        "basis_size": 4,
        "n_shards": 3,
    },
}


def _run_identify(tmp_path, jobs):
    store = ArtifactStore(tmp_path / f"jobs{jobs}")
    report = Runner(jobs=jobs, store=store).run(
        "identify", overrides=SMALL_IDENTIFY
    )
    assert report.ok, report.error
    return report, json.loads(report.json_path.read_text())


class TestShardedEqualsSerial:
    def test_two_job_identify_bit_identical(self, tmp_path):
        serial_report, serial = _run_identify(tmp_path, jobs=1)
        sharded_report, sharded = _run_identify(tmp_path, jobs=2)
        assert serial["result"] == sharded["result"]
        assert serial_report.rendered == sharded_report.rendered
        assert serial_report.text_path.read_text() == (
            sharded_report.text_path.read_text()
        )
        assert sharded["n_shards"] == 2
        assert sharded["jobs"] == 2

    def test_two_job_table2_bit_identical(self, tmp_path):
        overrides = {"n_samples": 16384}
        serial = Runner(jobs=1).run("table2", overrides=overrides)
        sharded = Runner(jobs=2).run("table2", overrides=overrides)
        assert serial.ok and sharded.ok
        assert serial.rendered == sharded.rendered
        assert sharded.n_shards == 2

    def test_shard_count_is_config_not_jobs(self, tmp_path):
        """More jobs than shards must not change the plan."""
        _report, record = _run_identify(tmp_path, jobs=5)
        assert record["n_shards"] == SMALL_IDENTIFY["n_shards"]

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(SHARDABLE_SMALL) if n != "scaling"],
    )
    def test_every_shardable_spec_bit_identical(self, name):
        """Serial vs sharded, for every spec carrying a shard plan.

        ``scaling`` is excluded: its result intentionally records
        per-shard wall times.  Serialised JSON comparison (rather than
        ``==``) keeps NaN payloads comparable.
        """
        serial = Runner(jobs=1).run(name, overrides=SHARDABLE_SMALL[name])
        with Runner(jobs=2) as runner:
            sharded = runner.run(name, overrides=SHARDABLE_SMALL[name])
        assert serial.ok, serial.error
        assert sharded.ok, sharded.error
        assert json.dumps(to_jsonable(serial.result)) == json.dumps(
            to_jsonable(sharded.result)
        )
        assert serial.rendered == sharded.rendered
        assert sharded.n_shards >= 1


class TestPersistentPool:
    def test_pool_reused_across_runs(self):
        with Runner(jobs=2) as runner:
            first = runner.run("identify", overrides=SMALL_IDENTIFY)
            pids = runner.worker_pids()
            assert len(pids) == 2
            second = runner.run("speed", overrides={"n_trials": 10})
            assert runner.worker_pids() == pids  # same workers, no respawn
        assert first.ok and second.ok
        assert not runner.worker_pids()  # context exit kills them

    def test_serial_runner_never_forks(self):
        runner = Runner(jobs=1)
        report = runner.run("identify", overrides=SMALL_IDENTIFY)
        assert report.ok
        assert not runner.worker_pids()

    def test_serial_run_uses_the_spec_driver_once(self, monkeypatch):
        """In-process execution goes through spec.run (which may share
        one workload across shards), not shard-by-shard mapping."""
        import repro.experiments.identify as identify

        calls = {"workload": 0}
        original = identify._workload

        def counting_workload(config):
            calls["workload"] += 1
            return original(config)

        monkeypatch.setattr(identify, "_workload", counting_workload)
        report = Runner(jobs=1).run("identify", overrides=SMALL_IDENTIFY)
        assert report.ok
        assert report.n_shards == SMALL_IDENTIFY["n_shards"]
        assert calls["workload"] == 1  # build-once serial driver

    def test_single_shard_plan_stays_in_process(self):
        """One shard + many jobs must not export, fork, or round-trip."""
        with Runner(jobs=2) as runner:
            report = runner.run(
                "identify", overrides=dict(SMALL_IDENTIFY, n_shards=1)
            )
            assert report.ok
            assert report.n_shards == 1
            assert not runner.worker_pids()  # nothing to parallelise: no fork

    def test_unshardable_spec_never_forks(self):
        """jobs >= 2 on an unshardable spec must not pay worker startup."""
        with Runner(jobs=4) as runner:
            report = runner.run("energy")
            assert report.ok
            assert not runner.worker_pids()

    def test_close_is_idempotent(self):
        runner = Runner(jobs=2)
        runner.run("identify", overrides=SMALL_IDENTIFY)
        runner.close()
        runner.close()
        assert not runner.worker_pids()


def _attachment_count(_payload):
    """Broadcast target: this worker's resident mapping count."""
    from repro.backend.shared import process_cache

    return len(process_cache())


class TestReleaseBroadcast:
    """End-of-run release: workers must not pin a finished run's arena."""

    def test_workers_drop_attachments_at_end_of_run(self):
        """After a shared-dispatch run every worker holds zero mappings.

        Without the broadcast, each worker would pin the attachments of
        the finished run's arena until a task from a *newer* arena
        happened to arrive.  A broadcast reaches each of the two
        workers exactly once.
        """
        with Runner(jobs=2) as runner:
            report = runner.run("identify", overrides=SMALL_IDENTIFY)
            assert report.ok, report.error
            assert runner.worker_pids()  # the shard plan actually dispatched
            counts = runner.broadcast(_attachment_count, sticky=False)
            assert counts == [0, 0], (
                f"workers still hold attachments after the run: {counts}"
            )

    def test_workers_pin_attachments_without_broadcast(self, monkeypatch):
        """Control: with the broadcast disabled, mappings stay resident.

        Guards the regression test above against vacuous success (e.g.
        the run never attaching anything in the first place).
        """
        with Runner(jobs=2) as runner:
            monkeypatch.setattr(
                runner, "release_worker_attachments", lambda: None
            )
            report = runner.run("identify", overrides=SMALL_IDENTIFY)
            assert report.ok, report.error
            counts = runner.broadcast(_attachment_count, sticky=False)
            assert sum(counts) > 0, "expected resident attachments"
            monkeypatch.undo()
            runner.release_worker_attachments()
            assert runner.broadcast(_attachment_count, sticky=False) == [0, 0]

    def test_release_without_pool_is_noop(self):
        Runner(jobs=1).release_worker_attachments()
        runner = Runner(jobs=4)
        runner.release_worker_attachments()  # workers never forked
        assert not runner.worker_pids()


def _pid_of_worker(_payload):
    """Broadcast target: identify the executing worker process."""
    return os.getpid()


def _double(value):
    """Submit target: trivial payload round trip."""
    return value * 2


def _double_or_die_once(task):
    """Gather target: the first caller to claim the file SIGKILLs itself."""
    claim, value = task
    try:
        os.close(os.open(claim, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return value * 2
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_in_worker(parent_pid):
    """Gather target: hang in a worker, answer at once in ``parent_pid``."""
    if os.getpid() != parent_pid:
        time.sleep(60)
    return os.getpid()


def _fail(value):
    """Gather target: the task's own exception."""
    raise KeyError(value)


#: Worker state that only a sticky broadcast sets.
_REMEMBERED = None


def _remember(value):
    """Sticky broadcast target."""
    global _REMEMBERED
    _REMEMBERED = value


def _recall(_payload):
    """Broadcast target: this worker and what it remembers."""
    return os.getpid(), _REMEMBERED


def _within(seconds, fn):
    """``fn()``, failing instead of hanging when it blocks ``seconds``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds} s"
    assert out, "raised (see the thread's traceback)"
    return out[0]


class TestDispatchPrimitives:
    """The pool's public surface for non-experiment callers (serving)."""

    def test_submit_requires_a_pool(self):
        with Runner(jobs=1) as runner:
            with pytest.raises(PipelineError):
                runner.submit(_double, 21)

    def test_broadcast_without_pool_returns_none(self):
        with Runner(jobs=1) as runner:
            assert runner.broadcast(_pid_of_worker) is None

    def test_submit_runs_on_the_persistent_pool(self):
        with Runner(jobs=2) as runner:
            results = [runner.submit(_double, n) for n in range(5)]
            assert [r.get(timeout=60) for r in results] == [0, 2, 4, 6, 8]

    def test_gather_returns_one_getter_per_task_in_order(self):
        with Runner(jobs=2) as runner:
            getters = runner.gather(_double, range(5))
            assert [get() for get in getters] == [0, 2, 4, 6, 8]

    def test_gather_requires_a_pool(self):
        with Runner(jobs=1) as runner:
            with pytest.raises(PipelineError):
                runner.gather(_double, [21])

    def test_gather_recovers_the_task_of_a_killed_worker(self, tmp_path):
        """The lost task's getter re-runs it down the supervision ladder."""
        claim = str(tmp_path / "claim")
        with Runner(jobs=2) as runner:
            getters = runner.gather(
                _double_or_die_once, [(claim, n) for n in range(4)],
                timeout=30.0,
            )
            assert [get() for get in getters] == [0, 2, 4, 6]
        assert (tmp_path / "claim").exists(), "no worker was killed"

    def test_broadcast_reaches_every_worker_exactly_once(self):
        with Runner(jobs=2) as runner:
            pids = runner.broadcast(_pid_of_worker)
            assert len(pids) == 2
            assert len(set(pids)) == 2  # two distinct workers, once each
            assert os.getpid() not in pids
            # A second broadcast reaches the same two workers.
            assert set(runner.broadcast(_pid_of_worker)) == set(pids)

    def test_gather_reraises_the_task_exception_unchanged(self):
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            (get,) = runner.gather(_fail, ["tile 7"])
            with pytest.raises(KeyError, match="tile 7"):
                get()
            assert runner.worker_pids() == before  # no worker was lost

    def test_timed_out_task_kills_only_its_own_worker(self):
        """Each timed-out attempt replaces its worker; then in-process."""
        parent = os.getpid()
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            (get,) = runner.gather(
                _sleep_in_worker, [parent], timeout=0.3, retries=1
            )
            assert get() == parent  # both pool attempts timed out
            after = runner.worker_pids()
        assert len(after) == 2
        assert len(before & after) == 1, "the idle sibling was killed too"

    def test_killed_idle_workers_come_back_with_their_sticky_state(self):
        """SIGKILL every idle worker from outside: the next broadcast and
        gather fork successors, which replayed the sticky broadcasts."""
        with Runner(jobs=2) as runner:
            runner.broadcast(_remember, "basis-7")
            before = runner.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            recalled = _within(
                30, lambda: runner.broadcast(_recall, sticky=False)
            )
            assert [value for _pid, value in recalled] == ["basis-7"] * 2
            assert not {pid for pid, _value in recalled} & before
            results = _within(
                30, lambda: [get() for get in runner.gather(_double, range(4))]
            )
            assert results == [0, 2, 4, 6]


class TestRunnerBasics:
    def test_jobs_must_be_positive(self):
        with pytest.raises(PipelineError):
            Runner(jobs=0)

    def test_unknown_experiment_raises(self):
        with pytest.raises(PipelineError):
            Runner().run("nonsense")

    def test_unknown_override_raises(self):
        with pytest.raises(PipelineError):
            Runner().run("identify", overrides={"banana": 1})

    def test_run_without_store_keeps_result(self):
        report = Runner().run("identify", overrides=SMALL_IDENTIFY)
        assert report.ok
        assert report.result is not None
        assert report.result.accuracy == 1.0
        assert report.json_path is None

    def test_seed_recorded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = Runner(store=store).run(
            "identify", seed=7, overrides=SMALL_IDENTIFY
        )
        record = json.loads(report.json_path.read_text())
        assert record["seed"] == 7
        assert record["config"]["seed"] == 7


@dataclass(frozen=True)
class _FlakyConfig:
    seed: int = 2016


def _raise(config):
    raise ValueError("shard meltdown")


class TestFailureHandling:
    @pytest.fixture
    def failing_spec(self):
        register(
            ExperimentSpec(
                name="zz-flaky",
                description="always fails (test fixture)",
                tier="claim",
                config_type=_FlakyConfig,
                run=_raise,
            )
        )
        yield
        unregister("zz-flaky")

    def test_run_captures_traceback(self, failing_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        report = Runner(store=store).run("zz-flaky")
        assert not report.ok
        assert "shard meltdown" in report.error
        record = json.loads(report.json_path.read_text())
        assert record["status"] == "error"
        assert "shard meltdown" in record["error"]

    def test_run_many_continues_past_failure(self, failing_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        reports = Runner(store=store).run_many(["energy", "zz-flaky"])
        by_name = {report.name: report for report in reports}
        assert by_name["energy"].ok
        assert not by_name["zz-flaky"].ok
        manifest = store.load_manifest()
        assert manifest["n_failed"] == 1
        assert manifest["experiments"]["energy"]["status"] == "ok"

    def test_parallel_run_many_continues_past_failure(
        self, failing_spec, tmp_path
    ):
        """The experiment pool isolates failures the same way."""
        store = ArtifactStore(tmp_path)
        reports = Runner(jobs=2, store=store).run_many(
            ["energy", "zz-flaky", "progressive"]
        )
        statuses = {report.name: report.ok for report in reports}
        assert statuses == {
            "energy": True, "zz-flaky": False, "progressive": True,
        }
        # Pool workers serialise in-process; artifacts land either way.
        assert store.load("progressive")["status"] == "ok"
        assert "shard meltdown" in store.load("zz-flaky")["error"]

    def test_run_many_unknown_name_fails_fast(self):
        with pytest.raises(PipelineError):
            Runner().run_many(["energy", "nonsense"])


class TestParallelRunMany:
    def test_matches_serial_rendering(self, tmp_path):
        names = ["energy", "progressive"]
        serial = Runner(jobs=1).run_many(names)
        parallel = Runner(jobs=2).run_many(names)
        assert [r.rendered for r in serial] == [r.rendered for r in parallel]
        # Pool-executed experiments hand back records, not live objects.
        assert all(r.result is None for r in parallel)
