"""Tests for the Runner: sharded == serial, failures don't abort runs."""

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, packed
from repro.backend import shared as shared_module
from repro.backend.shared import HAVE_SHARED_MEMORY, SharedArena, attach_array
from repro.errors import PipelineError
from repro.pipeline import (
    ArtifactStore,
    ExperimentSpec,
    Runner,
    register,
    to_jsonable,
    unregister,
)
from repro.pipeline import runner as runner_module
from repro.testing import faults
from repro.units import SimulationGrid

from ..serving.live_server import (
    alive,
    arena_mappings,
    arena_segments,
    process_tree,
    wait_until,
)

#: A small sharded workload (2 shards of 8 wires, 2 observation starts).
SMALL_IDENTIFY = {"n_wires": 16, "n_trials": 2, "n_shards": 2, "basis_size": 4}

#: Reduced configs for every shardable spec, used by the bit-identity
#: sweep (serial vs 2- and 3-job sharded must serialise identically).
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


#: The bit-identity sweep: every shardable spec at 2 and 3 jobs (one
#: and two workers beside the caller).
_SWEEP = [(name, jobs) for jobs in (2, 3) for name in sorted(SHARDABLE_SMALL)]


def _without_wall_times(result):
    """``result`` as JSON, without its ``build_seconds`` fields."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "build_seconds"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(to_jsonable(result)))


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
        "name, jobs",
        _SWEEP,
        ids=[name if jobs == 2 else f"{name}-jobs3" for name, jobs in _SWEEP],
    )
    def test_every_shardable_spec_bit_identical(self, name, jobs, monkeypatch):
        """Serial vs sharded, for every spec carrying a shard plan, with
        no shared memory: a shard rebuilds its inputs where it runs.

        ``scaling`` records per-shard wall times (``build_seconds``), so
        those fields, and its rendering that prints them, are left out.
        Serialised JSON comparison (rather than ``==``) keeps NaN
        payloads comparable.
        """

        def forbidden(self):
            raise AssertionError("an experiment run created a SharedArena")

        monkeypatch.setattr(shared_module.SharedArena, "__init__", forbidden)
        serial = Runner(jobs=1).run(name, overrides=SHARDABLE_SMALL[name])
        with Runner(jobs=jobs) as runner:
            sharded = runner.run(name, overrides=SHARDABLE_SMALL[name])
        assert serial.ok, serial.error
        assert sharded.ok, sharded.error
        assert _without_wall_times(serial.result) == _without_wall_times(
            sharded.result
        )
        if name != "scaling":
            assert serial.rendered == sharded.rendered
        assert sharded.n_shards >= 1


class TestPersistentPool:
    def test_pool_reused_across_runs(self):
        with Runner(jobs=3) as runner:
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
        """One shard + many jobs must not fork or round-trip."""
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

    def test_close_is_final(self):
        """A getter whose worker close() killed runs its task here, and
        nothing forks after close: dispatch raises instead."""
        parent = os.getpid()
        before = set(process_tree(parent))
        runner = Runner(jobs=2)
        # The second task hangs in its worker until close() kills it.
        getters = runner.gather(_sleep_in_worker, [parent] * 2)
        closer = threading.Timer(0.3, runner.close)
        closer.start()
        try:
            assert _within(30, getters[1]) == parent
        finally:
            closer.join(30)
        assert not closer.is_alive()
        assert getters[0]() == parent
        assert not runner.worker_pids()
        assert set(process_tree(parent)) == before
        for dispatch in (
            runner.ensure_pool,
            lambda: runner.submit(_double, 1),
            lambda: runner.gather(_double, [1]),
        ):
            with pytest.raises(PipelineError, match="closed"):
                dispatch()
        assert not runner.worker_pids()
        assert set(process_tree(parent)) == before

    def test_worker_that_exits_before_starting_raises(self, monkeypatch):
        """A child that dies before it is ready is EOF, not a worker."""

        def crash(keep):
            raise OSError("no descriptors left")

        monkeypatch.setattr(runner_module, "_drop_inherited_descriptors", crash)
        with Runner(jobs=2) as runner:
            with pytest.raises(PipelineError, match="before it started"):
                runner.ensure_pool()
            assert not runner.worker_pids()


def _row_popcounts(task):
    """Gather target: one batch's row popcounts, computed on its segments."""
    handle, rows = task
    batch = SpikeTrainBatch.from_shared(handle, rows=rows)
    return packed.row_popcounts(batch.packed_words())


def _wait_for(path):
    """Submit target: keep a worker busy until ``path`` exists."""
    deadline = time.monotonic() + 60
    while not os.path.exists(path):
        assert time.monotonic() < deadline, "never released"
        time.sleep(0.01)
    return os.getpid()


def _segment_sums(specs):
    """Gather target: the sum of every segment carried."""
    return sum(int(attach_array(spec).sum()) for spec in specs)


def _pair_counts(task):
    """Gather target: the pair counts of a row range of one mapped
    operand against another."""
    a, b, lo, hi = task
    return packed.pairwise_counts(attach_array(a)[lo:hi], attach_array(b))


def _attach_then_fail(spec):
    """Gather target: raise while a view of ``spec`` is alive."""
    view = attach_array(spec)
    raise KeyError(int(view[-1]))


def _holds_no_segment(pids):
    """True when none of ``pids`` holds an arena descriptor or mapping."""
    return not any(arena_segments(pid) or arena_mappings(pid) for pid in pids)


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestSegmentsTravelWithTasks:
    """Segments cross to a worker as descriptors beside the task that
    carries them, and a worker holds them only while that task runs."""

    def test_no_worker_holds_a_segment_after_a_parallel_call(self):
        """A kernel split over the pool by row range ships its operands
        through an arena; nothing is sent after the call, and nothing
        needs to be."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 1 << 62, size=(8, 4), dtype=np.uint64)
        b = rng.integers(0, 1 << 62, size=(3, 4), dtype=np.uint64)
        with Runner(jobs=2) as runner:
            with SharedArena() as arena:
                specs = arena.share_array(a), arena.share_array(b)
                tasks = [
                    (*specs, lo, hi)
                    for lo, hi in packed.row_chunk_bounds(len(a), 2)
                ]
                getters = runner.gather(_pair_counts, tasks)
                counts = np.concatenate([get() for get in getters])
            assert np.array_equal(counts, packed.pairwise_counts(a, b))
            pids = runner.worker_pids()
            assert len(pids) == 1  # the call actually dispatched
            assert _holds_no_segment(pids)

    def test_fresh_workers_hold_nothing_inherited_on_return(self):
        """``ensure_pool`` returns only once each fresh worker has let go
        of what it inherited: read at once, with no task round trip, no
        worker holds the caller's listener or a live arena's segment."""
        listener = socket.create_server(("127.0.0.1", 0))
        with listener, SharedArena() as arena:
            arena.share_array(np.arange(8))
            inherited = {
                os.readlink(f"/proc/self/fd/{listener.fileno()}"),
                "/memfd:repro-arena",
            }
            held = {}
            for _round in range(20):
                with Runner(jobs=2) as runner:
                    runner.ensure_pool()
                    for pid in runner.worker_pids():
                        # A segment reads "/memfd:repro-arena (deleted)".
                        links = {
                            os.readlink(f"/proc/{pid}/fd/{fd}").split(" ")[0]
                            for fd in os.listdir(f"/proc/{pid}/fd")
                        }
                        if links & inherited:
                            held[pid] = sorted(links & inherited)
            assert not held, held

    def test_queued_tasks_each_compute_on_their_own_segments(self, tmp_path):
        """Four tasks wait in two sockets before either worker reads
        (the caller keeps the other two); each brings its own
        descriptors, bit-identical to in-process."""
        rng = np.random.default_rng(11)
        grid = SimulationGrid(n_samples=4096, dt=1e-9)
        batches = [
            SpikeTrainBatch.from_raster(rng.random((6, 4096)) < density, grid)
            for density in (0.01, 0.05, 0.1, 0.3, 0.45, 0.6)
        ]
        release = tmp_path / "release"
        with Runner(jobs=3) as runner, SharedArena() as arena:
            blockers = [
                runner.submit(_wait_for, str(release)) for _ in range(2)
            ]
            tasks = [(batch.to_shared(arena), (1, 5)) for batch in batches]
            getters = runner.gather(_row_popcounts, tasks)
            release.touch()
            assert {blocker.get(60) for blocker in blockers} == (
                runner.worker_pids()
            )
            for get, task, batch in zip(getters, tasks, batches):
                result = get()
                assert np.array_equal(result, _row_popcounts(task))
                assert np.array_equal(
                    result,
                    packed.row_popcounts(batch.packed_words()[1:5]),
                )
            assert _holds_no_segment(runner.worker_pids())

    def test_a_failed_task_leaves_no_segment_behind(self):
        """The task's exception comes back, but its traceback, whose
        frames hold the task's views, stays behind and dies."""
        with Runner(jobs=2) as runner:
            runner.ensure_pool()  # so that no worker inherits the arena
            with SharedArena() as arena:
                spec = arena.share_array(np.arange(8))
                # The second task fails in the worker, the first here.
                getters = runner.gather(
                    _attach_then_fail, [spec] * 2, retries=0
                )
                for get in getters:
                    with pytest.raises(KeyError, match="7"):
                        get()
                assert _holds_no_segment(runner.worker_pids())

    def test_stale_spec_raises_before_any_send(self):
        """A spec that outlived its arena fails in the caller, and no
        healthy worker is mistaken for a dead one."""
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            with SharedArena() as arena:
                stale = arena.share_array(np.arange(8))
            with pytest.raises(FileNotFoundError):
                # The caller keeps the first task; the second is sent.
                runner.gather(_segment_sums, [[stale]] * 2)
            assert runner.worker_pids() == before
            getters = runner.gather(_double, [21] * 2)
            assert [get() for get in getters] == [42] * 2

    def test_task_at_the_segment_limit_is_received_whole(self):
        """A worker receives every descriptor of the largest task."""
        with Runner(jobs=2) as runner, SharedArena() as arena:
            specs = [
                arena.share_array(np.array([n]))
                for n in range(runner_module._MAX_SEGMENTS)
            ]
            # The caller keeps the first task; the worker gets the second.
            getters = runner.gather(_segment_sums, [specs] * 2, retries=0)
            assert [get() for get in getters] == (
                [sum(range(runner_module._MAX_SEGMENTS))] * 2
            )

    def test_task_over_the_segment_limit_is_refused_before_sending(self):
        with Runner(jobs=3) as runner, SharedArena() as arena:
            runner.ensure_pool()
            before = runner.worker_pids()
            specs = [
                arena.share_array(np.array([n]))
                for n in range(runner_module._MAX_SEGMENTS + 1)
            ]
            with pytest.raises(PipelineError, match="at most"):
                runner.submit(_segment_sums, specs)
            assert runner.worker_pids() == before
            assert _on_each_worker(runner, _double, 4) == [8, 8]
            assert runner.worker_pids() == before


def _pid_of_worker(_payload):
    """Gather target: identify the executing process."""
    return os.getpid()


def _on_each_worker(runner, fn, task):
    """``fn(task)`` on each idle worker once, through one gather: the
    caller keeps every ``jobs``-th task, and each other task goes to
    the worker with the fewest pending.  The workers' results, in
    order."""
    getters = runner.gather(fn, [task] * runner.jobs)
    return [get() for get in getters][1:]


def _double(value):
    """Submit target: trivial payload round trip."""
    return value * 2


def _double_or_die_once(task):
    """Gather target: the first worker to claim the file SIGKILLs itself
    (the caller ``parent`` never does)."""
    claim, parent, value = task
    if os.getpid() == parent:
        return value * 2
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


def _declared_triple(value):
    """Gather target that declares a fault point for its workers."""
    return value * 3


_declared_triple.fault_point = "runner.declared"


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
        parent = os.getpid()
        with Runner(jobs=2) as runner:
            getters = runner.gather(
                _double_or_die_once, [(claim, parent, n) for n in range(4)],
                timeout=30.0,
            )
            assert [get() for get in getters] == [0, 2, 4, 6]
            assert len(runner.worker_pids()) == 1
        assert (tmp_path / "claim").exists(), "no worker was killed"

    def test_gather_reraises_the_task_exception_unchanged(self):
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            # The first task fails here, the second in the worker.
            getters = runner.gather(_fail, ["tile 7"] * 2)
            for get in getters:
                with pytest.raises(KeyError, match="tile 7"):
                    get()
            assert runner.worker_pids() == before  # no worker was lost

    def test_timed_out_task_kills_only_its_own_worker(self):
        """Each timed-out attempt replaces its worker; then in-process."""
        parent = os.getpid()
        with Runner(jobs=3) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            # The caller answers the first task itself; the second goes
            # to a worker.
            getters = runner.gather(
                _sleep_in_worker, [parent] * 2, timeout=0.3, retries=1
            )
            # both pool attempts of the second task timed out
            assert [get() for get in getters] == [parent] * 2
            after = runner.worker_pids()
        assert len(after) == 2
        assert len(before & after) == 1, "the idle sibling was killed too"

    def test_declared_fault_point_fires_in_workers_only(self, monkeypatch):
        """A target's declared point fires in the worker before each
        attempt: an armed kill loses every pool attempt, and the
        in-process last resort answers without reaching the point."""
        monkeypatch.setenv(faults.ENV_VAR, "runner.declared=kill")
        parent = os.getpid()
        in_parent = []
        fire = faults.maybe_fire
        monkeypatch.setattr(
            faults,
            "maybe_fire",
            lambda point: (
                in_parent.append(point) if os.getpid() == parent else fire(point)
            ),
        )
        with Runner(jobs=3) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            # The caller's own share (the first task) and the last resort
            # of the second both run here, and neither fires the point.
            getters = runner.gather(_declared_triple, [7] * 2, retries=1)
            assert _within(30, lambda: [get() for get in getters]) == [21] * 2
            assert in_parent == []
            # A target that declares no point runs untouched.
            assert _within(
                30, lambda: _on_each_worker(runner, _double, 4)
            ) == [8, 8]
            after = runner.worker_pids()
        assert len(after) == 2
        assert before - after, "no pool attempt fired the declared point"

    def test_killed_idle_workers_are_replaced_by_the_next_fan_out(self):
        """SIGKILL every idle worker from outside: the next gather finds
        each one dead, forks its successor and answers there."""
        with Runner(jobs=3) as runner:
            runner.ensure_pool()
            before = runner.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            # Dead, not dying: a task sent to a dying worker is lost and
            # resubmitted, possibly to a sibling's successor.
            assert wait_until(lambda: not any(map(alive, before)), 10)
            pids = _within(
                30, lambda: _on_each_worker(runner, _pid_of_worker, None)
            )
            assert len(set(pids)) == 2
            assert not set(pids) & before
            assert set(pids) == runner.worker_pids()
            results = _within(
                30, lambda: [get() for get in runner.gather(_double, range(4))]
            )
            assert results == [0, 2, 4, 6]


#: The tasks the caller ran itself, in the order their getters ran them.
_RAN_HERE = []


def _pid_and_value(task):
    """Gather target: where the task ran, and the task; a task the
    caller ``parent`` runs is also recorded in :data:`_RAN_HERE`."""
    parent, value = task
    if os.getpid() == parent:
        _RAN_HERE.append(value)
    return os.getpid(), value


class TestForkJoin:
    """The caller is one of the ``jobs``: it forks ``jobs - 1`` workers
    and computes one task in ``jobs`` of every gather itself."""

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_the_pool_is_one_worker_fewer_than_jobs(self, jobs):
        with Runner(jobs=jobs) as runner:
            runner.ensure_pool()
            assert len(runner.worker_pids()) == jobs - 1
            assert os.getpid() not in runner.worker_pids()
            assert runner.jobs == jobs

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("n_tasks", [1, 2, 7])
    def test_caller_runs_every_jobs_th_task_in_order(self, jobs, n_tasks):
        parent = os.getpid()
        _RAN_HERE.clear()
        with Runner(jobs=jobs) as runner:
            getters = runner.gather(
                _pid_and_value, [(parent, n) for n in range(n_tasks)]
            )
            # Sent, not run: the caller's share waits for its getters.
            assert _RAN_HERE == []
            results = [get() for get in getters]
            workers = runner.worker_pids()
        assert [value for _pid, value in results] == list(range(n_tasks))
        here = [n for n, (pid, _value) in enumerate(results) if pid == parent]
        assert here == [n for n in range(n_tasks) if n % jobs == 0]
        assert _RAN_HERE == here
        assert {pid for pid, _value in results if pid != parent} <= workers

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_a_fan_out_of_jobs_tasks_reaches_each_idle_worker_once(
        self, jobs
    ):
        """The caller keeps the first task and each other one goes to
        the worker with the fewest pending, so idle workers get one
        each."""
        with Runner(jobs=jobs) as runner:
            runner.ensure_pool()
            pids = _on_each_worker(runner, _pid_of_worker, None)
            assert sorted(pids) == sorted(runner.worker_pids())

    def test_getters_run_the_callers_share_when_called(self):
        """A getter of the caller's share computes when it is called, in
        whatever order the getters are called."""
        parent = os.getpid()
        _RAN_HERE.clear()
        with Runner(jobs=2) as runner:
            getters = runner.gather(
                _pid_and_value, [(parent, n) for n in range(5)]
            )
            assert getters[4]() == (parent, 4)
            assert _RAN_HERE == [4]
            assert getters[0]() == (parent, 0)
            assert _RAN_HERE == [4, 0]
            assert getters[3]()[0] in runner.worker_pids()
        assert _RAN_HERE == [4, 0]

    def test_run_records_keep_the_knobs_value(self, tmp_path):
        report, record = _run_identify(tmp_path, jobs=3)
        assert report.jobs == 3 and record["jobs"] == 3
        assert record["n_shards"] == SMALL_IDENTIFY["n_shards"]


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
