"""The runner: execute registered experiments serially or in parallel.

One :class:`Runner` drives every experiment through the same path:

* resolve the spec from the registry, build its config (seed + typed
  overrides), execute, time, serialise, archive;
* **persistent worker pool** — a Runner with ``jobs > 1`` forks its
  pool once, lazily, and reuses it across every run it executes
  (``close()`` or the context-manager exit tears it down; a finalizer
  covers abandoned runners).  Workers are initialised once via the pool
  initializer and attach shared-memory segments at most once each
  (:mod:`repro.backend.shared`), so per-run dispatch cost is a handful
  of metadata pickles — not process spawns;
* **zero-copy shard dispatch** — running a single *shardable* spec with
  ``jobs > 1`` maps its shard tasks over the pool.  Specs with a
  ``shard_shared`` plan materialise their workload once, export it into
  a :class:`~repro.backend.shared.SharedArena`, and ship workers
  ``(handle, row_range)``-style tasks that attach instead of
  rebuilding; the arena unlinks every segment when the run finishes —
  including when a worker raises mid-shard.  Specs without a shared
  plan (and hosts without ``multiprocessing.shared_memory``) fall back
  to the rebuild plan: tasks that reconstruct their inputs
  deterministically from the config.  The shard plan is a property of
  the config (never of the worker count or the dispatch mechanism), so
  serial, rebuild-sharded and shared-sharded runs are bit-identical by
  construction;
* **experiment pool** — :meth:`Runner.run_many` with ``jobs > 1`` runs
  whole experiments as pool tasks instead (each worker executes its
  spec's shards serially).  Workers return plain :class:`RunRecord`
  objects — results are serialised *inside* the worker, so nothing
  fancier than JSON-ready data ever crosses the process boundary;
* failures never abort a multi-experiment run: each report carries its
  own status and traceback, and the store archives error records too;
* **non-experiment dispatch** — :meth:`Runner.gather` (the one
  supervised fan-out), :meth:`Runner.submit` and
  :meth:`Runner.broadcast` expose the persistent pool to callers with
  their own task shapes.  The serving front-end (:mod:`repro.serving`)
  drives per-request shard tasks and its basis install/discard
  broadcasts through them, and ends each serving session with the
  same end-of-run attachment release broadcast the shared-dispatch
  experiments use.
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.shared import HAVE_SHARED_MEMORY, SharedArena, process_cache
from ..errors import PipelineError
from . import registry
from .serialize import to_jsonable
from .store import ArtifactStore, RunRecord

__all__ = ["Runner", "RunReport", "SUPERVISED_TIMEOUT_S"]

#: Default per-attempt result timeout of :meth:`Runner.submit_supervised`
#: (seconds).  Generous on purpose: it is the *backstop* for hung-alive
#: workers — dead workers are caught within :data:`PROBE_INTERVAL_S` by
#: the pid-set probe — so false positives under load matter more than
#: detection latency.
SUPERVISED_TIMEOUT_S = 120.0

#: How often :meth:`Runner.await_result` wakes to probe worker
#: liveness while a result is pending.
PROBE_INTERVAL_S = 0.25

#: Flipped when creating shared segments fails (e.g. an unwritable or
#: missing /dev/shm): the runner then stops retrying the shared path
#: and uses the rebuild plan for the rest of the process lifetime.
_SHARED_DISPATCH_BROKEN = False

#: Worker-side copy of the release barrier (set by the pool
#: initializer).  Broadcast tasks rendezvous on it so every worker of
#: the pool runs exactly one task — a plain ``pool.map`` gives no
#: distribution guarantee otherwise.
_RELEASE_BARRIER = None

#: How long a broadcast task waits for its siblings before giving up
#: (a dead worker must degrade the broadcast, not deadlock the run).
_BARRIER_TIMEOUT_S = 30.0


@dataclass
class RunReport:
    """What the caller gets back from one experiment execution.

    ``result`` is the live result object when the experiment ran in
    this process, and None when it ran in a pool worker (the serialised
    payload is in the archived record either way).
    """

    name: str
    status: str
    wall_seconds: float
    jobs: int
    n_shards: int
    result: Any = None
    rendered: str = ""
    error: Optional[str] = None
    json_path: Any = None
    text_path: Any = None

    @property
    def ok(self) -> bool:
        """True when the run completed without raising."""
        return self.status == "ok"


def _mp_context():
    """Fork when available (cheap, inherits the loaded registry)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _render(result: Any) -> str:
    """A result's text report (every driver result exposes render())."""
    if hasattr(result, "render"):
        return result.render()
    return str(result)


def _start_resource_tracker() -> None:
    """Start the multiprocessing resource tracker *before* forking workers.

    Shared-memory bookkeeping: creating and attaching segments both
    register with the resource tracker, and ``unlink`` unregisters.
    If the tracker first starts *after* the pool forked, each worker
    lazily spawns a private tracker whose ledger nobody ever clears —
    at worker shutdown those trackers emit "leaked shared_memory
    objects" warnings for segments the arena already unlinked.  With
    the tracker running pre-fork, every process shares one ledger and
    the arena's single unlink per segment leaves it clean.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker is an optimisation only
        pass


def _worker_init(release_barrier=None) -> None:
    """Pool initializer: run once per worker at fork/spawn time.

    Loads the registry so shard tasks resolve specs locally (a no-op
    under fork, required under spawn) and stashes the runner's release
    barrier for end-of-run broadcasts.  Shared-segment attachment is
    *lazy* — the per-process cache in :mod:`repro.backend.shared`
    attaches each segment on the worker's first task that needs it and
    reuses the mapping for the rest of the run.
    """
    global _RELEASE_BARRIER
    _RELEASE_BARRIER = release_barrier
    registry.ensure_loaded()


def _rendezvous() -> None:
    """Block until every pool worker reached its broadcast task.

    The barrier is what turns ``pool.map`` into a true broadcast: a
    worker that finished its task early parks here instead of stealing
    a sibling's, so all ``jobs`` tasks land on distinct workers.  A
    broken or timed-out barrier (dead worker) is swallowed — the
    broadcast then covers the workers that did run, and the per-task
    arena-token eviction still covers the rest.
    """
    if _RELEASE_BARRIER is not None:
        try:
            _RELEASE_BARRIER.wait(timeout=_BARRIER_TIMEOUT_S)
        except Exception:  # pragma: no cover - dead-worker degradation
            pass


def _broadcast_call(item: Tuple[Any, Any]) -> Any:
    """Broadcast target: run one caller-supplied callable on this worker.

    The generic counterpart of :func:`_release_worker`: rendezvous on
    the barrier after the call so every worker of the pool executes the
    payload exactly once.  Used by non-experiment dispatchers — the
    serving front-end broadcasts its basis install and discard through
    this.
    """
    fn, payload = item
    result = fn(payload)
    _rendezvous()
    return result


def _release_worker(_index: int) -> int:
    """Broadcast target: drop this worker's shared-memory attachments.

    Returns the number of mappings still held afterwards (0 unless a
    view escaped a task), so the caller can observe worker residency.
    """
    cache = process_cache()
    cache.release()
    _rendezvous()
    return len(cache)


def _attachment_count_worker(_index: int) -> int:
    """Broadcast target: report this worker's resident mapping count."""
    count = len(process_cache())
    _rendezvous()
    return count


def _broadcast_release(pool, n_workers: int, barrier) -> List[int]:
    """Run :func:`_release_worker` once on every pool worker.

    Called at the end of each shared-dispatch run: without it, workers
    pin the finished run's attachments until a task from a *newer*
    arena happens to arrive.  Returns the per-worker residual counts.
    """
    counts = pool.map(_release_worker, range(n_workers), chunksize=1)
    if barrier is not None:
        try:
            barrier.reset()
        except Exception:  # pragma: no cover - broken-barrier cleanup
            pass
    return counts


def _shard_worker(task: Tuple[str, Any]) -> Any:
    """Pool target: run one shard of one spec."""
    name, shard = task
    return registry.get_spec(name).run_shard(shard)


def _experiment_worker(task: Tuple[str, Optional[int], Dict[str, Any]]) -> RunRecord:
    """Pool target: run one whole experiment, shards serial, record out."""
    name, seed, overrides = task
    record, _result = _execute_record(name, seed, overrides, jobs=1)
    return record


def _execute_record(
    name: str,
    seed: Optional[int],
    overrides: Optional[Dict[str, Any]],
    jobs: int,
    pool_factory=None,
    release=None,
) -> Tuple[RunRecord, Any]:
    """Execute one experiment and build its record.

    Never raises on experiment failure — the record carries the
    traceback instead, which is what lets ``run all`` continue past a
    broken driver.  Config/spec resolution errors (unknown name or
    override) do raise: those are caller bugs, not experiment failures.
    """
    spec = registry.get_spec(name)
    config = spec.make_config(seed=seed, overrides=overrides)
    config_payload = to_jsonable(config)
    used_seed = getattr(config, "seed", None)
    started = time.perf_counter()
    try:
        result, n_shards = _execute_spec(
            spec, config, jobs, pool_factory, release
        )
        wall = time.perf_counter() - started
        record = RunRecord(
            experiment=name,
            status="ok",
            config=config_payload,
            seed=used_seed,
            jobs=jobs,
            n_shards=n_shards,
            wall_seconds=wall,
            result=to_jsonable(result),
            rendered=_render(result),
        )
        return record, result
    except Exception:
        wall = time.perf_counter() - started
        record = RunRecord(
            experiment=name,
            status="error",
            config=config_payload,
            seed=used_seed,
            jobs=jobs,
            n_shards=0,
            wall_seconds=wall,
            error=traceback.format_exc(),
        )
        return record, None


def _shared_tasks(spec, config) -> Optional[Tuple[SharedArena, List[Any]]]:
    """Export the spec's workload into a fresh arena, if it can be.

    Returns None — sending the caller to the rebuild plan — when the
    spec has no shared plan, shared memory is unavailable, or creating
    segments fails on this host (remembered for the process lifetime).
    The caller owns the returned arena and must close it.
    """
    global _SHARED_DISPATCH_BROKEN
    if (
        spec.shard_shared is None
        or not HAVE_SHARED_MEMORY
        or _SHARED_DISPATCH_BROKEN
    ):
        return None
    try:
        arena = SharedArena()
    except OSError:  # pragma: no cover - no usable shm backing
        _SHARED_DISPATCH_BROKEN = True
        return None
    try:
        tasks = list(spec.shard_shared(config, arena))
    except OSError:  # pragma: no cover - /dev/shm full or unwritable
        arena.close()
        _SHARED_DISPATCH_BROKEN = True
        return None
    except Exception:
        arena.close()
        raise
    return arena, tasks


def _execute_spec(
    spec, config, jobs: int, pool_factory, release=None
) -> Tuple[Any, int]:
    """Run one spec, sharding across the pool when possible.

    Returns ``(result, n_shards)`` with ``n_shards == 0`` for
    unsharded execution.  ``pool_factory`` lazily yields the runner's
    persistent worker pool; it is only invoked when a multi-task shard
    plan actually dispatches, so unshardable and single-shard runs
    never pay the fork (None forces in-process execution).  ``release``
    is the runner's end-of-run broadcast: invoked after a
    shared-dispatch run so workers drop their attachments immediately
    instead of pinning them until the next run's tasks arrive.

    In-process execution goes through ``spec.run`` — the authoritative
    serial driver, free to share one workload across its shards (the
    identify driver builds once) — rather than mapping ``run_shard``
    task by task.  Both compose the same shards, so the result is
    bit-identical either way; single-task plans also stay in-process
    (exporting a workload to shared memory to run one shard on one
    worker is pure overhead).
    """
    if not spec.shardable:
        return spec.run(config), 0
    tasks = list(spec.shard(config))
    if not tasks:
        raise PipelineError(f"spec {spec.name!r} produced an empty shard plan")
    pool = (
        pool_factory()
        if pool_factory is not None and jobs > 1 and len(tasks) > 1
        else None
    )
    if pool is not None:
        shared = _shared_tasks(spec, config)
        if shared is not None:
            arena, shared_tasks = shared
            try:
                parts = pool.map(
                    _shard_worker,
                    [(spec.name, task) for task in shared_tasks],
                )
            finally:
                # Unlink on every exit path: a worker raising mid-shard
                # must not leak /dev/shm segments — then tell every
                # worker to drop its attachments so the pages free now
                # rather than at the next run's first task.
                arena.close()
                if release is not None:
                    release()
            return spec.merge(config, parts), len(shared_tasks)
        parts = pool.map(_shard_worker, [(spec.name, task) for task in tasks])
        return spec.merge(config, parts), len(tasks)
    return spec.run(config), len(tasks)


def _shutdown_pool(pool) -> None:
    """Terminate a worker pool (finalizer-safe, idempotent)."""
    if pool is not None:
        pool.terminate()
        pool.join()


class Runner:
    """Executes registered experiments and archives their artifacts.

    Parameters
    ----------
    jobs:
        Worker processes.  1 (default) runs everything in-process; more
        enables the persistent shard/experiment pool.  The pool is
        created lazily on the first parallel run and reused until
        :meth:`close` (Runners also work as context managers, and a
        finalizer reaps pools of abandoned instances).
    store:
        Optional :class:`~repro.pipeline.store.ArtifactStore`; when set,
        every run (including failures) is archived as JSON + text.
    """

    def __init__(self, jobs: int = 1, store: Optional[ArtifactStore] = None):
        if jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.store = store
        self._pool = None
        self._pool_finalizer = None
        self._release_barrier = None
        # Supervision state: pool lifecycle is guarded by a reentrant
        # lock (supervised getters run on many threads), the generation
        # counter lets concurrent failures agree on one restart, and
        # sticky broadcasts replay onto a respawned pool so it carries
        # the same worker state (installed bases) the dead one did.
        self._lock = threading.RLock()
        self._pool_generation = 0
        self._sticky_broadcasts: List[Tuple[Any, Any]] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self):
        """The persistent worker pool (created on first parallel run)."""
        if self.jobs < 2:
            return None
        with self._lock:
            if self._pool is None:
                context = _mp_context()
                registry.ensure_loaded()  # fork inherits populated registry
                _start_resource_tracker()  # before fork: workers share it
                self._release_barrier = context.Barrier(self.jobs)
                self._pool = context.Pool(
                    self.jobs,
                    initializer=_worker_init,
                    initargs=(self._release_barrier,),
                )
                self._pool_finalizer = weakref.finalize(
                    self, _shutdown_pool, self._pool
                )
                self._pool_generation += 1
            return self._pool

    # ------------------------------------------------------------------
    # Dispatch primitives for non-experiment callers
    # ------------------------------------------------------------------
    #
    # The registry/spec machinery above is the experiment pipeline's
    # entry point; the methods below are the *pool's* public surface
    # for callers with their own task shapes — the serving front-end
    # (:mod:`repro.serving`) and the parallel kernel layer
    # (:mod:`repro.backend.parallel`) fan their shard tasks out through
    # :meth:`gather` and broadcast through :meth:`broadcast`, reusing the
    # persistent workers, the attachment cache and the release barrier
    # instead of growing a second pool implementation.

    def ensure_pool(self):
        """The persistent worker pool (created now if needed).

        None when ``jobs == 1`` — callers run their tasks in-process
        then.  The returned pool is owned by this Runner; never
        terminate it directly (use :meth:`close`).
        """
        return self._ensure_pool()

    def submit(self, fn, task):
        """``apply_async`` one task onto the persistent pool.

        ``fn`` must be a module-level callable (pickled by reference);
        returns the pool's ``AsyncResult``.  Requires ``jobs >= 2`` —
        a single-job Runner has no pool to submit to, and silently
        running inline would hide the caller's dispatch bug.
        """
        pool = self._ensure_pool()
        if pool is None:
            raise PipelineError(
                "submit() needs a worker pool; construct the Runner with "
                "jobs >= 2 or run the task in-process"
            )
        return pool.apply_async(fn, (task,))

    def gather(
        self,
        fn,
        tasks,
        *,
        timeout: float = SUPERVISED_TIMEOUT_S,
        retries: int = 2,
    ) -> List[Callable[[], Any]]:
        """Fan ``fn`` out over ``tasks``; one supervised getter per task.

        The one supervised fan-out every pool caller shares (serving
        shards, logicnet shards, the parallel kernel layer): every task
        enters the pool before any result is awaited, so workers
        overlap, and the worker-pid snapshot is taken once, right after
        the last submit.  The getters come back in task order; calling
        one blocks for its task's result (:meth:`await_result` against
        that snapshot) and, when the task's worker was lost or the
        result timed out, re-runs the task down the
        :meth:`submit_supervised` ladder — so a caller that keeps the
        task's operands alive until its getters return always gets the
        undisturbed result.  Same contract as :meth:`submit`
        (module-level ``fn``, ``jobs >= 2``).
        """
        handles = [self.submit(fn, task) for task in tasks]
        baseline = self.worker_pids()

        def get(handle, task):
            try:
                return self.await_result(
                    handle, timeout=timeout, baseline=baseline
                )
            except (multiprocessing.TimeoutError, OSError, EOFError):
                return self.submit_supervised(
                    fn, task, timeout=timeout, retries=retries
                )

        return [
            functools.partial(get, handle, task)
            for handle, task in zip(handles, tasks)
        ]

    def broadcast(self, fn, payload=None, *, sticky: bool = True) -> Optional[List[Any]]:
        """Run ``fn(payload)`` exactly once on every pool worker.

        Barrier-distributed like the attachment release: each worker
        parks on the rendezvous after its call, so no worker steals a
        sibling's broadcast task.  Only call while the pool is quiet —
        a worker busy with a long task would stall the barrier until
        its timeout.  Returns the per-worker results, or None when
        there is no pool (``jobs == 1``: callers apply the payload
        in-process instead).

        ``sticky`` (the default) records the broadcast so
        :meth:`restart_pool` can replay it, in order, onto a respawned
        pool — worker state established by broadcast (installed serving
        bases) survives pool loss that way.  Pass ``sticky=False`` for
        broadcasts that only observe state.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        results = pool.map(
            _broadcast_call, [(fn, payload)] * self.jobs, chunksize=1
        )
        if self._release_barrier is not None:
            try:
                self._release_barrier.reset()
            except Exception:  # pragma: no cover - broken-barrier cleanup
                pass
        if sticky:
            with self._lock:
                self._sticky_broadcasts.append((fn, payload))
        return results

    # ------------------------------------------------------------------
    # Supervision: detect dead/hung workers, respawn, degrade gracefully
    # ------------------------------------------------------------------

    def probe_workers(self) -> List[int]:
        """PIDs of pool workers that are no longer alive.

        The liveness probe half of supervision: an empty list means
        every forked worker currently holds a live process.  Note that
        ``multiprocessing.Pool`` respawns crashed workers on its own —
        what it can *not* do is recover their in-flight tasks, which is
        what :meth:`submit_supervised` exists for — so a dead PID here
        is a point-in-time observation, not a permanent state.
        """
        with self._lock:
            if self._pool is None:
                return []
            try:
                workers = list(self._pool._pool)
            except Exception:  # pragma: no cover - pool mid-teardown
                return []
            return [
                worker.pid
                for worker in workers
                if worker.pid is not None and not worker.is_alive()
            ]

    def worker_pids(self) -> frozenset:
        """The current pool workers' PIDs (empty without a pool).

        The loss-detection primitive: ``multiprocessing.Pool`` replaces
        a crashed worker with a fresh fork, so a changed pid set means
        some worker died since the snapshot — and any task that was in
        flight on it will never complete.  Callers snapshot before
        submitting and compare while awaiting
        (:meth:`await_result` does both).
        """
        with self._lock:
            if self._pool is None:
                return frozenset()
            try:
                workers = list(self._pool._pool)
            except Exception:  # pragma: no cover - pool mid-teardown
                return frozenset()
            return frozenset(
                worker.pid for worker in workers if worker.pid is not None
            )

    def await_result(
        self,
        handle,
        *,
        timeout: float = SUPERVISED_TIMEOUT_S,
        baseline: Optional[frozenset] = None,
    ):
        """``handle.get`` with early worker-loss detection.

        Polls the result every :data:`PROBE_INTERVAL_S` and raises
        :class:`multiprocessing.TimeoutError` *immediately* when the
        pool's pid set no longer matches ``baseline`` (default: the set
        at call time) — a replaced worker means the task may be lost,
        and waiting out the full ``timeout`` for a result that can
        never arrive is exactly the hang this layer exists to prevent.
        The ``timeout`` backstop still catches hung-but-alive workers.
        Exceptions raised by the task itself propagate unchanged.
        """
        if baseline is None:
            baseline = self.worker_pids()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise multiprocessing.TimeoutError(
                    f"no result within {timeout} s"
                )
            try:
                return handle.get(min(PROBE_INTERVAL_S, remaining))
            except multiprocessing.TimeoutError:
                if self.worker_pids() != baseline:
                    raise multiprocessing.TimeoutError(
                        "pool worker lost while awaiting result"
                    ) from None

    def restart_pool(self, *, expected_generation: Optional[int] = None):
        """Tear down the worker pool and fork a fresh one.

        Replays every sticky broadcast, in order, onto the new pool so
        it carries the same worker state the old one did.  When
        ``expected_generation`` is given and the pool was already
        restarted past it (a concurrent supervisor got here first),
        this is a no-op returning the current pool — N simultaneous
        shard timeouts must agree on one restart, not thrash N.
        """
        with self._lock:
            if (
                expected_generation is not None
                and self._pool_generation != expected_generation
            ):
                return self._pool
            if self._pool_finalizer is not None:
                self._pool_finalizer()
                self._pool_finalizer = None
            self._pool = None
            self._release_barrier = None
            pool = self._ensure_pool()
            for fn, payload in list(self._sticky_broadcasts):
                try:
                    pool.map(
                        _broadcast_call,
                        [(fn, payload)] * self.jobs,
                        chunksize=1,
                    )
                    if self._release_barrier is not None:
                        self._release_barrier.reset()
                except Exception:  # pragma: no cover - replay degradation
                    # A failed replay degrades the new pool, it must not
                    # abort the restart — tasks needing the state fail
                    # and ride the supervision ladder to in-process.
                    pass
            return pool

    def submit_supervised(
        self,
        fn,
        task,
        *,
        timeout: float = SUPERVISED_TIMEOUT_S,
        retries: int = 2,
    ):
        """Run ``fn(task)`` on the pool and *return the result*, surviving
        dead and hung workers.

        The supervision ladder, one rung per failed attempt:

        1. resubmit to the pool — ``multiprocessing.Pool`` respawns a
           crashed worker by itself (the fresh fork inherits the
           parent's installed state); only the in-flight task is lost,
           and resubmission is exactly its recovery;
        2. :meth:`restart_pool` (sticky broadcasts replayed) and
           resubmit — covers a hung worker or broken pool plumbing;
        3. after ``retries`` failed pool attempts, run ``fn(task)``
           in-process — the floor of the ladder, always available.

        A failure is a result timeout (the signature of a worker lost
        mid-task: its ``AsyncResult`` never completes) or a broken
        result channel.  Exceptions *raised by* ``fn`` propagate
        unchanged on the first attempt — they are the task's outcome,
        not a worker loss.  Same ``jobs >= 2`` contract as
        :meth:`submit`.
        """
        if timeout is not None and timeout <= 0:
            raise PipelineError(f"timeout must be positive, got {timeout}")
        for attempt in range(max(0, int(retries))):
            with self._lock:
                generation = self._pool_generation
            try:
                if attempt > 0:
                    # Rung 2+: assume the pool itself is sick.  The
                    # generation check makes concurrent failures share
                    # one restart.
                    self.restart_pool(expected_generation=generation)
                handle = self.submit(fn, task)
                return self.await_result(handle, timeout=timeout)
            except PipelineError:
                raise  # jobs < 2: caller bug, same contract as submit()
            except multiprocessing.TimeoutError:
                continue
            except (OSError, EOFError) as exc:
                # The result channel died with the worker; retryable.
                del exc
                continue
        return fn(task)

    def release_worker_attachments(self) -> None:
        """Broadcast an attachment release to every live pool worker.

        Runs automatically at the end of each shared-dispatch run;
        callable directly after out-of-band shared work.  A no-op
        without a live pool.  Best-effort: a broken pool must not turn
        a finished run into a failure (the per-task arena-token
        eviction still bounds worker memory if the broadcast degrades).
        """
        if self._pool is None:
            return
        try:
            _broadcast_release(self._pool, self.jobs, self._release_barrier)
        except Exception:  # pragma: no cover - dying pool mid-teardown
            pass

    def close(self) -> None:
        """Tear down the worker pool (idempotent; runs stay archived)."""
        with self._lock:
            if self._pool_finalizer is not None:
                self._pool_finalizer()
                self._pool_finalizer = None
            self._pool = None
            self._release_barrier = None
            self._sticky_broadcasts.clear()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        name: str,
        seed: Optional[int] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> RunReport:
        """Run one experiment (sharded across the pool when it can be)."""
        record, result = _execute_record(
            name,
            seed,
            overrides,
            self.jobs,
            self._ensure_pool,
            release=self.release_worker_attachments,
        )
        return self._finalize(record, result)

    def run_many(
        self,
        names: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
    ) -> List[RunReport]:
        """Run several experiments (default: all), continuing past failures.

        With ``jobs > 1`` the experiments themselves are the pool tasks;
        a manifest summarising the whole run is written when a store is
        attached.
        """
        names = list(names) if names is not None else registry.spec_names()
        for name in names:
            registry.get_spec(name)  # fail fast on unknown names
        tasks = [(name, seed, {}) for name in names]
        if self.jobs > 1 and len(names) > 1:
            records = self._ensure_pool().map(_experiment_worker, tasks)
            reports = [self._finalize(record, None) for record in records]
        else:
            pairs = [
                _execute_record(
                    *task,
                    jobs=self.jobs,
                    pool_factory=self._ensure_pool,
                    release=self.release_worker_attachments,
                )
                for task in tasks
            ]
            records = [record for record, _result in pairs]
            reports = [self._finalize(record, result) for record, result in pairs]
        if self.store is not None:
            self.store.write_manifest(records)
        return reports

    def _finalize(self, record: RunRecord, result: Any) -> RunReport:
        """Archive a record (when a store is attached) and report it."""
        json_path = text_path = None
        if self.store is not None:
            json_path, text_path = self.store.save(record)
        return RunReport(
            name=record.experiment,
            status=record.status,
            wall_seconds=record.wall_seconds,
            jobs=record.jobs,
            n_shards=record.n_shards,
            result=result,
            rendered=record.rendered,
            error=record.error,
            json_path=json_path,
            text_path=text_path,
        )
