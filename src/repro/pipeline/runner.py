"""The runner: execute registered experiments serially or in parallel.

One :class:`Runner` drives every experiment through the same path:

* resolve the spec from the registry, build its config (seed + typed
  overrides), execute, time, serialise, archive;
* **fork-join** — ``jobs`` is the number of computing processes, and
  the caller is one of them: a Runner with ``jobs > 1`` forks
  ``jobs - 1`` worker processes, and every fan-out computes its share
  of the tasks in the caller while the workers compute the rest;
* **persistent workers** — the workers fork once, lazily, and are
  reused across every run the Runner executes (``close()`` or the
  context-manager exit kills them for good, and a closed Runner forks
  nothing more; a finalizer covers abandoned runners).  Each worker
  owns one ``socketpair``: tasks go out on it and replies come back on
  it, in send order, as length-prefixed pickles.  Every
  :class:`~repro.backend.shared.SharedArraySpec` in a task travels
  beside it as its descriptor (``SCM_RIGHTS``); the worker maps what
  the task touches and closes the descriptors when the task ends, so
  per-run dispatch cost is a handful of metadata pickles — not process
  spawns — and an idle worker holds no segment;
* **shard dispatch** — running a single *shardable* spec with
  ``jobs > 1`` fans its shard tasks out over the caller and the
  workers.  A shard task is a few integers and the config; the process
  that runs it rebuilds its inputs deterministically from them, the
  same way on every host.  The shard plan is a property of the config
  (never of the worker count), so serial and sharded runs are
  bit-identical by construction;
* **experiment pool** — :meth:`Runner.run_many` with ``jobs > 1`` runs
  whole experiments as tasks instead (each process executes its
  spec's shards serially).  Tasks return plain :class:`RunRecord`
  objects — results are serialised where they run, so nothing
  fancier than JSON-ready data ever crosses the process boundary;
* failures never abort a multi-experiment run: each report carries its
  own status and traceback, and the store archives error records too;
* **supervision** — a worker that dies is EOF (or EPIPE) on its own
  socket, seen at once: it is reaped and replaced by a fresh fork.  A
  task past its timeout SIGKILLs and replaces only its own worker.
  :meth:`Runner.gather` resubmits a lost task, then runs it
  in-process.  A target may name a fault point in its ``fault_point``
  attribute (:mod:`repro.testing.faults`): a worker fires it before
  each task it runs, so the point kills workers only, never the caller
  computing its own share or a lost task;
* **non-experiment dispatch** — :meth:`Runner.gather` (the one
  supervised fan-out) and :meth:`Runner.submit` expose the persistent
  workers to callers with their own task shapes.  The serving
  front-end (:mod:`repro.serving`) drives its per-request shard tasks
  through them.  Workers keep no state between tasks that a
  replacement would lack: a task carries what it needs, or names it by
  what a fork inherits or rebuilds.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import io
import os
import pickle
import select
import signal
import socket
import struct
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.shared import SharedArraySpec
from ..errors import PipelineError
from ..testing import faults
from . import registry
from .store import ArtifactStore, RunRecord

__all__ = ["Runner", "RunReport", "WorkerLost", "SUPERVISED_TIMEOUT_S"]

#: Default per-attempt result timeout of :meth:`Runner.gather`
#: (seconds).  Generous on purpose: it only catches hung-alive workers —
#: a dead worker is EOF on its socket, seen at once — so false
#: positives under load matter more than detection latency.
SUPERVISED_TIMEOUT_S = 120.0

#: Every message on a worker socket is this length prefix and a pickle.
_LENGTH = struct.Struct("<Q")

#: The most segments one task may carry: the kernel's own cap on the
#: descriptors one message passes (``SCM_MAX_FD``).  A worker receives
#: at most this many with a task, so a task carrying more is refused
#: before it is sent.
_MAX_SEGMENTS = 253

#: The reply of a task whose worker died, or was killed, first.
_LOST = object()

#: A task as it crosses a worker socket: the framed pickle, and the
#: segment descriptors sent beside it.
_Message = Tuple[bytes, List[int]]


class WorkerLost(PipelineError):
    """A task's worker died, or outlived the task's timeout, first."""


@dataclass
class RunReport:
    """What the caller gets back from one experiment execution.

    ``result`` is the live result object when the experiment ran in
    this process, and None when it ran in a worker (the serialised
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


def _render(result: Any) -> str:
    """A result's text report (every driver result exposes render())."""
    if hasattr(result, "render"):
        return result.render()
    return str(result)


def _frame(message: Any) -> bytes:
    """One message as it crosses a worker socket."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(data)) + data


def _task_message(fn, task) -> _Message:
    """``(fn, task)`` as it crosses a worker socket.

    Each :class:`SharedArraySpec` pickles as a persistent id: the spec
    with ``fd`` replaced by the index of its descriptor among those
    sent beside the task, which the worker (:func:`_answer`) rebinds to
    the descriptor it received.  The inode is checked first, so a spec
    that outlived its arena raises FileNotFoundError here, in the
    caller, and never reaches a send.
    """
    fds: Dict[int, int] = {}  # descriptor -> index

    def persistent_id(obj: Any) -> Any:
        if type(obj) is not SharedArraySpec:
            return None
        obj.stat()
        return dataclasses.replace(obj, fd=fds.setdefault(obj.fd, len(fds)))

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump((fn, task))
    if len(fds) > _MAX_SEGMENTS:
        raise PipelineError(
            f"a task carries {len(fds)} shared segments; a worker "
            f"receives at most {_MAX_SEGMENTS}"
        )
    data = buffer.getvalue()
    return _LENGTH.pack(len(data)) + data, list(fds)


def _recv_exact(sock, size: int, poller=None, deadline=None) -> bytearray:
    """Exactly ``size`` bytes from ``sock``.

    Raises EOFError when the peer is gone and TimeoutError when
    ``deadline`` (``time.monotonic()``; None waits for ever) passes
    before the bytes arrive.
    """
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        if deadline is not None and not poller.poll(
            max(0.0, deadline - time.monotonic()) * 1000
        ):
            raise TimeoutError
        received = sock.recv_into(view)
        if not received:
            raise EOFError
        view = view[received:]
    return buffer


def _read_frame(sock, poller=None, deadline=None) -> bytearray:
    """The pickle of the next message on ``sock``."""
    header = _recv_exact(sock, _LENGTH.size, poller, deadline)
    return _recv_exact(sock, _LENGTH.unpack(header)[0], poller, deadline)


def _read_task(sock: socket.socket) -> Tuple[bytearray, List[int]]:
    """The next task's pickle and the descriptors sent with it.

    The descriptors ride on the first bytes of their message, so they
    arrive with its length prefix.
    """
    header, fds, _flags, _address = socket.recv_fds(
        sock, _LENGTH.size, _MAX_SEGMENTS
    )
    if not header:
        raise EOFError
    header += _recv_exact(sock, _LENGTH.size - len(header))
    return _recv_exact(sock, _LENGTH.unpack(header)[0]), fds


def _answer(data: bytearray, fds: List[int]) -> bytes:
    """Run one task; its framed ``(ok, value)`` reply.

    The task's specs are rebound to ``fds``, the descriptors that came
    with it.  The fault point the task's target declares fires first.
    The task's views (and so its mappings) die with this call's
    locals, so the worker holds none while it waits for the next task.
    A raised exception loses its traceback for the same reason: the
    reply never carries it, and its frames would keep the views alive.
    """
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = lambda spec: dataclasses.replace(
        spec, fd=fds[spec.fd]
    )
    try:
        fn, task = unpickler.load()
        point = getattr(fn, "fault_point", None)
        if point is not None:
            faults.maybe_fire(point)
        reply = (True, fn(task))
    except Exception as exc:  # the task's outcome, sent back
        reply = (False, exc.with_traceback(None))
    try:
        return _frame(reply)
    except Exception as exc:  # an unpicklable result or exception
        return _frame(
            (False, PipelineError(f"cannot pickle the reply: {exc!r}"))
        )


def _work(sock: socket.socket) -> None:
    """A worker's life: run each ``(fn, task)`` it is sent, reply, and
    return on EOF (the parent closed its end or died).

    A task's descriptors close when it ends; its mappings go with its
    last views, so an idle worker holds no segment.
    """
    while True:
        try:
            data, fds = _read_task(sock)
        except (EOFError, OSError):
            return
        try:
            message = _answer(data, fds)
        finally:
            for fd in fds:
                os.close(fd)
        try:
            sock.sendall(message)
        except OSError:
            return


def _drop_inherited_descriptors(keep: int) -> None:
    """Point every descriptor this fresh fork inherited, but stdio and
    ``keep``, at ``/dev/null``.

    A replacement forks from the running server, so it inherits the
    listener, the client connections, the other workers' socket ends
    and every live arena's segments.  Holding them would keep a
    connection the server closed from ever reading EOF, keep a worker
    from seeing EOF when its parent end closes, and pin segments the
    server has let go of.  The descriptor numbers stay taken (``dup2``,
    not ``close``): a Python object still wrapping one may close it
    later, and must close ``/dev/null`` then, not a descriptor opened
    since.
    """
    with os.scandir("/dev/fd") as entries:
        # A directory pins nothing, and one is the scan's own descriptor.
        inherited = [
            int(entry.name) for entry in entries if not entry.is_dir()
        ]
    null = os.open(os.devnull, os.O_RDWR)
    for fd in inherited:
        if fd > 2 and fd != keep:
            os.dup2(null, fd)
    os.close(null)


def _fork_worker() -> "_Worker":
    """Fork one worker on a fresh socketpair; this process keeps one end.

    Returns once the child has dropped what it inherited, which it
    tells by sending one byte, so a fresh worker never holds the
    listener or a live arena's segments.  A child that exits first
    raises PipelineError.
    """
    parent, child = socket.socketpair()
    try:
        pid = os.fork()
    except OSError:
        parent.close()
        child.close()
        raise
    if pid == 0:
        try:
            _drop_inherited_descriptors(keep=child.fileno())
            # A replacement forks from the running server: its signal
            # handlers must not run here, and Ctrl-C reaches the whole
            # process group.  The parent alone ends us.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            child.sendall(b"\0")
            _work(child)
        finally:
            os._exit(0)
    child.close()
    worker = _Worker(pid, parent)
    try:
        _recv_exact(parent, 1)
    except (EOFError, OSError):
        worker.stop()
        raise PipelineError(f"worker {pid} exited before it started") from None
    return worker


class _Worker:
    """One forked worker, seen through the parent's end of its socket.

    ``pending`` holds the handles of the tasks sent and not yet
    answered, in send order; the worker answers in that order, so each
    reply belongs to the oldest pending handle, waited for or not.
    """

    def __init__(self, pid: int, sock: socket.socket) -> None:
        self.pid = pid
        self.sock = sock
        self.pending: "collections.deque[_Handle]" = collections.deque()
        self.dead = False
        self.lock = threading.Lock()  # guards pending and dead
        self.sending = threading.Lock()  # one message on the wire at a time
        self.reading = threading.RLock()  # one reader; it may call stop()
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

    def post(self, handle: "_Handle", message: _Message) -> bool:
        """Send one task and its descriptors; False when the worker is
        dead."""
        data, fds = message
        with self.sending:
            with self.lock:
                if self.dead:
                    return False
                self.pending.append(handle)
            try:
                sent = socket.send_fds(self.sock, [data], fds) if fds else 0
                if sent < len(data):
                    self.sock.sendall(memoryview(data)[sent:])
            except OSError:  # EPIPE: the worker died; stop() loses handle
                return False
        return True

    def read_one(self, deadline: Optional[float]) -> bool:
        """Read one reply into the oldest pending handle.

        False when the worker is gone (EOF, reset) or sent nothing by
        ``deadline``.  Call holding :attr:`reading`.
        """
        try:
            data = _read_frame(self.sock, self._poller, deadline)
        except (EOFError, OSError):
            return False
        try:
            reply = pickle.loads(data)
        except Exception as exc:  # e.g. an exception that cannot rebuild
            reply = (False, exc)
        with self.lock:
            if self.pending:
                self.pending.popleft().reply = reply
        return True

    def stop(self) -> None:
        """SIGKILL and reap the worker; its pending tasks are lost.

        Idempotent.  The shutdown wakes a thread blocked reading from or
        sending to the worker before the socket closes under them.
        """
        with self.lock:
            if self.dead:
                return
            self.dead = True
            lost, self.pending = self.pending, collections.deque()
        for handle in lost:
            handle.reply = _LOST
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)  # unreaped, so still ours
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)
        with self.sending, self.reading:
            self.sock.close()


class _Handle:
    """One task sent to one worker: ``reply`` is None until a reader
    fills in ``(ok, value)``, or :data:`_LOST` when the worker goes."""

    __slots__ = ("runner", "worker", "reply")

    def __init__(self, runner: "Runner", worker: _Worker) -> None:
        self.runner = runner
        self.worker = worker
        self.reply: Any = None

    def get(self, timeout: Optional[float] = None) -> Any:
        """The task's result; the task's own exception is re-raised.

        Whoever holds the worker's read lock reads replies until its own
        arrives, filling in the handles ahead of it.  Raises
        :class:`WorkerLost` when the worker died first (EOF), or when
        ``timeout`` seconds pass without the reply (the worker hangs);
        either way the worker is replaced.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        worker = self.worker
        while self.reply is None:
            now = time.monotonic()
            wait = -1 if deadline is None else max(0.0, deadline - now)
            if not worker.reading.acquire(timeout=wait):
                self.runner._replace(worker)  # the task outlived its timeout
                continue
            try:
                if self.reply is None and not worker.read_one(deadline):
                    self.runner._replace(worker)
            finally:
                worker.reading.release()
        if self.reply is _LOST:
            raise WorkerLost(f"worker {worker.pid} was lost before replying")
        ok, value = self.reply
        if ok:
            return value
        raise value


def _stop_all(workers: List[_Worker]) -> None:
    """Kill and reap ``workers``, emptying the list first so that no
    reader woken by a kill forks a replacement."""
    stopping = list(workers)
    workers.clear()
    for worker in stopping:
        worker.stop()


def _shard_worker(task: Tuple[str, Any]) -> Any:
    """Worker target: run one shard of one spec."""
    name, shard = task
    return registry.get_spec(name).run_shard(shard)


def _experiment_worker(task: Tuple[str, Optional[int], Dict[str, Any]]) -> RunRecord:
    """Worker target: run one whole experiment, shards serial, record out."""
    record, _result = _execute_record(*task)
    return record


def _execute_record(
    name: str,
    seed: Optional[int],
    overrides: Optional[Dict[str, Any]],
    runner: Optional["Runner"] = None,
) -> Tuple[RunRecord, Any]:
    """Execute one experiment and build its record.

    Shards fan out over ``runner``'s workers when it has more than one
    job; ``runner=None`` runs everything in-process.  Never raises on
    experiment failure — the record carries the traceback instead,
    which is what lets ``run all`` continue past a broken driver.
    Config/spec resolution errors (unknown name or override) do raise:
    those are caller bugs, not experiment failures.
    """
    # Imported here: it loads repro.analysis, which serving never needs.
    from .serialize import to_jsonable

    jobs = runner.jobs if runner is not None else 1
    spec = registry.get_spec(name)
    config = spec.make_config(seed=seed, overrides=overrides)
    config_payload = to_jsonable(config)
    used_seed = getattr(config, "seed", None)
    started = time.perf_counter()
    try:
        result, n_shards = _execute_spec(spec, config, runner)
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


def _execute_spec(spec, config, runner: Optional["Runner"]) -> Tuple[Any, int]:
    """Run one spec, sharding across this process and ``runner``'s
    workers when possible.

    Returns ``(result, n_shards)`` with ``n_shards == 0`` for
    unsharded execution.  Only a multi-task shard plan on a runner with
    ``jobs > 1`` dispatches (forking the workers on first use), so
    unshardable and single-shard runs never pay the fork.

    In-process execution goes through ``spec.run`` — the authoritative
    serial driver, free to share one workload across its shards (the
    identify driver builds once) — rather than mapping ``run_shard``
    task by task.  Both compose the same shards, so the result is
    bit-identical either way; single-task plans also stay in-process
    (sending one shard to one worker is pure overhead).  Dispatched
    shards take no timeout: a long shard is never killed, and the shard
    of a killed worker runs again instead of hanging the run.
    """
    if not spec.shardable:
        return spec.run(config), 0
    tasks = list(spec.shard(config))
    if not tasks:
        raise PipelineError(f"spec {spec.name!r} produced an empty shard plan")
    if runner is None or runner.jobs < 2 or len(tasks) < 2:
        return spec.run(config), len(tasks)
    getters = runner.gather(
        _shard_worker, [(spec.name, task) for task in tasks], timeout=None
    )
    return spec.merge(config, [get() for get in getters]), len(tasks)


class Runner:
    """Executes registered experiments and archives their artifacts.

    Parameters
    ----------
    jobs:
        Computing processes, this one included.  1 (default) runs
        everything in-process; ``N > 1`` forks ``N - 1`` persistent
        shard/experiment workers, and each fan-out computes one task in
        ``N`` in this process.  The workers are forked lazily on the
        first parallel run and reused until :meth:`close` (Runners also
        work as context managers, and a finalizer kills the workers of
        abandoned instances).
    store:
        Optional :class:`~repro.pipeline.store.ArtifactStore`; when set,
        every run (including failures) is archived as JSON + text.
    """

    def __init__(self, jobs: int = 1, store: Optional[ArtifactStore] = None):
        if jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.store = store
        self._lock = threading.RLock()  # guards the worker slots
        self._workers: List[_Worker] = []
        self._closed = False
        weakref.finalize(self, _stop_all, self._workers)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    #
    # The registry/spec machinery below is the experiment pipeline's
    # entry point; the methods here are the workers' public surface for
    # callers with their own task shapes — the serving front-end
    # (:mod:`repro.serving`) fans its shard tasks out through
    # :meth:`gather`, reusing the persistent workers instead of growing
    # a second pool implementation.

    def ensure_pool(self) -> None:
        """Fork the ``jobs - 1`` workers now, if they are not running.

        A no-op when ``jobs == 1`` — callers run their tasks in-process
        then.  Forked workers inherit the modules this process has
        loaded.  Experiment runs resolve their specs before the first
        fork, so their workers inherit the loaded registry; the serving
        tree never loads it, so neither do its workers.  Raises
        PipelineError once the runner is closed.
        """
        with self._lock:
            self._require_open()
            while len(self._workers) < self.jobs - 1:
                self._workers.append(_fork_worker())

    def worker_pids(self) -> frozenset:
        """The current workers' pids (empty before the first fork)."""
        with self._lock:
            return frozenset(worker.pid for worker in self._workers)

    def _replace(self, worker: _Worker) -> None:
        """Stop ``worker`` and fork its successor into its slot, once.

        A closed runner has emptied its slots, so nothing forks then.
        """
        worker.stop()
        with self._lock:
            if worker in self._workers:
                self._workers[self._workers.index(worker)] = _fork_worker()

    def _send(self, message: _Message) -> _Handle:
        """Send ``message`` to the worker with the fewest pending tasks,
        replacing a dead one on the way."""
        while True:
            with self._lock:
                self.ensure_pool()
                worker = min(self._workers, key=lambda w: len(w.pending))
            handle = _Handle(self, worker)
            if worker.post(handle, message):
                return handle
            self._replace(worker)

    def submit(self, fn, task) -> _Handle:
        """Send ``fn(task)`` to the worker with the fewest pending tasks.

        ``fn`` must be a module-level callable (pickled by reference);
        returns a handle whose ``get(timeout=None)`` returns the result.
        Every :class:`~repro.backend.shared.SharedArraySpec` in ``task``
        goes to the worker as its descriptor, so its arena must stay
        open until the task is sent; a spec whose arena has closed
        raises FileNotFoundError here, and one task carries at most 253
        segments.  Unsupervised: a lost task raises :class:`WorkerLost`
        from ``get`` (use :meth:`gather` to recover it).  Requires an
        open Runner with ``jobs >= 2`` — a single-job Runner has no
        workers to submit to, and silently running inline would hide
        the caller's dispatch bug.
        """
        self._require_pool()
        return self._send(_task_message(fn, task))

    def _require_pool(self) -> None:
        """Refuse pool dispatch on a single-job or closed Runner."""
        if self.jobs < 2:
            raise PipelineError(
                "submit() and gather() need worker processes; construct the "
                "Runner with jobs >= 2 or run the task in-process"
            )
        self._require_open()

    def _require_open(self) -> None:
        """Refuse dispatch once :meth:`close` ran: nothing forks after it."""
        if self._closed:
            raise PipelineError("the runner is closed")

    def gather(
        self,
        fn,
        tasks,
        *,
        timeout: Optional[float] = SUPERVISED_TIMEOUT_S,
        retries: int = 2,
    ) -> List[Callable[[], Any]]:
        """Fan ``fn`` out over ``tasks``; one supervised getter per task.

        The one supervised fan-out every pool caller shares (serving
        shards, logicnet shards, sharded experiments).  The caller is
        one of the ``jobs``: the tasks with ``index % jobs == 0`` stay
        here, and each runs as ``fn(task)`` when its getter is called —
        the in-process last resort's call, so no fault point fires and
        no timeout applies.  Every other task is sent before any getter
        blocks, so the workers overlap the caller's share, and the
        getters come back in task order.
        Calling one blocks for its task's result.  A task whose worker
        died (EOF on its socket) or outlived ``timeout`` seconds (its
        worker is SIGKILLed and replaced; None waits for ever) is lost:
        it is resubmitted up to ``retries`` times and then runs
        in-process, where ``fn``'s fault point does not fire — so a
        caller that keeps the task's operands alive until its getters
        return always gets the undisturbed result.  A task lost to
        :meth:`close` runs in-process at once.
        A task's own exception is re-raised unchanged.  Same contract as
        :meth:`submit` (module-level ``fn``, ``jobs >= 2``, open).
        Call each getter once: it lets go of its task's reply as it
        returns, so the reply lives only as long as the caller keeps it.
        """
        self._require_pool()
        tasks = list(tasks)
        handles = [
            None if index % self.jobs == 0 else self.submit(fn, task)
            for index, task in enumerate(tasks)
        ]

        def get(index):
            handle, handles[index] = handles[index], None
            task = tasks[index]
            resubmits = retries
            while handle is not None:
                try:
                    return handle.get(timeout)
                except WorkerLost:
                    if not resubmits or self._closed:
                        break
                    resubmits -= 1
                    handle = self.submit(fn, task)
            return fn(task)

        return [functools.partial(get, index) for index in range(len(tasks))]

    def close(self) -> None:
        """Kill and reap every worker, for good (idempotent; runs stay
        archived).

        Nothing forks after it: :meth:`ensure_pool`, :meth:`submit` and
        :meth:`gather` raise PipelineError, and a getter whose worker
        this kills runs its task in-process.  The
        slots empty under the lock that guards replacement, and the
        kills happen outside it: a reader woken by a kill takes that
        lock to replace its worker.
        """
        with self._lock:
            self._closed = True
            stopping = list(self._workers)
            self._workers.clear()
        _stop_all(stopping)

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
        """Run one experiment (sharded across the workers when it can be)."""
        record, result = _execute_record(name, seed, overrides, self)
        return self._finalize(record, result)

    def run_many(
        self,
        names: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
    ) -> List[RunReport]:
        """Run several experiments (default: all), continuing past failures.

        With ``jobs > 1`` the experiments themselves are the worker
        tasks, gathered with no timeout (an experiment of a killed
        worker runs again); a manifest summarising the whole run is
        written when a store is attached.
        """
        names = list(names) if names is not None else registry.spec_names()
        for name in names:
            registry.get_spec(name)  # fail fast on unknown names
        tasks = [(name, seed, {}) for name in names]
        if self.jobs > 1 and len(names) > 1:
            getters = self.gather(_experiment_worker, tasks, timeout=None)
            records = [get() for get in getters]
            reports = [self._finalize(record, None) for record in records]
        else:
            pairs = [_execute_record(*task, self) for task in tasks]
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
