"""Load generation: a closed loop and an open loop, plus in-memory spans.

One process, no threads.  The closed loop sends a request only after
the previous reply arrived, on one blocking ``ServingClient``.  The open
loop sends on a fixed schedule over pipelined ``AsyncServingClient``
connections and times every request from the moment it was *due*, so a
stall anywhere (server, client or generator) is charged to every
request it delayed; ``lags`` records how late each send actually left.

When a ``Tracer`` is given, every other request is traced: its client
call becomes a span with children for the server wall and each shard
kernel, taken from the reply.  The untraced half gives the same phase's
untraced latency, so the tracing overhead is measured side by side.

Both loops pause this process's cyclic garbage collector for the phase:
the generator's own growing sample lists otherwise trigger multi-ms
full collections that land in the measured latencies (they tripled the
rpc_small_open p99 and pushed its generator lag past 2 ms).  The server
keeps its collector.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ServingError


@dataclass
class Sample:
    """One completed request."""

    latency: float
    wall: float  # server DONE wall_seconds
    shard_walls: List[float]
    transport: str
    traced: bool


@dataclass
class Phase:
    """Everything one measured phase observed."""

    samples: List[Sample] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    seconds: float = 0.0
    example: Any = None  # the first reply to the workload's first item

    def record(
        self, reply, latency: float, ok: bool, traced: bool, first_item: bool
    ) -> Sample:
        if not ok:
            self.mismatched += 1
        if first_item and self.example is None:
            self.example = reply
        sample = Sample(
            latency=latency,
            wall=float(reply.summary["wall_seconds"]),
            shard_walls=[float(s["wall_seconds"]) for s in reply.shards],
            transport=str(reply.summary["transport"]),
            traced=traced,
        )
        self.samples.append(sample)
        return sample


class Tracer:
    """Spans kept in memory and written out once, at the end.

    A span is ``{id, request, name, start, end, parent}`` with times in
    seconds since the tracer was created.  Durations the server reports
    in its reply carry no timestamps of their own; their spans end
    where their parent ends.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def add(self, name, start, end, parent=None, request=None) -> int:
        span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "request": request if request is not None else next(self._requests),
                "name": name,
                "start": start - self._epoch,
                "end": end - self._epoch,
                "parent": parent,
            }
        )
        return span_id

    def request(self, start, end, sample: Sample, parallel: bool) -> None:
        """One client call and the server wall and shard kernels inside it."""
        request = next(self._requests)
        root = self.add("client.call", start, end, request=request)
        server = self.add(
            "server.wall", end - sample.wall, end, root, request
        )
        cursor = end
        for wall in reversed(sample.shard_walls):
            self.add("kernel.shard", cursor - wall, cursor, server, request)
            if not parallel:
                cursor -= wall

    def replays(self, spans: Sequence[tuple]) -> None:
        for name, start, end in spans:
            self.add(f"replay.{name}", start, end)

    def dump(self, path, **meta) -> None:
        with open(path, "w") as handle:
            json.dump({**meta, "spans": self.spans}, handle)


@contextlib.contextmanager
def gc_paused():
    """Collect once, then keep the cyclic collector off until exit."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_loop(
    client_factory: Callable[[], Any],
    workload,
    items: Sequence,
    *,
    seconds: float,
    min_samples: int = 0,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Serial requests on one connection for ``seconds``.

    Runs past ``seconds`` until ``min_samples`` untraced samples exist
    (the tail percentile needs them), but never past three times
    ``seconds``.  ``lags`` holds the generator's think time between a
    reply and the next send.
    """
    phase = Phase()
    untraced = 0
    last = None
    with gc_paused():
        client = client_factory()
        started = time.perf_counter()
        soft_end, hard_end = started + seconds, started + 3 * seconds
        try:
            for index in itertools.count():
                now = time.perf_counter()
                if now >= hard_end or (now >= soft_end and untraced >= min_samples):
                    break
                item = items[index % len(items)]
                traced = tracer is not None and index % 2 == 0
                phase.attempted += 1
                sent = time.perf_counter()
                if last is not None:
                    phase.lags.append(sent - last)
                try:
                    reply = workload.call(client, item)
                except (ServingError, OSError):
                    phase.failed += 1
                    client.close()
                    client = client_factory()
                    last = None
                    continue
                done = time.perf_counter()
                sample = phase.record(
                    reply, done - sent, workload.check(reply, item), traced,
                    first_item=index % len(items) == 0,
                )
                if traced:
                    tracer.request(sent, done, sample, workload.parallel_shards)
                else:
                    untraced += 1
                last = time.perf_counter()
        finally:
            client.close()
        phase.seconds = time.perf_counter() - started
    return phase


async def open_loop(
    issue: Callable[[int], Any],
    *,
    rate: float,
    seconds: float,
    on_reply: Callable[[int, float, float, Any], None],
    on_failure: Callable[[int], None],
    lags: List[float],
) -> float:
    """Send request ``i`` at ``start + i / rate`` for ``seconds``.

    ``issue(i)`` returns the request's awaitable; ``on_reply(i, due,
    sent, reply)`` runs when it completes, with latency meant to be
    counted from ``due``.  ``lags`` receives ``sent - due`` per request.
    Requests still unanswered 30 s after the last send count as failed.
    Returns the phase wall time (schedule plus the drain of stragglers).
    """
    period = 1.0 / rate
    count = int(round(seconds * rate))
    tasks = set()

    async def one(index: int, due: float) -> None:
        sent = time.perf_counter()
        lags.append(sent - due)
        try:
            reply = await issue(index)
        except (ServingError, OSError):
            on_failure(index)
            return
        on_reply(index, due, sent, reply)

    start = time.perf_counter()
    for index in range(count):
        due = start + index * period
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(one(index, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        _done, pending = await asyncio.wait(set(tasks), timeout=30.0)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for task in pending:
            on_failure(-1)
    return time.perf_counter() - start


def open_phase(
    client_factory,
    workload,
    items: Sequence,
    *,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """``open_loop`` against the server over ``workload.connections``."""
    phase = Phase()

    async def main() -> None:
        clients = [await client_factory() for _ in range(workload.connections)]
        try:

            def issue(index):
                phase.attempted += 1
                client = clients[index % len(clients)]
                return workload.acall(client, items[index % len(items)])

            def on_reply(index, due, sent, reply):
                done = time.perf_counter()
                traced = tracer is not None and index % 2 == 0
                item = items[index % len(items)]
                sample = phase.record(
                    reply, done - due, workload.check(reply, item), traced,
                    first_item=index % len(items) == 0,
                )
                if traced:
                    tracer.request(due, done, sample, workload.parallel_shards)

            def on_failure(index):
                phase.failed += 1

            phase.seconds = await open_loop(
                issue, rate=workload.rate, seconds=seconds,
                on_reply=on_reply, on_failure=on_failure, lags=phase.lags,
            )
        finally:
            for client in clients:
                await client.aclose()

    with gc_paused():
        asyncio.run(main())
    return phase
