"""Benchmark: end-to-end serving throughput and request latency.

The serving layer's claim is not a kernel speedup — it is that the RPC
boundary adds only framing and transport on top of the packed compute
path.  Three shapes are measured against one embedded
:class:`~repro.serving.server.SpikeServer`:

* ``serving_identify_rpc`` — the serial shape (256 wires, M=16,
  T=65536, one request at a time): whole-request wall time (encode →
  socket → from_packed → compute → binary result frame → merge) with
  the in-process ``identify_batch`` wall time of the same batch as
  the no-RPC baseline.  Served on the fast path with binary result
  frames.
* ``serving_identify_rpc_concurrent`` — the production shape (many
  connections × pipelined streams of small 16-wire requests, request
  coalescing on): per-request latency under concurrency, where the
  server stacks compatible requests into wide micro-batches.  The
  gate is that p50 stays within ~3× of the in-process compute of one
  *round* of in-flight work (closed-loop streams each keep a request
  outstanding, so a saturated request waits roughly a round) — i.e.
  the serving layer adds at most a couple of compute-times of
  overhead even at load — and the recorded req/s is the throughput
  floor ``compare_bench.py`` holds future runs to.
* ``serving_identify_rpc_under_faults`` — sequential two-shard
  requests against a ``jobs=2`` server while ~1% of the shards its
  pool worker computes SIGKILL it: supervision resubmits the lost
  shard, and the median request must not pay for it.

The first two entries record ``seconds`` as the **best-of** request
latency — the same minimum-damps-scheduler-noise methodology every
gated entry uses (p50 would make the cross-machine
``compare_bench.py`` gate fire on TCP/thread scheduling noise);
``speedup`` is baseline/best — the fraction of a request that is
compute rather than serving overhead (1.0 would mean a free RPC
layer).  p50, p99 and requests/sec travel in the config blocks.
"""

import asyncio
import sys
import time

import numpy as np
import pytest

from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.runner import Runner
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import ServerConfig, ServerThread, build_serving_basis
from repro.testing import faults

N_WIRES = 256
BASIS_SIZE = 16
N_SAMPLES = 65536
SOURCE_ISI_SAMPLES = 28
N_REQUESTS = 30

# Production-shaped concurrent load: many connections, each running
# several pipelined streams of small requests.
N_CLIENTS = 4
STREAMS_PER_CLIENT = 8
REQUESTS_PER_STREAM = 12
WIRES_PER_REQUEST = 16


@pytest.fixture(scope="module", autouse=True)
def tight_gil_switch():
    """Shorten the GIL switch interval around the serving benchmarks.

    The bench colocates the client thread(s) and the server's event
    loop in one process (``ServerThread``), so every response puts the
    interpreter's thread handoff in the measured path — and the
    default 5 ms switch interval turns each handoff into a
    multi-millisecond stall that a cross-process deployment never
    sees.  0.1 ms keeps the handoff cost proportionate to the RPC
    itself without touching the serving code under test.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def serving_workload():
    config = ServerConfig(
        seed=2016,
        basis_size=BASIS_SIZE,
        n_samples=N_SAMPLES,
        source_isi_samples=SOURCE_ISI_SAMPLES,
        jobs=1,
    )
    basis = build_serving_basis(config)
    rng = np.random.default_rng(2016)
    elements = rng.integers(BASIS_SIZE, size=N_WIRES)
    wires = basis.as_batch().select_rows(elements)
    return config, basis, wires, elements


def test_serving_identify_rpc(serving_workload, archive, bench_record, best_of):
    config, basis, wires, elements = serving_workload
    correlator = CoincidenceCorrelator(basis)
    local = correlator.identify_batch(wires, missing="none")
    # The no-RPC baseline: the same batched pass, in process.
    local_s = best_of(lambda: correlator.identify_batch(wires, missing="none"))

    with ServerThread(config) as handle:
        with ServingClient(handle.host, handle.port) as client:
            reply = client.identify(wires)  # warm-up + correctness
            assert np.array_equal(reply.elements, local.elements)
            assert np.array_equal(reply.elements, elements)
            assert reply.summary["server_residency"]["raster"] is False

            latencies = []
            span_start = time.perf_counter()
            for _request in range(N_REQUESTS):
                started = time.perf_counter()
                client.identify(wires)
                latencies.append(time.perf_counter() - started)
            span = time.perf_counter() - span_start

    latencies = np.sort(np.array(latencies))
    best = float(latencies[0])
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))
    requests_per_second = N_REQUESTS / span
    wires_per_second = requests_per_second * N_WIRES
    compute_fraction = local_s / best

    text = "\n".join(
        [
            "Serving front-end, end-to-end identify RPC "
            f"({N_WIRES} wires, M={BASIS_SIZE}, T={N_SAMPLES}, "
            f"{N_REQUESTS} requests)",
            f"  request best   : {1e3 * best:8.3f} ms",
            f"  request p50    : {1e3 * p50:8.3f} ms",
            f"  request p99    : {1e3 * p99:8.3f} ms",
            f"  throughput     : {requests_per_second:8.1f} req/s "
            f"({wires_per_second:9.0f} wires/s)",
            f"  in-process pass: {1e3 * local_s:8.3f} ms "
            f"(compute fraction of best: {compute_fraction:.2f})",
        ]
    )
    archive("serving_identify_rpc.txt", text)
    bench_record(
        "serving_identify_rpc",
        {
            "n_wires": N_WIRES,
            "basis_size": BASIS_SIZE,
            "n_samples": N_SAMPLES,
            "requests": N_REQUESTS,
            "p50_seconds": round(p50, 6),
            "p99_seconds": round(p99, 6),
            "requests_per_second": round(requests_per_second, 1),
            "local_seconds": round(local_s, 6),
        },
        seconds=best,
        speedup=compute_fraction,
    )
    # The RPC layer must not swamp the compute it fronts: at this
    # payload size the request should stay within ~50x of the raw
    # batched pass even on a noisy CI machine.
    assert best < local_s * 50 + 0.05


def test_serving_identify_rpc_concurrent(
    serving_workload, archive, bench_record, best_of
):
    config, basis, wires, elements = serving_workload
    correlator = CoincidenceCorrelator(basis)

    # Each stream owns one small batch sliced from the big wire set.
    rng = np.random.default_rng(7)
    n_streams = N_CLIENTS * STREAMS_PER_CLIENT
    streams = []
    for _ in range(n_streams):
        rows = rng.integers(0, N_WIRES, size=WIRES_PER_REQUEST)
        streams.append((wires.select_rows(rows), elements[rows]))

    # The fast-path baseline: one small batch, computed in process.
    small_batch = streams[0][0]
    local_s = best_of(
        lambda: correlator.identify_batch(small_batch, missing="none")
    )

    serve_config = ServerConfig(
        seed=config.seed,
        basis_size=config.basis_size,
        n_samples=config.n_samples,
        source_isi_samples=config.source_isi_samples,
        jobs=1,
        coalesce_window=0.002,
        coalesce_max_wires=128,
    )

    latencies = []

    async def stream(client, batch, expected):
        loop = asyncio.get_running_loop()
        for _request in range(REQUESTS_PER_STREAM):
            started = loop.time()
            reply = await client.identify(batch)
            latencies.append(loop.time() - started)
            assert np.array_equal(reply.elements, expected)

    async def drive(host, port):
        clients = [
            await AsyncServingClient.open(host, port)
            for _client in range(N_CLIENTS)
        ]
        try:
            await asyncio.gather(
                *[
                    stream(
                        clients[index % N_CLIENTS],
                        batch,
                        expected,
                    )
                    for index, (batch, expected) in enumerate(streams)
                ]
            )
            return await clients[0].stats()
        finally:
            for client in clients:
                await client.aclose()

    with ServerThread(serve_config) as handle:
        # Warm-up round (connection setup, first from_packed, JIT-warm
        # caches) before the measured span.
        asyncio.run(drive(handle.host, handle.port))
        latencies.clear()
        span_start = time.perf_counter()
        stats = asyncio.run(drive(handle.host, handle.port))
        span = time.perf_counter() - span_start

    n_requests = n_streams * REQUESTS_PER_STREAM
    latencies = np.sort(np.array(latencies))
    assert latencies.size == n_requests
    best = float(latencies[0])
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))
    requests_per_second = n_requests / span
    wires_per_second = requests_per_second * WIRES_PER_REQUEST
    compute_fraction = local_s / best

    text = "\n".join(
        [
            "Serving front-end, concurrent identify RPC "
            f"({N_CLIENTS} connections x {STREAMS_PER_CLIENT} streams, "
            f"{WIRES_PER_REQUEST} wires/request, M={BASIS_SIZE}, "
            f"T={N_SAMPLES}, {n_requests} requests, coalescing on)",
            f"  request best   : {1e3 * best:8.3f} ms",
            f"  request p50    : {1e3 * p50:8.3f} ms",
            f"  request p99    : {1e3 * p99:8.3f} ms",
            f"  throughput     : {requests_per_second:8.1f} req/s "
            f"({wires_per_second:9.0f} wires/s)",
            f"  coalescing     : {stats['coalesced_requests']} requests in "
            f"{stats['coalesced_batches']} batches",
            f"  in-process pass: {1e3 * local_s:8.3f} ms "
            f"(compute fraction of best: {compute_fraction:.2f})",
        ]
    )
    archive("serving_identify_rpc_concurrent.txt", text)
    bench_record(
        "serving_identify_rpc_concurrent",
        {
            "connections": N_CLIENTS,
            "streams": n_streams,
            "wires_per_request": WIRES_PER_REQUEST,
            "basis_size": BASIS_SIZE,
            "n_samples": N_SAMPLES,
            "requests": n_requests,
            "p50_seconds": round(p50, 6),
            "p99_seconds": round(p99, 6),
            "requests_per_second": round(requests_per_second, 1),
            "coalesced_batches": int(stats["coalesced_batches"]),
            "local_seconds": round(local_s, 6),
        },
        seconds=best,
        speedup=compute_fraction,
    )
    # The tentpole gate: closed-loop streams keep one request in
    # flight each, so under saturation every request waits roughly one
    # full round of in-flight work — the in-process baseline for a
    # round is ``n_streams`` times the one-batch pass.  p50 within ~3x
    # of that bounds the serving layer's per-request overhead at a
    # couple of compute-times even at full load; the additive floor
    # absorbs the coalescing window and scheduler noise on shared CI
    # machines.
    assert p50 < 3 * n_streams * local_s + 0.008
    # Coalescing must actually be engaging under this load.
    assert stats["coalesced_batches"] < n_requests


# --- fault-tolerance overhead -----------------------------------------

FAULT_N_SAMPLES = 4096
FAULT_BASIS_SIZE = 8
FAULT_REQUESTS = 250
FAULT_KILL_RATE = 0.01
FAULT_JOBS = 2


def test_serving_identify_rpc_under_faults(archive, bench_record):
    """Request latency under injected pool-worker kills.

    The same sequential two-shard identify load is driven twice against
    one ``jobs=2`` server with the fast path off, so every request
    takes the ``shared-arena`` route, shard 0 in the server and shard 1
    in its one pool worker — once calm, once with
    ``serving.run_shard=kill:p=0.01`` armed, so ~1% of the pooled
    shards SIGKILL the worker computing them.  Supervision resubmits each
    lost shard and the pool replaces the dead worker.  The gate: the
    p50 under faults stays within 2x the fault-free p50 (plus a small
    additive floor for sub-millisecond noise) — fault tolerance is
    overhead-free for the requests that hit no fault, and the killed
    shards land in the tail, not the median.  ``seconds`` records the
    faulted p50 (the quantity the gate protects), unlike the best-of
    latency entries above.
    """
    config = ServerConfig(
        seed=2016,
        basis_size=FAULT_BASIS_SIZE,
        n_samples=FAULT_N_SAMPLES,
        source_isi_samples=16,
        jobs=FAULT_JOBS,
        fast_path_bytes=0,
    )
    basis = build_serving_basis(config)
    rng = np.random.default_rng(2016)
    elements = rng.integers(FAULT_BASIS_SIZE, size=16)
    wires = basis.as_batch().select_rows(elements)
    expected = CoincidenceCorrelator(basis).identify_batch(
        wires, missing="none"
    )

    def drive():
        """Latencies, sorted, and every pool worker pid seen."""
        latencies = []
        with Runner(jobs=FAULT_JOBS) as runner:
            with ServerThread(config, runner) as handle:
                seen = set(runner.worker_pids())
                with ServingClient(
                    handle.host, handle.port, timeout=30.0
                ) as client:
                    for _warm in range(5):
                        client.identify(wires, n_shards=FAULT_JOBS)
                    for _request in range(FAULT_REQUESTS):
                        started = time.perf_counter()
                        reply = client.identify(wires, n_shards=FAULT_JOBS)
                        latencies.append(time.perf_counter() - started)
                        assert reply.summary["transport"] == "shared-arena"
                        assert np.array_equal(
                            reply.elements, expected.elements
                        )
                        seen |= runner.worker_pids()
        return np.sort(np.array(latencies)), seen

    faults.disarm()
    calm, _calm_pids = drive()
    try:
        # Armed before the pool forks so every worker inherits it.
        faults.arm(f"serving.run_shard=kill:p={FAULT_KILL_RATE}")
        faulted, pids = drive()
    finally:
        faults.disarm()

    calm_p50 = float(np.percentile(calm, 50))
    p50 = float(np.percentile(faulted, 50))
    p99 = float(np.percentile(faulted, 99))
    # Each replacement is a pid the pool did not start with; the pool
    # starts with one worker fewer than the jobs (the server computes).
    replaced = len(pids) - (FAULT_JOBS - 1)

    text = "\n".join(
        [
            "Serving front-end, identify RPC under injected pool-worker "
            f"kills ({FAULT_JOBS - 1} pool worker(s), {FAULT_JOBS} shards per "
            f"request, {FAULT_REQUESTS} requests, "
            f"{100 * FAULT_KILL_RATE:.0f}% kill rate per shard, "
            f"M={FAULT_BASIS_SIZE}, T={FAULT_N_SAMPLES})",
            f"  calm p50       : {1e3 * calm_p50:8.3f} ms",
            f"  faulted p50    : {1e3 * p50:8.3f} ms",
            f"  faulted p99    : {1e3 * p99:8.3f} ms",
            f"  workers replaced: {replaced}",
        ]
    )
    archive("serving_identify_rpc_under_faults.txt", text)
    bench_record(
        "serving_identify_rpc_under_faults",
        {
            "jobs": FAULT_JOBS,
            "n_shards": FAULT_JOBS,
            "requests": FAULT_REQUESTS,
            "kill_rate": FAULT_KILL_RATE,
            "basis_size": FAULT_BASIS_SIZE,
            "n_samples": FAULT_N_SAMPLES,
            "calm_p50_seconds": round(calm_p50, 6),
            "p50_seconds": round(p50, 6),
            "p99_seconds": round(p99, 6),
            "workers_replaced": replaced,
        },
        seconds=p50,
        speedup=calm_p50 / p50,
    )
    # The fault-tolerance gate: the median request must not pay for
    # the recovery machinery.  Killed shards (~1% of them) ride
    # resubmission into the tail; the p50 stays within 2x of calm.
    assert p50 < 2 * calm_p50 + 0.005, (
        f"faulted p50 {1e3 * p50:.3f} ms exceeds twice the calm p50 "
        f"{1e3 * calm_p50:.3f} ms"
    )
