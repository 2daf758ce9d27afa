"""Benchmark: batched identification throughput vs the per-train loop.

The backend layer's claim: lifting the spike-train hot paths onto
:class:`~repro.backend.batch.SpikeTrainBatch` turns N Python-side
receiver calls into one vectorised pass against the whole basis.
Measured here on the serving-shaped workload from the ROADMAP: 256
single-valued wires identified against a 16-element basis on the
paper's 65 536-sample grid — per-train loop vs
:meth:`CoincidenceCorrelator.identify_batch` — plus the batched
membership query path and the pipeline's sharded runner (serial vs
``jobs=2`` on the ``identify`` spec, asserting bit-identity).  The
acceptance bar is a ≥ 5× speedup for the batched identification pass.

Every bench records a machine-readable entry in
``benchmarks/BENCH_batch.json`` (schema: experiment, config, seconds,
speedup) so the perf trajectory is tracked across PRs.
"""

import os
import pickle

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch
from repro.experiments import identify as identify_mod
from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.pipeline import Runner, to_jsonable
from repro.search.superposition_search import SuperpositionDatabase
from repro.spikes.generators import poisson_train
from repro.units import paper_white_grid

N_WIRES = 256
BASIS_SIZE = 16
#: Mean inter-spike interval of the paper's white source (Table 2).
SOURCE_ISI_SAMPLES = 28


@pytest.fixture(scope="module")
def workload():
    grid = paper_white_grid()
    rng = np.random.default_rng(2016)
    source = poisson_train(
        rate_hz=1.0 / (SOURCE_ISI_SAMPLES * grid.dt), grid=grid, rng=rng
    )
    output = DemuxOrthogonator.with_outputs(BASIS_SIZE).transform(source)
    basis = HyperspaceBasis.from_orthogonator(output)
    elements = rng.integers(BASIS_SIZE, size=N_WIRES)
    wires = [basis.encode(int(e)) for e in elements]
    return basis, wires, elements


def test_batched_identification_speedup(workload, archive, bench_record, best_of):
    basis, wires, elements = workload
    correlator = CoincidenceCorrelator(basis)
    # In the batched pipeline wires live in batch form end to end
    # (encode_batch / transform_batch emit batches), so the batch is the
    # pass's natural input, not part of the measured work.
    batch = SpikeTrainBatch.from_trains(wires)

    def per_train_loop():
        return [correlator.identify(wire) for wire in wires]

    def batched_pass():
        return correlator.identify_batch(batch)

    scalar_results = per_train_loop()
    batch_results = batched_pass()
    assert batch_results.results() == scalar_results  # bit-identical receivers
    assert batch_results.elements.tolist() == elements.tolist()

    loop_s = best_of(per_train_loop)
    batch_s = best_of(batched_pass)
    speedup = loop_s / batch_s

    per_wire_loop_us = 1e6 * loop_s / N_WIRES
    per_wire_batch_us = 1e6 * batch_s / N_WIRES
    text = "\n".join(
        [
            "Batched identification throughput "
            f"({N_WIRES} wires, M={BASIS_SIZE}, T={basis.grid.n_samples})",
            f"  per-train loop : {1e3 * loop_s:8.3f} ms  "
            f"({per_wire_loop_us:7.2f} us/wire)",
            f"  batched pass   : {1e3 * batch_s:8.3f} ms  "
            f"({per_wire_batch_us:7.2f} us/wire)",
            f"  speedup        : {speedup:8.1f}x",
        ]
    )
    archive("batch_throughput.txt", text)
    bench_record(
        "identify_batch",
        {
            "n_wires": N_WIRES,
            "basis_size": BASIS_SIZE,
            "n_samples": basis.grid.n_samples,
        },
        batch_s,
        speedup,
    )

    assert speedup >= 5.0, (
        f"batched identification only {speedup:.1f}x faster than the "
        f"per-train loop (required: 5x)"
    )


def test_batched_membership_queries(workload, archive, bench_record, best_of):
    basis, _wires, _elements = workload
    database = SuperpositionDatabase(basis)
    database.load(range(0, BASIS_SIZE, 2))
    states = list(range(BASIS_SIZE)) * (N_WIRES // BASIS_SIZE)

    def per_query_loop():
        return [database.query(s) for s in states]

    def batched_pass():
        return database.query_batch(states)

    assert batched_pass() == per_query_loop()

    loop_s = best_of(per_query_loop)
    batch_s = best_of(batched_pass)
    text = "\n".join(
        [
            f"Batched membership queries ({len(states)} queries, M={BASIS_SIZE})",
            f"  per-query loop : {1e3 * loop_s:8.3f} ms",
            f"  batched pass   : {1e3 * batch_s:8.3f} ms",
            f"  speedup        : {loop_s / batch_s:8.1f}x",
        ]
    )
    archive("batch_queries.txt", text)
    bench_record(
        "membership_queries_batch",
        {"n_queries": len(states), "basis_size": BASIS_SIZE},
        batch_s,
        loop_s / batch_s,
    )
    assert batch_s < loop_s


#: Sharded-runner workload: heavy enough that per-shard identification
#: work dominates the per-worker workload rebuild and pool overhead.
SHARDED_CONFIG = {
    "n_wires": 2048,
    "basis_size": 16,
    "n_trials": 256,
    "n_shards": 4,
}
SHARD_JOBS = 2


def test_sharded_runner_bit_identical_and_timed(archive, bench_record):
    """Serial vs sharded execution of the identify spec.

    Each of the persistent pool's workers rebuilds the workload from
    the seed in its shard task and identifies its own rows; at this
    shape the rebuild is small next to the identification work, so
    the two-job run beats the serial one.  Bit-identity holds on any
    machine (the shard plan lives in the config); the wall-clock speedup
    additionally needs real cores, so the speedup assertion is gated
    on the host's CPU count while the measured numbers are recorded
    unconditionally.  The pool is warmed with a throwaway run first —
    the persistent pool is a per-Runner cost, not a per-run cost, and
    the bench measures the steady state a serving deployment sees.
    """
    serial = Runner(jobs=1).run("identify", overrides=SHARDED_CONFIG)
    with Runner(jobs=SHARD_JOBS) as runner:
        runner.run("identify", overrides=dict(SHARDED_CONFIG, n_trials=1))
        sharded = runner.run("identify", overrides=SHARDED_CONFIG)
    assert serial.ok and sharded.ok
    assert to_jsonable(serial.result) == to_jsonable(sharded.result)
    assert serial.rendered == sharded.rendered

    speedup = serial.wall_seconds / sharded.wall_seconds
    text = "\n".join(
        [
            "Sharded identification through the pipeline runner "
            f"({SHARDED_CONFIG['n_wires']} wires, "
            f"{SHARDED_CONFIG['n_trials']} starts, "
            f"{SHARDED_CONFIG['n_shards']} shards)",
            f"  serial (jobs=1)        : {serial.wall_seconds:8.3f} s",
            f"  sharded (jobs={SHARD_JOBS})       : "
            f"{sharded.wall_seconds:8.3f} s",
            f"  speedup                : {speedup:8.2f}x "
            f"(on {os.cpu_count()} cpu(s))",
            "  bit-identical          : True",
        ]
    )
    archive("sharded_runner.txt", text)
    bench_record(
        "identify_sharded",
        dict(SHARDED_CONFIG, jobs=SHARD_JOBS),
        sharded.wall_seconds,
        speedup,
    )

    if (os.cpu_count() or 1) >= 2:
        assert speedup > 1.0, (
            f"sharded run only {speedup:.2f}x the serial run with "
            f"{os.cpu_count()} cpus"
        )


def test_shard_dispatch_transport_and_compute(archive, bench_record, best_of):
    """Shard dispatch: transport bytes *and* real per-shard work.

    What a worker pays per shard is **receive + compute**, so that is
    what the recorded seconds measure: unpickle the shard task (a
    config and a row range), rebuild the workload from its seed and
    identify the shard's rows (``identify._run_shard``).  The
    reference ships the shard's dense raster rows through pickle and
    computes from them, its basis already at hand.  Transport bytes
    per shard are reported alongside — as payload numbers, not as a
    wall-time claim.
    """
    config = identify_mod.IdentifyConfig(**SHARDED_CONFIG)
    basis, wires, elements, start_slots = identify_mod._workload(config)
    shard = identify_mod._shards(config)[0]
    rows = np.arange(shard.row_start, shard.row_stop)
    raster_blob = pickle.dumps(wires.select_rows(rows).raster)
    task_blob = pickle.dumps(shard)
    reduction = len(raster_blob) / len(task_blob)
    expected = elements[rows]

    def unpickle_and_compute():
        received = SpikeTrainBatch.from_raster(
            pickle.loads(raster_blob), wires.grid, copy=False
        )
        return identify_mod._identify_rows(
            basis, received, expected, start_slots,
            shard.row_start, shard.row_stop,
        )

    def rebuild_and_compute():
        return identify_mod._run_shard(pickle.loads(task_blob))

    via_task = rebuild_and_compute()
    via_raster = unpickle_and_compute()
    # Bit-identical shard outcome whatever the transport.
    assert via_task.identifications == via_raster.identifications
    assert via_task.correct == via_raster.correct
    assert via_task.misses == via_raster.misses
    assert np.array_equal(via_task.latencies, via_raster.latencies)
    task_s = best_of(rebuild_and_compute)
    raster_s = best_of(unpickle_and_compute)

    speedup = raster_s / task_s
    text = "\n".join(
        [
            "Shard dispatch "
            f"({SHARDED_CONFIG['n_wires']} wires, "
            f"{SHARDED_CONFIG['n_trials']} starts, "
            f"{SHARDED_CONFIG['n_shards']} shards)",
            f"  pickled raster rows    : {len(raster_blob):12,d} bytes/shard",
            f"  pickled shard task     : {len(task_blob):12,d} bytes/shard",
            f"  transport reduction    : {reduction:10.0f}x (payload, "
            "not wall time)",
            f"  rebuild+compute (task) : {1e3 * task_s:10.3f} ms/shard",
            f"  unpickle+compute (dense): {1e3 * raster_s:9.3f} ms/shard",
            f"  per-shard speedup      : {speedup:10.2f}x",
        ]
    )
    archive("shard_dispatch.txt", text)
    bench_record(
        "identify_shard_dispatch",
        dict(SHARDED_CONFIG, raster_bytes=len(raster_blob),
             task_bytes=len(task_blob),
             transport_reduction=round(reduction, 1)),
        task_s,
        speedup,
    )

    assert reduction >= 10.0, (
        f"shard task only {reduction:.1f}x smaller than the pickled "
        f"raster (required: 10x)"
    )
    assert speedup >= 1.0, (
        f"rebuild+compute slower than the pickled-raster pipeline "
        f"({speedup:.2f}x)"
    )
