"""Experiment S1: sharded batched identification (the serving workload).

The ROADMAP's serving direction made concrete: N single-valued wires
are identified against an M-element demux basis from many random
observation starts — the shape of a receiver fleet classifying live
traffic.  The workload exists for two reasons:

* it exercises the batched identification path
  (:meth:`~repro.logic.correlator.CoincidenceCorrelator.identify_batch`)
  at serving scale, reporting accuracy and latency percentiles;
* it is the pipeline's sharding reference: the shard plan splits the
  wire batch along its **batch axis** with
  :meth:`~repro.backend.batch.SpikeTrainBatch.select_rows`, and the
  merge is order-independent — so a sharded run is bit-identical to a
  serial one no matter how many workers execute it (the property
  ``benchmarks/bench_batch_throughput.py`` measures and
  ``BENCH_batch.json`` records).  Dispatch is zero-copy where the host
  allows: ``shard_shared`` materialises the workload once, exports it
  into a :class:`~repro.backend.shared.SharedArena`, and workers attach
  ``(handle, row_range)`` tasks; the rebuild shards remain as the
  fallback when shared memory is unavailable.

Run directly: ``python -m repro.experiments.identify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..backend import packed
from ..backend.batch import SharedBatchHandle, SpikeTrainBatch
from ..backend.shared import SharedArena, SharedArraySpec, attach_array
from ..hyperspace.basis import BasisArtifact, HyperspaceBasis
from ..logic.correlator import CoincidenceCorrelator
from ..noise.synthesis import make_rng
from ..orthogonator.demux import DemuxOrthogonator
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec
from ..spikes.generators import poisson_train
from ..units import format_time, paper_white_grid

__all__ = ["IdentifyConfig", "IdentifyResult", "run_identify"]


@dataclass(frozen=True)
class IdentifyConfig:
    """Config of the serving-shaped identification workload.

    ``n_shards`` is part of the config (not the worker count): the
    shard plan must be identical however many jobs execute it.
    """

    seed: int = 2016
    n_wires: int = 256
    basis_size: int = 16
    source_isi_samples: int = 28
    n_trials: int = 12
    n_shards: int = 4


@dataclass(frozen=True)
class IdentifyShard:
    """One rebuild shard: the wire rows ``[row_start, row_stop)``.

    Carries only the config — the worker reconstructs the workload
    deterministically.  The fallback when shared memory is unavailable.
    """

    config: IdentifyConfig
    row_start: int
    row_stop: int


@dataclass(frozen=True)
class IdentifySharedShard:
    """One zero-copy shard: ``(handles, row_range)`` instead of a rebuild.

    The basis artifact, the wire batch and the truth vector live in
    shared-memory segments owned by the dispatching runner's arena;
    this task pickles as metadata only, and the worker attaches the
    segments instead of re-running the workload synthesis.
    """

    row_start: int
    row_stop: int
    basis: BasisArtifact
    wires: SharedBatchHandle
    elements: SharedArraySpec
    start_slots: Tuple[int, ...]


@dataclass(frozen=True)
class IdentifyPart:
    """One shard's raw outcome (merged order-independently)."""

    row_start: int
    row_stop: int
    identifications: int
    correct: int
    misses: int
    latencies: np.ndarray  # decision latencies (samples) of the hits


@dataclass(frozen=True)
class IdentifyResult:
    """Accuracy and latency of the whole identification sweep."""

    n_wires: int
    basis_size: int
    n_trials: int
    n_shards: int
    identifications: int
    correct: int
    misses: int
    accuracy: float
    median_latency_samples: float
    p90_latency_samples: float
    dt: float

    def render(self) -> str:
        """Full text report."""
        return "\n".join(
            [
                f"S1 — batched identification ({self.n_wires} wires, "
                f"M={self.basis_size}, {self.n_trials} observation starts, "
                f"{self.n_shards} shards)",
                f"  identifications : {self.identifications} "
                f"({self.misses} misses)",
                f"  accuracy        : {self.accuracy:.4f}",
                f"  latency         : median "
                f"{format_time(self.median_latency_samples * self.dt)}, p90 "
                f"{format_time(self.p90_latency_samples * self.dt)}",
            ]
        )


def _workload(
    config: IdentifyConfig,
) -> Tuple[HyperspaceBasis, SpikeTrainBatch, np.ndarray, np.ndarray]:
    """Deterministic workload: basis, wire batch, truth, trial starts.

    Every rng draw happens in one fixed order from one seed, so every
    shard (in any process) rebuilds exactly the same arrays.
    """
    grid = paper_white_grid()
    rng = make_rng(config.seed)
    source = poisson_train(
        rate_hz=1.0 / (config.source_isi_samples * grid.dt), grid=grid, rng=rng
    )
    output = DemuxOrthogonator.with_outputs(config.basis_size).transform(source)
    basis = HyperspaceBasis.from_orthogonator(output)
    elements = rng.integers(config.basis_size, size=config.n_wires)
    wires = basis.as_batch().select_rows(elements)
    start_slots = rng.integers(0, grid.n_samples // 2, size=config.n_trials)
    return basis, wires, elements, start_slots


def _shards(config: IdentifyConfig) -> Tuple[IdentifyShard, ...]:
    """Split the wire rows into ``n_shards`` contiguous ranges."""
    return tuple(
        IdentifyShard(config, lo, hi)
        for lo, hi in packed.row_chunk_bounds(config.n_wires, config.n_shards)
    )


def _identify_rows(
    basis: HyperspaceBasis,
    rows: SpikeTrainBatch,
    expected: np.ndarray,
    start_slots: np.ndarray,
    row_start: int,
    row_stop: int,
) -> IdentifyPart:
    """Identify one shard's wire rows from every observation start.

    The common core of the rebuild and shared paths: given equal inputs
    it produces equal parts, which is what makes the dispatch mechanism
    invisible in the merged result.
    """
    correlator = CoincidenceCorrelator(basis)
    identifications = correct = misses = 0
    latencies: List[np.ndarray] = []
    for start in np.asarray(start_slots).tolist():
        batch = correlator.identify_batch(
            rows, start_slot=int(start), missing="none"
        )
        found = batch.elements >= 0
        identifications += int(batch.elements.size)
        misses += int(np.count_nonzero(~found))
        correct += int(np.count_nonzero(batch.elements[found] == expected[found]))
        # int32 keeps the cross-process payload small; latencies are
        # bounded by the grid length (< 2^31).
        latencies.append(
            (batch.decision_slots[found] - int(start)).astype(np.int32)
        )
    stacked = (
        np.concatenate(latencies)
        if latencies
        else np.empty(0, dtype=np.int32)
    )
    return IdentifyPart(
        row_start=row_start,
        row_stop=row_stop,
        identifications=identifications,
        correct=correct,
        misses=misses,
        latencies=stacked,
    )


def _run_shard(shard) -> IdentifyPart:
    """Run one shard: attach a shared workload, or rebuild it locally."""
    if isinstance(shard, IdentifySharedShard):
        basis = HyperspaceBasis.from_artifact(shard.basis)
        rows = SpikeTrainBatch.from_shared(
            shard.wires, rows=(shard.row_start, shard.row_stop)
        )
        elements = attach_array(shard.elements)
        expected = np.asarray(elements[shard.row_start : shard.row_stop])
        start_slots = np.asarray(shard.start_slots, dtype=np.int64)
    else:
        config = shard.config
        basis, wires, elements, start_slots = _workload(config)
        rows = wires.select_rows(np.arange(shard.row_start, shard.row_stop))
        expected = elements[shard.row_start : shard.row_stop]
    return _identify_rows(
        basis, rows, expected, start_slots, shard.row_start, shard.row_stop
    )


def _shard_shared(
    config: IdentifyConfig, arena: SharedArena
) -> Tuple[IdentifySharedShard, ...]:
    """Materialise the workload once, export it, ship handles.

    The dense per-shard dispatch payload drops from the rebuilt
    workload (or a pickled raster) to a few hundred bytes of segment
    metadata; workers attach the same physical pages.
    """
    basis, wires, elements, start_slots = _workload(config)
    artifact = basis.to_artifact(arena)
    handle = wires.to_shared(arena)
    elements_spec = arena.share_array(elements)
    starts = tuple(int(s) for s in start_slots)
    return tuple(
        IdentifySharedShard(
            row_start=shard.row_start,
            row_stop=shard.row_stop,
            basis=artifact,
            wires=handle,
            elements=elements_spec,
            start_slots=starts,
        )
        for shard in _shards(config)
    )


def _merge(
    config: IdentifyConfig, parts: Sequence[IdentifyPart]
) -> IdentifyResult:
    """Reassemble the sweep; every aggregate is order-independent."""
    parts = sorted(parts, key=lambda p: p.row_start)
    identifications = sum(p.identifications for p in parts)
    correct = sum(p.correct for p in parts)
    misses = sum(p.misses for p in parts)
    hits = identifications - misses
    latencies = (
        np.concatenate([p.latencies for p in parts])
        if parts
        else np.empty(0, dtype=np.int64)
    )
    return IdentifyResult(
        n_wires=config.n_wires,
        basis_size=config.basis_size,
        n_trials=config.n_trials,
        n_shards=len(parts),
        identifications=identifications,
        correct=correct,
        misses=misses,
        accuracy=correct / hits if hits else 0.0,
        median_latency_samples=float(np.median(latencies)) if hits else 0.0,
        p90_latency_samples=(
            float(np.percentile(latencies, 90)) if hits else 0.0
        ),
        dt=paper_white_grid().dt,
    )


def _run(config: IdentifyConfig) -> IdentifyResult:
    """Serial driver: the same shards, executed in-process.

    Builds the workload once and feeds every shard the same arrays —
    the serial analogue of the shared-memory dispatch path, so the
    serial baseline doesn't pay ``n_shards`` redundant rebuilds.
    """
    basis, wires, elements, start_slots = _workload(config)
    parts = [
        _identify_rows(
            basis,
            wires.select_rows(np.arange(shard.row_start, shard.row_stop)),
            elements[shard.row_start : shard.row_stop],
            start_slots,
            shard.row_start,
            shard.row_stop,
        )
        for shard in _shards(config)
    ]
    return _merge(config, parts)


def run_identify(
    seed: int = 2016,
    n_wires: int = 256,
    basis_size: int = 16,
    source_isi_samples: int = 28,
    n_trials: int = 12,
    n_shards: int = 4,
) -> IdentifyResult:
    """Run experiment S1 and return the accuracy/latency summary."""
    return _run(
        IdentifyConfig(
            seed=seed,
            n_wires=n_wires,
            basis_size=basis_size,
            source_isi_samples=source_isi_samples,
            n_trials=n_trials,
            n_shards=n_shards,
        )
    )


register(
    ExperimentSpec(
        name="identify",
        description="S1 — sharded batched identification (serving workload)",
        tier="serving",
        config_type=IdentifyConfig,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
        shard_shared=_shard_shared,
    )
)


def main() -> None:
    """Print the S1 identification summary."""
    print(run_identify().render())


if __name__ == "__main__":
    main()
