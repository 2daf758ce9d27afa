"""Experiment N1: batched random-logic-network evaluation (``logicnet``).

The ROADMAP's "gate networks at batch scale" direction made concrete:
N fixed random 2-input logic networks (:class:`~repro.logic.netbatch.
LogicNetBatch`) read the demux basis's M spike lines as shared inputs
and evaluate layer-by-layer on the packed substrate — a gate-choice
sweep, the workload a search over network wirings would issue at scale.
The result is the per-gate output spike counts and per-network output
checksums, deterministic in ``(seed, shape)``.

Like S1 (:mod:`repro.experiments.identify`) it doubles as a sharding
reference, but along a different axis: the shard plan splits the
**network axis**, and because network ``i``'s tables are drawn from
``spawn_rng(seed, i)``, a rebuild shard reconstructs *only its own
networks* — no shard ever draws another shard's stream, so sharded runs
are bit-identical to serial ones by construction.  ``shard_shared``
ships the tables once through the run arena instead
(:meth:`~repro.logic.netbatch.LogicNetBatch.to_shared`).

Run directly: ``python -m repro.experiments.logicnet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..backend import packed
from ..backend.batch import SpikeTrainBatch
from ..backend.shared import SharedArena
from ..hyperspace.basis import BasisArtifact, HyperspaceBasis
from ..logic.netbatch import LogicNetBatch, LogicNetHandle
from ..noise.synthesis import make_rng
from ..orthogonator.demux import DemuxOrthogonator
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec
from ..spikes.generators import poisson_train
from ..units import paper_white_grid

__all__ = ["LogicNetConfig", "LogicNetResult", "run_logicnet"]


@dataclass(frozen=True)
class LogicNetConfig:
    """Config of the batched logic-network sweep.

    ``n_shards`` is part of the config (not the worker count): the
    shard plan must be identical however many jobs execute it.
    """

    seed: int = 2016
    n_networks: int = 64
    n_gates: int = 32
    depth: int = 3
    basis_size: int = 16
    source_isi_samples: int = 28
    n_shards: int = 4


@dataclass(frozen=True)
class LogicNetShard:
    """One rebuild shard: networks ``[net_start, net_stop)``.

    Carries only the config — the worker rebuilds the basis inputs and
    *its own* networks (spawn keys) deterministically.
    """

    config: LogicNetConfig
    net_start: int
    net_stop: int


@dataclass(frozen=True)
class LogicNetSharedShard:
    """One zero-copy shard: arena handles instead of a rebuild."""

    net_start: int
    net_stop: int
    basis: BasisArtifact
    nets: LogicNetHandle


@dataclass(frozen=True)
class LogicNetPart:
    """One shard's raw outcome (merged order-independently)."""

    net_start: int
    net_stop: int
    popcounts: np.ndarray  # (n, G) int64 output spike counts
    checksums: np.ndarray  # (n,) uint64 XOR folds


@dataclass(frozen=True)
class LogicNetResult:
    """The whole sweep's outputs, JSON-ready (plain Python values)."""

    n_networks: int
    n_gates: int
    depth: int
    basis_size: int
    n_shards: int
    total_spikes: int
    checksum: int
    popcounts: Tuple[Tuple[int, ...], ...]
    checksums: Tuple[int, ...]

    def render(self) -> str:
        """Full text report."""
        return "\n".join(
            [
                f"N1 — batched logic networks ({self.n_networks} nets × "
                f"{self.depth}×{self.n_gates} gates over "
                f"{self.basis_size} input lines, {self.n_shards} shards)",
                f"  output spikes : {self.total_spikes}",
                f"  checksum      : 0x{self.checksum:016x}",
            ]
        )


def _basis(config: LogicNetConfig) -> HyperspaceBasis:
    """The shared input lines: the same demux recipe S1/serving use."""
    grid = paper_white_grid()
    rng = make_rng(config.seed)
    source = poisson_train(
        rate_hz=1.0 / (config.source_isi_samples * grid.dt), grid=grid, rng=rng
    )
    output = DemuxOrthogonator.with_outputs(config.basis_size).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


def _shards(config: LogicNetConfig) -> Tuple[LogicNetShard, ...]:
    """Split the network axis into ``n_shards`` contiguous ranges."""
    return tuple(
        LogicNetShard(config, lo, hi)
        for lo, hi in packed.row_chunk_bounds(
            config.n_networks, config.n_shards
        )
    )


def _eval_part(
    inputs: SpikeTrainBatch,
    nets: LogicNetBatch,
    net_start: int,
    net_stop: int,
) -> LogicNetPart:
    """Evaluate one contiguous network range against the input lines.

    The common core of the rebuild, shared and serial paths — equal
    inputs produce equal parts, whatever dispatched them.  ``nets``
    holds exactly the range's networks already.
    """
    popcounts, checksums = nets.evaluate(
        inputs.packed_words(), inputs.grid.n_samples
    )
    return LogicNetPart(
        net_start=net_start,
        net_stop=net_stop,
        popcounts=popcounts,
        checksums=checksums,
    )


def _run_shard(shard) -> LogicNetPart:
    """Run one shard: attach a shared workload, or rebuild it locally."""
    if isinstance(shard, LogicNetSharedShard):
        basis = HyperspaceBasis.from_artifact(shard.basis)
        nets = LogicNetBatch.from_shared(
            shard.nets, networks=(shard.net_start, shard.net_stop)
        )
    else:
        config = shard.config
        basis = _basis(config)
        nets = LogicNetBatch.random(
            shard.net_stop - shard.net_start,
            config.n_gates,
            config.depth,
            config.basis_size,
            config.seed,
            net_start=shard.net_start,
        )
    return _eval_part(basis.as_batch(), nets, shard.net_start, shard.net_stop)


def _shard_shared(
    config: LogicNetConfig, arena: SharedArena
) -> Tuple[LogicNetSharedShard, ...]:
    """Materialise basis and tables once, export them, ship handles."""
    basis = _basis(config)
    nets = LogicNetBatch.random(
        config.n_networks,
        config.n_gates,
        config.depth,
        config.basis_size,
        config.seed,
    )
    artifact = basis.to_artifact(arena)
    handle = nets.to_shared(arena)
    return tuple(
        LogicNetSharedShard(
            net_start=shard.net_start,
            net_stop=shard.net_stop,
            basis=artifact,
            nets=handle,
        )
        for shard in _shards(config)
    )


def _merge(
    config: LogicNetConfig, parts: Sequence[LogicNetPart]
) -> LogicNetResult:
    """Reassemble the sweep; concatenation in network order."""
    parts = sorted(parts, key=lambda p: p.net_start)
    if parts:
        popcounts = np.concatenate([p.popcounts for p in parts])
        checksums = np.concatenate([p.checksums for p in parts])
    else:
        popcounts = np.empty((0, config.n_gates), dtype=np.int64)
        checksums = np.empty(0, dtype=np.uint64)
    folded = np.bitwise_xor.reduce(checksums) if checksums.size else 0
    return LogicNetResult(
        n_networks=config.n_networks,
        n_gates=config.n_gates,
        depth=config.depth,
        basis_size=config.basis_size,
        n_shards=len(parts),
        total_spikes=int(popcounts.sum()),
        checksum=int(folded),
        popcounts=tuple(tuple(int(v) for v in row) for row in popcounts),
        checksums=tuple(int(v) for v in checksums),
    )


def _run(config: LogicNetConfig) -> LogicNetResult:
    """Serial driver: the same shards, executed in-process.

    Builds the basis and the full network family once and slices per
    shard — the serial analogue of the shared-memory dispatch path.
    """
    inputs = _basis(config).as_batch()
    nets = LogicNetBatch.random(
        config.n_networks,
        config.n_gates,
        config.depth,
        config.basis_size,
        config.seed,
    )
    parts = [
        _eval_part(
            inputs,
            nets.select_networks(shard.net_start, shard.net_stop),
            shard.net_start,
            shard.net_stop,
        )
        for shard in _shards(config)
    ]
    return _merge(config, parts)


def run_logicnet(
    seed: int = 2016,
    n_networks: int = 64,
    n_gates: int = 32,
    depth: int = 3,
    basis_size: int = 16,
    source_isi_samples: int = 28,
    n_shards: int = 4,
) -> LogicNetResult:
    """Run experiment N1 and return the sweep summary."""
    return _run(
        LogicNetConfig(
            seed=seed,
            n_networks=n_networks,
            n_gates=n_gates,
            depth=depth,
            basis_size=basis_size,
            source_isi_samples=source_isi_samples,
            n_shards=n_shards,
        )
    )


register(
    ExperimentSpec(
        name="logicnet",
        description="N1 — batched random-logic-network sweep (packed)",
        tier="serving",
        config_type=LogicNetConfig,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
        shard_shared=_shard_shared,
    )
)


def main() -> None:
    """Print the N1 sweep summary."""
    print(run_logicnet().render())


if __name__ == "__main__":
    main()
