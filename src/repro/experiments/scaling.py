"""Experiment C3: exponential hyperspace scaling (M = 2^N − 1).

Section 3(ii): "using intersection-based orthogonators and N random
spike trains, we can generate an exponentially larger hyperspace basis
of orthogonal spike trains".  This experiment builds intersection bases
for N = 2..max and records: the basis size, the build cost, and the
sparsest element's spike count — the quantity that bounds worst-case
identification latency as the basis grows (higher-order products are
exponentially rarer without correlation shaping).

Run directly: ``python -m repro.experiments.scaling``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..hyperspace.builders import (
    build_intersection_basis,
    paper_default_synthesizer,
)
from ..noise.synthesis import make_rng
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec

__all__ = ["ScalingConfig", "ScalingPoint", "ScalingResult", "run_scaling"]


@dataclass(frozen=True)
class ScalingConfig:
    """Config of the hyperspace-scaling sweep."""

    max_inputs: int = 6
    seed: int = 2016
    common_amplitude: float = 0.945


@dataclass(frozen=True)
class ScalingPoint:
    """One N of the scaling sweep."""

    n_inputs: int
    basis_size: int
    build_seconds: float
    min_spikes: int
    max_spikes: int
    nonempty_elements: int


@dataclass(frozen=True)
class ScalingResult:
    """The full sweep."""

    points: List[ScalingPoint]
    common_amplitude: float

    def render(self) -> str:
        """Full text report."""
        lines = [
            "C3 — hyperspace scaling (intersection orthogonator, "
            f"common amplitude {self.common_amplitude})",
            f"{'N':>3s} {'M=2^N-1':>8s} {'build(s)':>9s} "
            f"{'min spk':>8s} {'max spk':>8s} {'nonempty':>9s}",
        ]
        for p in self.points:
            lines.append(
                f"{p.n_inputs:>3d} {p.basis_size:>8d} {p.build_seconds:>9.3f} "
                f"{p.min_spikes:>8d} {p.max_spikes:>8d} {p.nonempty_elements:>9d}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ScalingShard:
    """One basis order N of the sweep (the spec's shard unit).

    Each order already draws from its own ``make_rng(seed + n)``, so
    shards are independent by construction.
    """

    n_inputs: int
    seed: int
    common_amplitude: float


def _shards(config: ScalingConfig) -> Tuple[ScalingShard, ...]:
    """One shard per basis order N = 2..max."""
    return tuple(
        ScalingShard(n, config.seed, config.common_amplitude)
        for n in range(2, config.max_inputs + 1)
    )


def _run_shard(shard: ScalingShard) -> ScalingPoint:
    """Build one order's intersection basis and record the costs."""
    synthesizer = paper_default_synthesizer()
    started = time.perf_counter()
    basis = build_intersection_basis(
        shard.n_inputs,
        synthesizer=synthesizer,
        common_amplitude=shard.common_amplitude,
        rng=make_rng(shard.seed + shard.n_inputs),
    )
    elapsed = time.perf_counter() - started
    counts = [len(t) for t in basis.trains]
    return ScalingPoint(
        n_inputs=shard.n_inputs,
        basis_size=basis.size,
        build_seconds=elapsed,
        min_spikes=min(counts),
        max_spikes=max(counts),
        nonempty_elements=sum(1 for c in counts if c > 0),
    )


def _merge(
    config: ScalingConfig, parts: Sequence[ScalingPoint]
) -> ScalingResult:
    """Reassemble the sweep in order of N.

    ``build_seconds`` is a per-shard wall-time measurement, the one
    intentionally non-deterministic field of any result payload.
    """
    return ScalingResult(
        points=sorted(parts, key=lambda p: p.n_inputs),
        common_amplitude=config.common_amplitude,
    )


def _run(config: ScalingConfig) -> ScalingResult:
    """Serial driver: the same shards, executed in-process."""
    return _merge(config, [_run_shard(shard) for shard in _shards(config)])


def run_scaling(
    max_inputs: int = 6,
    seed: int = 2016,
    common_amplitude: float = 0.945,
) -> ScalingResult:
    """Build intersection bases of growing order and record the costs.

    ``common_amplitude`` defaults to the paper's homogenizing mix; with
    0.0 the higher-order products go empty quickly, which the sweep also
    documents (set it explicitly to compare).
    """
    return _run(
        ScalingConfig(
            max_inputs=max_inputs,
            seed=seed,
            common_amplitude=common_amplitude,
        )
    )


register(
    ExperimentSpec(
        name="scaling",
        description="C3 — exponential hyperspace scaling",
        tier="claim",
        config_type=ScalingConfig,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
    )
)


def main() -> None:
    """Print the C3 scaling sweep."""
    print(run_scaling().render())


if __name__ == "__main__":
    main()
