"""Experiment C2: delay aliasing — periodic vs random spike bases.

Section 6's argument: orthogonal *periodic* spike trains are time-shifted
copies of one pattern, so a circuit delay equal to the wire spacing maps
one basis element exactly onto another and identification fails *with
full confidence* — the circuit silently computes with the wrong value.
Random (noise-derived) trains are "unique fingerprints": the same delays
leave only chance-level coincidences, which a confidence threshold
rejects, so the failure is a detectable "no verdict", never a wrong one.

The experiment sweeps a delay applied to each basis element and records
wrong-verdict and silent rates for (a) a periodic basis and (b) a
demux-generated random basis of the same size, using a coincidence
window of half the periodic spacing and a 50 % confidence threshold.

Run directly: ``python -m repro.experiments.aliasing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..baselines.periodic import (
    DelaySweepPoint,
    misidentification_curve,
    periodic_spike_basis,
)
from ..hyperspace.builders import build_demux_basis, paper_default_synthesizer
from ..noise.synthesis import make_rng
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec

__all__ = ["AliasingConfig", "AliasingResult", "run_aliasing"]

#: Coincidence window (samples): a tight window models a realistic
#: detector; wide windows would re-introduce soft aliasing between
#: *adjacent demux wires*, whose spikes are consecutive source crossings.
DETECTOR_WINDOW = 2


@dataclass(frozen=True)
class AliasingConfig:
    """Config of the delay-aliasing sweep."""

    n_elements: int = 4
    spacing_samples: int = 32
    seed: int = 2016
    delays: Sequence[int] = ()
    min_confidence: float = 0.5


@dataclass(frozen=True)
class AliasingResult:
    """Error-rate curves for the periodic and random bases.

    ``spacing_samples`` is the periodic basis's wire spacing: the delay
    at which the periodic scheme aliases catastrophically.
    """

    delays: List[int]
    periodic: List[DelaySweepPoint]
    random: List[DelaySweepPoint]
    spacing_samples: int
    window: int
    min_confidence: float

    def periodic_alias_delays(self) -> List[int]:
        """Delays at which the periodic basis aliased (confident + wrong)."""
        return [p.delay_samples for p in self.periodic if p.aliased]

    def max_random_wrong_rate(self) -> float:
        """Worst-case *wrong-verdict* rate of the random basis."""
        return max(p.wrong_rate for p in self.random)

    def render(self) -> str:
        """Full text report: one line per delay."""
        lines = [
            "C2 — identification failures vs applied delay",
            f"(periodic spacing {self.spacing_samples} samples, window "
            f"{self.window}, confidence >= {self.min_confidence:.0%})",
            f"{'delay':>7s} | {'periodic wrong':>14s} {'silent':>7s} "
            f"{'aliased':>8s} | {'random wrong':>12s} {'silent':>7s}",
        ]
        for point_p, point_r in zip(self.periodic, self.random):
            lines.append(
                f"{point_p.delay_samples:>7d} | {point_p.wrong_rate:>14.2f} "
                f"{point_p.silent_rate:>7.2f} {str(point_p.aliased):>8s} | "
                f"{point_r.wrong_rate:>12.2f} {point_r.silent_rate:>7.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class AliasingShard:
    """One basis kind's delay sweep (the spec's shard unit)."""

    which: str  # "periodic" | "random"
    config: AliasingConfig


@dataclass(frozen=True)
class AliasingPart:
    """One basis kind's error-rate curve."""

    which: str
    points: List[DelaySweepPoint]


def _delays(config: AliasingConfig) -> List[int]:
    """The swept delays; the default covers the aliasing points."""
    if config.delays:
        return list(config.delays)
    # Default sweep: within-window values, exact multiples of the
    # spacing (the aliasing points), and off-grid values in between.
    multiples = [k * config.spacing_samples for k in range(1, config.n_elements)]
    offsets = [
        1,
        DETECTOR_WINDOW,
        config.spacing_samples // 2,
        config.spacing_samples + 1,
    ]
    return sorted(set([0] + offsets + multiples))


def _shards(config: AliasingConfig) -> Tuple[AliasingShard, ...]:
    """The two independent basis sweeps."""
    return (
        AliasingShard("periodic", config),
        AliasingShard("random", config),
    )


def _run_shard(shard: AliasingShard) -> AliasingPart:
    """Sweep the delays over one basis kind, building the basis."""
    config = shard.config
    if shard.which == "periodic":
        basis = periodic_spike_basis(
            config.n_elements,
            config.spacing_samples,
            paper_default_synthesizer().grid,
        )
    else:
        basis = build_demux_basis(
            config.n_elements,
            synthesizer=paper_default_synthesizer(),
            rng=make_rng(config.seed),
        )
    return AliasingPart(
        which=shard.which,
        points=misidentification_curve(
            basis,
            _delays(config),
            window=DETECTOR_WINDOW,
            min_confidence=config.min_confidence,
        ),
    )


def _merge(
    config: AliasingConfig, parts: Sequence[AliasingPart]
) -> AliasingResult:
    """Reassemble the comparison from the two curves."""
    by_kind = {part.which: part for part in parts}
    return AliasingResult(
        delays=_delays(config),
        periodic=by_kind["periodic"].points,
        random=by_kind["random"].points,
        spacing_samples=config.spacing_samples,
        window=DETECTOR_WINDOW,
        min_confidence=config.min_confidence,
    )


def _run(config: AliasingConfig) -> AliasingResult:
    """Serial driver: the same shards, executed in-process."""
    return _merge(config, [_run_shard(shard) for shard in _shards(config)])


def run_aliasing(
    n_elements: int = 4,
    spacing_samples: int = 32,
    seed: int = 2016,
    delays: Sequence[int] = (),
    min_confidence: float = 0.5,
) -> AliasingResult:
    """Sweep delays over periodic and random bases of equal size."""
    return _run(
        AliasingConfig(
            n_elements=n_elements,
            spacing_samples=spacing_samples,
            seed=seed,
            delays=tuple(delays),
            min_confidence=min_confidence,
        )
    )


register(
    ExperimentSpec(
        name="aliasing",
        description="C2 — delay aliasing, periodic vs random",
        tier="claim",
        config_type=AliasingConfig,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
    )
)


def main() -> None:
    """Print the C2 aliasing sweep."""
    print(run_aliasing().render())


if __name__ == "__main__":
    main()
