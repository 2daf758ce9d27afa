"""Experiment T1: reproduce Table 1 (demux orthogonator statistics).

Second-order (M = 3) demultiplexer-based orthogonator driven by
zero-crossing spikes of (a) band-limited white noise 5 MHz–10 GHz and
(b) band-limited 1/f noise 2.5 MHz–10 GHz, 65 536 simulation points.
Reported per configuration: τ and Δτ of the source train and of the
pooled output trains, next to the paper's values.

Run directly: ``python -m repro.experiments.table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..analysis.rice import rice_mean_isi
from ..analysis.tables import StatsRow, StatsTable
from ..noise.sources import NoiseSource, paper_pink_source, paper_white_source
from ..orthogonator.demux import DemuxOrthogonator
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec
from ..spikes.statistics import IsiStatistics, isi_statistics
from ..spikes.zero_crossing import AllCrossingDetector
from .paper_constants import PAPER_N_POINTS, TABLE1_PINK, TABLE1_WHITE

__all__ = ["Table1Config", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Config:
    """Config of the Table 1 reproduction."""

    seed: int = 2016
    n_samples: int = PAPER_N_POINTS
    order: int = 2


@dataclass(frozen=True)
class Table1Result:
    """Both configurations of Table 1 as renderable tables."""

    white: StatsTable
    pink: StatsTable
    rice_white_isi: float
    rice_pink_isi: float

    def render(self) -> str:
        """Full text report."""
        return (
            f"{self.white.render()}\n\n{self.pink.render()}\n\n"
            f"Rice-formula source ISI: white {self.rice_white_isi * 1e12:.1f} ps, "
            f"1/f {self.rice_pink_isi * 1e12:.1f} ps"
        )


def _pooled_output_stats(source: NoiseSource, order: int) -> tuple:
    """Source train stats and pooled per-wire output stats."""
    train = AllCrossingDetector().detect(source.record(), source.grid)
    output = DemuxOrthogonator(order).transform(train)
    source_stats = isi_statistics(train)
    intervals = np.concatenate(
        [t.interspike_intervals().astype(float) for t in output.trains]
    )
    pooled = IsiStatistics(
        n_spikes=output.total_spikes(),
        mean_isi_samples=float(intervals.mean()),
        rms_isi_samples=float(intervals.std()),
        dt=source.grid.dt,
    )
    return source_stats, pooled


@dataclass(frozen=True)
class Table1Shard:
    """One noise configuration of Table 1 (the spec's shard unit)."""

    variant: str  # "white" | "pink"
    seed: int
    n_samples: int
    order: int


@dataclass(frozen=True)
class Table1Part:
    """One configuration's table plus its Rice-formula source ISI."""

    variant: str
    table: StatsTable
    rice_isi: float


def _shards(config: Table1Config) -> Tuple[Table1Shard, ...]:
    """The two noise configurations, seeded exactly as the serial run."""
    return (
        Table1Shard("white", config.seed, config.n_samples, config.order),
        Table1Shard("pink", config.seed + 1, config.n_samples, config.order),
    )


def _run_shard(shard: Table1Shard) -> Table1Part:
    """Measure one noise configuration, synthesizing its record."""
    if shard.variant == "white":
        source = paper_white_source(seed=shard.seed, n_samples=shard.n_samples)
        title = "Table 1 — white noise (5 MHz-10 GHz), demux M=3"
        reference = TABLE1_WHITE
    else:
        source = paper_pink_source(seed=shard.seed, n_samples=shard.n_samples)
        title = "Table 1 — 1/f noise (2.5 MHz-10 GHz), demux M=3"
        reference = TABLE1_PINK
    table = StatsTable(title)
    source_stats, output_stats = _pooled_output_stats(source, shard.order)
    table.add(StatsRow("source", source_stats, reference["source"]))
    table.add(StatsRow("outputs", output_stats, reference["outputs"]))
    return Table1Part(
        variant=shard.variant,
        table=table,
        rice_isi=rice_mean_isi(source.spectrum),
    )


def _merge(config: Table1Config, parts: Sequence[Table1Part]) -> Table1Result:
    """Reassemble the full Table 1 result from its two configurations."""
    by_variant = {part.variant: part for part in parts}
    return Table1Result(
        white=by_variant["white"].table,
        pink=by_variant["pink"].table,
        rice_white_isi=by_variant["white"].rice_isi,
        rice_pink_isi=by_variant["pink"].rice_isi,
    )


def _run(config: Table1Config) -> Table1Result:
    """Serial driver: the same shards, executed in-process."""
    return _merge(config, [_run_shard(shard) for shard in _shards(config)])


def run_table1(
    seed: int = 2016,
    n_samples: int = PAPER_N_POINTS,
    order: int = 2,
) -> Table1Result:
    """Run experiment T1 and return the paper-vs-measured tables."""
    return _run(Table1Config(seed=seed, n_samples=n_samples, order=order))


register(
    ExperimentSpec(
        name="table1",
        description="Table 1 — demux orthogonator statistics",
        tier="table",
        config_type=Table1Config,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
    )
)


def main() -> None:
    """Print the Table 1 reproduction."""
    print(run_table1().render())


if __name__ == "__main__":
    main()
