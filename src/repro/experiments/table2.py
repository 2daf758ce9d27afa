"""Experiment T2: reproduce Table 2 (intersection orthogonator statistics).

Second-order intersection-based orthogonator on zero-crossing spikes of
two band-limited white noises (5 MHz–10 GHz, 65 536 points), in two
configurations:

* uncorrelated sources (Figure 2): the coincidence product A·B is ~25×
  slower than the exclusive products;
* correlated sources via a 0.945/0.055 common-mode mix (Figure 3): all
  three outputs homogenized to comparable rates.

Run directly: ``python -m repro.experiments.table2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..analysis.tables import StatsRow, StatsTable
from ..pipeline.registry import register
from ..pipeline.spec import ExperimentSpec
from ..noise.correlated import (
    PAPER_COMMON_AMPLITUDE,
    PAPER_PRIVATE_AMPLITUDE,
    CommonModeMixer,
)
from ..noise.spectra import PAPER_WHITE_BAND, WhiteSpectrum
from ..noise.synthesis import NoiseSynthesizer, make_rng
from ..orthogonator.homogenize import homogenization_spread
from ..orthogonator.intersection import IntersectionOrthogonator
from ..spikes.statistics import isi_statistics
from ..spikes.zero_crossing import AllCrossingDetector
from ..units import paper_white_grid
from .paper_constants import (
    PAPER_N_POINTS,
    TABLE2_CORRELATED,
    TABLE2_UNCORRELATED,
)

__all__ = ["Table2Config", "Table2Result", "run_table2"]


@dataclass(frozen=True)
class Table2Config:
    """Config of the Table 2 reproduction."""

    seed: int = 2016
    n_samples: int = PAPER_N_POINTS


@dataclass(frozen=True)
class Table2Result:
    """Both configurations of Table 2 plus the homogenization metric."""

    uncorrelated: StatsTable
    correlated: StatsTable
    spread_uncorrelated: float
    spread_correlated: float

    def render(self) -> str:
        """Full text report."""
        return (
            f"{self.uncorrelated.render()}\n"
            f"rate spread (max/min): {self.spread_uncorrelated:.1f}x\n\n"
            f"{self.correlated.render()}\n"
            f"rate spread (max/min): {self.spread_correlated:.2f}x"
        )


def _generate_records(
    correlated: bool, seed: int, n_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The two source records, drawn in one fixed order from the seed."""
    grid = paper_white_grid(n_samples=n_samples)
    synthesizer = NoiseSynthesizer(WhiteSpectrum(PAPER_WHITE_BAND), grid)
    rng = make_rng(seed)
    if correlated:
        mixer = CommonModeMixer(
            synthesizer,
            common_amplitude=PAPER_COMMON_AMPLITUDE,
            private_amplitude=PAPER_PRIVATE_AMPLITUDE,
        )
        record_a, record_b = mixer.generate(2, rng=rng)
    else:
        record_a = synthesizer.generate(rng)
        record_b = synthesizer.generate(rng)
    return record_a, record_b


def _run_configuration(
    correlated: bool, seed: int, n_samples: int
) -> Tuple[StatsTable, float]:
    grid = paper_white_grid(n_samples=n_samples)
    record_a, record_b = _generate_records(correlated, seed, n_samples)

    detector = AllCrossingDetector()
    train_a = detector.detect(record_a, grid)
    train_b = detector.detect(record_b, grid)
    device = IntersectionOrthogonator(2)
    output = device.transform(train_a, train_b)

    reference = TABLE2_CORRELATED if correlated else TABLE2_UNCORRELATED
    title = (
        "Table 2 — correlated sources (0.945/0.055 common mode)"
        if correlated
        else "Table 2 — uncorrelated sources"
    )
    table = StatsTable(title)
    table.add(StatsRow("A", isi_statistics(train_a), reference["A"]))
    table.add(StatsRow("B", isi_statistics(train_b), reference["B"]))
    for label in output.labels:
        table.add(StatsRow(label, isi_statistics(output[label]), reference[label]))
    return table, homogenization_spread(output)


@dataclass(frozen=True)
class Table2Shard:
    """One source configuration of Table 2 (the spec's shard unit)."""

    correlated: bool
    seed: int
    n_samples: int


@dataclass(frozen=True)
class Table2Part:
    """One configuration's table plus its homogenization spread."""

    correlated: bool
    table: StatsTable
    spread: float


def _shards(config: Table2Config) -> Tuple[Table2Shard, ...]:
    """The two source configurations, seeded exactly as the serial run."""
    return (
        Table2Shard(False, config.seed, config.n_samples),
        Table2Shard(True, config.seed + 1, config.n_samples),
    )


def _run_shard(shard: Table2Shard) -> Table2Part:
    """Measure one source configuration, drawing its records."""
    table, spread = _run_configuration(
        shard.correlated, shard.seed, shard.n_samples
    )
    return Table2Part(correlated=shard.correlated, table=table, spread=spread)


def _merge(config: Table2Config, parts: Sequence[Table2Part]) -> Table2Result:
    """Reassemble the full Table 2 result from its two configurations."""
    by_kind = {part.correlated: part for part in parts}
    return Table2Result(
        uncorrelated=by_kind[False].table,
        correlated=by_kind[True].table,
        spread_uncorrelated=by_kind[False].spread,
        spread_correlated=by_kind[True].spread,
    )


def _run(config: Table2Config) -> Table2Result:
    """Serial driver: the same shards, executed in-process."""
    return _merge(config, [_run_shard(shard) for shard in _shards(config)])


def run_table2(seed: int = 2016, n_samples: int = PAPER_N_POINTS) -> Table2Result:
    """Run experiment T2 and return the paper-vs-measured tables."""
    return _run(Table2Config(seed=seed, n_samples=n_samples))


register(
    ExperimentSpec(
        name="table2",
        description="Table 2 — intersection + homogenization",
        tier="table",
        config_type=Table2Config,
        run=_run,
        shard=_shards,
        run_shard=_run_shard,
        merge=_merge,
    )
)


def main() -> None:
    """Print the Table 2 reproduction."""
    print(run_table2().render())


if __name__ == "__main__":
    main()
