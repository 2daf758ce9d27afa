"""Orthogonator interface and shared validation.

An *orthogonator* (Section 3 of the paper) turns raw spike trains into a
set of mutually orthogonal output trains — the reference basis of the
logic hyperspace.  Two concrete families exist:

* :class:`~repro.orthogonator.demux.DemuxOrthogonator` — serial,
  one input train dealt cyclically over M wires;
* :class:`~repro.orthogonator.intersection.IntersectionOrthogonator` —
  parallel, N input trains expanded into all ``2^N − 1`` intersection
  products.

Both return an :class:`OrthogonatorOutput`, which carries the labelled
output trains and enforces the orthogonality invariant on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..errors import OrthogonalityError
from ..spikes.statistics import IsiStatistics, isi_statistics
from ..spikes.train import SpikeTrain

__all__ = [
    "BatchOrthogonatorOutput",
    "OrthogonatorOutput",
    "Orthogonator",
    "verify_orthogonality",
]


def verify_orthogonality(trains: Sequence[SpikeTrain], labels: Sequence[str]) -> None:
    """Raise :class:`OrthogonalityError` if any two trains share a slot.

    The happy path sorts the concatenated slots once and looks for two
    equal neighbours, a slot two trains share (O(S log S) for S spikes
    instead of O(M²) pairwise intersections, and no ``np.unique``,
    whose first call imports ``numpy.ma``); the pairwise walk only runs
    to name the offending pair once a collision is known to exist.
    """
    occupied = [t.indices for t in trains if len(t)]
    if len(occupied) < 2:
        return
    all_slots = np.concatenate(occupied)
    all_slots.sort()
    if not np.any(all_slots[1:] == all_slots[:-1]):
        return
    for i in range(len(trains)):
        for j in range(i + 1, len(trains)):
            shared = trains[i].overlap_count(trains[j])
            if shared:
                raise OrthogonalityError(
                    f"outputs {labels[i]!r} and {labels[j]!r} share "
                    f"{shared} spike slot(s)"
                )


@dataclass(frozen=True)
class OrthogonatorOutput:
    """Labelled orthogonal output trains of an orthogonator run.

    ``trains`` and ``labels`` are parallel sequences; orthogonality is
    checked eagerly so downstream code can rely on it unconditionally.
    ``verify=False`` skips the O(M²) check for hot paths that construct
    provably-orthogonal outputs (the demux path uses it — its outputs
    partition the input by construction).
    """

    trains: Tuple[SpikeTrain, ...]
    labels: Tuple[str, ...]
    verify: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.trains) != len(self.labels):
            raise OrthogonalityError(
                f"{len(self.trains)} trains but {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise OrthogonalityError(f"duplicate output labels: {self.labels}")
        if self.verify:
            verify_orthogonality(self.trains, self.labels)

    def __len__(self) -> int:
        return len(self.trains)

    def __getitem__(self, label: str) -> SpikeTrain:
        try:
            return self.trains[self.labels.index(label)]
        except ValueError:
            raise KeyError(
                f"no output labelled {label!r}; available: {list(self.labels)}"
            ) from None

    def as_dict(self) -> Dict[str, SpikeTrain]:
        """Mapping from label to train (insertion-ordered)."""
        return dict(zip(self.labels, self.trains))

    def statistics(self) -> Dict[str, IsiStatistics]:
        """Per-output ISI statistics, keyed by label."""
        return {label: isi_statistics(t) for label, t in zip(self.labels, self.trains)}

    def rates(self) -> Dict[str, float]:
        """Per-output mean spike rates (spikes/s), keyed by label."""
        return {label: t.mean_rate() for label, t in zip(self.labels, self.trains)}

    def total_spikes(self) -> int:
        """Total spike count across all outputs."""
        return sum(len(t) for t in self.trains)

    def to_batch(self) -> SpikeTrainBatch:
        """The output trains stacked as one ``(M, n_samples)`` batch."""
        return SpikeTrainBatch.from_trains(self.trains)


@dataclass(frozen=True)
class BatchOrthogonatorOutput:
    """Orthogonator outputs in batched form: one batch, parallel labels.

    Emitted by :meth:`Orthogonator.transform_batch`; downstream batch
    consumers (basis construction, batched correlators) use the rows
    directly without materialising per-wire :class:`SpikeTrain` objects.
    """

    batch: SpikeTrainBatch
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.batch.n_trains != len(self.labels):
            raise OrthogonalityError(
                f"{self.batch.n_trains} batch rows but {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise OrthogonalityError(f"duplicate output labels: {self.labels}")

    def __len__(self) -> int:
        return self.batch.n_trains

    def __getitem__(self, label: str) -> SpikeTrain:
        try:
            return self.batch.row(self.labels.index(label))
        except ValueError:
            raise KeyError(
                f"no output labelled {label!r}; available: {list(self.labels)}"
            ) from None

    def to_output(self, verify: bool = False) -> OrthogonatorOutput:
        """Adapter back to the per-train :class:`OrthogonatorOutput`."""
        return OrthogonatorOutput(
            trains=tuple(self.batch.to_trains()),
            labels=self.labels,
            verify=verify,
        )


class Orthogonator:
    """Abstract base for orthogonator circuits.

    Concrete subclasses define ``order`` (the paper's N) and implement
    :meth:`transform` over their expected number of input trains.
    :meth:`transform_batch` emits the same outputs in batched form;
    the base implementation adapts :meth:`transform`, and the concrete
    devices override it to build the batch directly.
    """

    @property
    def n_outputs(self) -> int:
        """Number of orthogonal output wires M."""
        raise NotImplementedError

    def transform(self, *inputs: SpikeTrain) -> OrthogonatorOutput:
        """Produce the orthogonal outputs from the raw input trains."""
        raise NotImplementedError

    def transform_batch(self, *inputs: SpikeTrain) -> BatchOrthogonatorOutput:
        """Produce the orthogonal outputs as one :class:`SpikeTrainBatch`."""
        output = self.transform(*inputs)
        return BatchOrthogonatorOutput(
            batch=SpikeTrainBatch.from_trains(output.trains),
            labels=output.labels,
        )
