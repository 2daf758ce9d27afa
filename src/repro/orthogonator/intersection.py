"""Intersection-based (parallel) orthogonator.

Section 3(ii) of the paper: N parallel input spike trains — partially
overlapping in general — are expanded into all set-theoretic
intersection products.  For each non-empty subset S of the inputs, the
output wire for S carries the spikes present in *exactly* the inputs of
S (and absent from all others).  That yields ``M = 2^N − 1`` output
wires with mutually non-overlapping spike trains.

Example (N = 2, inputs A and B, Figure 2):

* ``A·B``   — slots where both A and B spike (the coincidence product);
* ``A·B̄``  — slots where only A spikes;
* ``Ā·B``  — slots where only B spikes.

With independent sources the coincidence product is rare (Table 2:
τ(A·B) ≈ 700 samples vs ≈ 29 for the exclusives); correlating the
sources homogenizes the rates (:mod:`repro.orthogonator.homogenize`).
"""

from __future__ import annotations

from string import ascii_uppercase
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..errors import ConfigurationError, SpikeTrainError
from ..spikes.train import SpikeTrain, first_of_runs
from .base import BatchOrthogonatorOutput, Orthogonator, OrthogonatorOutput

__all__ = [
    "IntersectionOrthogonator",
    "product_label",
    "default_input_names",
    "subset_masks",
]

#: Overbar combining character used to mark complemented inputs in labels.
_OVERBAR = "̄"


def default_input_names(n: int) -> Tuple[str, ...]:
    """Default input names A, B, C, ... (AA, AB, ... past 26)."""
    names = []
    for i in range(n):
        if i < len(ascii_uppercase):
            names.append(ascii_uppercase[i])
        else:
            hi, lo = divmod(i, len(ascii_uppercase))
            names.append(ascii_uppercase[hi - 1] + ascii_uppercase[lo])
    return tuple(names)


def product_label(mask: int, names: Sequence[str]) -> str:
    """Label of the product selected by bit ``mask`` over ``names``.

    Bit i set means input i is *asserted*; clear means complemented.
    For names ("A", "B"): mask 0b11 → ``A·B``, 0b01 → ``A·B̄``,
    0b10 → ``Ā·B``.
    """
    if mask <= 0 or mask >= (1 << len(names)):
        raise ConfigurationError(
            f"mask {mask} out of range for {len(names)} inputs"
        )
    parts = []
    for i, name in enumerate(names):
        if mask & (1 << i):
            parts.append(name)
        else:
            parts.append(name + _OVERBAR)
    return "·".join(parts)


def subset_masks(n: int) -> List[int]:
    """All non-empty subset masks for ``n`` inputs, ordered by popcount desc.

    The full coincidence product (all bits set) comes first, matching the
    paper's figures which show ``A·B`` before the exclusive products.
    Within equal popcount, masks are ordered numerically.
    """
    masks = list(range(1, 1 << n))
    masks.sort(key=lambda m: (-bin(m).count("1"), m))
    return masks


class IntersectionOrthogonator(Orthogonator):
    """All-products expansion of N input trains into 2^N − 1 outputs.

    Parameters
    ----------
    n_inputs:
        The paper's order N (number of parallel input trains).
    input_names:
        Optional names for the inputs (defaults to A, B, C, ...); used in
        output labels.
    """

    def __init__(
        self,
        n_inputs: int,
        input_names: Optional[Sequence[str]] = None,
    ) -> None:
        if n_inputs < 1:
            raise ConfigurationError(f"n_inputs must be >= 1, got {n_inputs}")
        if n_inputs > 20:
            raise ConfigurationError(
                f"n_inputs = {n_inputs} would create {2**n_inputs - 1} outputs; "
                "refusing above 20"
            )
        if input_names is None:
            input_names = default_input_names(n_inputs)
        if len(input_names) != n_inputs:
            raise ConfigurationError(
                f"{n_inputs} inputs but {len(input_names)} names"
            )
        if len(set(input_names)) != len(input_names):
            raise ConfigurationError(f"duplicate input names: {input_names}")
        self.n_inputs = n_inputs
        self.input_names = tuple(input_names)
        self._masks = subset_masks(n_inputs)

    @property
    def order(self) -> int:
        """The paper's N."""
        return self.n_inputs

    @property
    def n_outputs(self) -> int:
        """Number of output wires, ``2^N − 1``."""
        return (1 << self.n_inputs) - 1

    @property
    def labels(self) -> Tuple[str, ...]:
        """Output labels in mask order (coincidence product first)."""
        return tuple(product_label(m, self.input_names) for m in self._masks)

    def mask_for_label(self, label: str) -> int:
        """Inverse of :func:`product_label` for this device's labels."""
        try:
            return self._masks[self.labels.index(label)]
        except ValueError:
            raise ConfigurationError(
                f"unknown product label {label!r}; available: {list(self.labels)}"
            ) from None

    def transform(self, *inputs: SpikeTrain) -> OrthogonatorOutput:
        """Expand the input trains into all intersection products.

        Implementation: build the per-slot occupancy pattern (which
        subset of inputs spikes in each occupied slot) in one vectorised
        pass, then split slots by pattern.  O(total spikes · N) time.
        """
        if len(inputs) != self.n_inputs:
            raise ConfigurationError(
                f"expected {self.n_inputs} input trains, got {len(inputs)}"
            )
        grid, occupied, patterns = self._occupancy_patterns(inputs)
        if occupied.size == 0:
            empty = tuple(SpikeTrain.empty(grid) for _unused in self._masks)
            return OrthogonatorOutput(trains=empty, labels=self.labels, verify=False)

        trains = tuple(
            SpikeTrain(occupied[patterns == mask], grid) for mask in self._masks
        )
        # Each occupied slot lands in exactly one pattern bucket, so the
        # outputs are disjoint by construction; skip re-verification.
        return OrthogonatorOutput(trains=trains, labels=self.labels, verify=False)

    def _occupancy_patterns(self, inputs):
        """Occupied slots and their input-subset bit patterns."""
        grid = inputs[0].grid
        for i, train in enumerate(inputs[1:], start=1):
            if train.grid != grid:
                raise SpikeTrainError(
                    f"input {self.input_names[i]} lives on a different grid"
                )
        all_slots = np.concatenate([t.indices for t in inputs])
        if all_slots.size == 0:
            return grid, all_slots.astype(np.int64), all_slots.astype(np.int64)
        occupied = np.sort(all_slots)
        occupied = occupied[first_of_runs(occupied)]
        patterns = np.zeros(occupied.size, dtype=np.int64)
        for bit, train in enumerate(inputs):
            positions = np.searchsorted(occupied, train.indices)
            patterns[positions] |= 1 << bit
        return grid, occupied, patterns

    def transform_batch(self, *inputs: SpikeTrain) -> BatchOrthogonatorOutput:
        """All-products expansion emitted as one ``(2^N − 1, T)`` batch.

        One stable sort groups the occupied slots by product wire while
        keeping them slot-ordered — the batch's CSR layout directly.
        """
        if len(inputs) != self.n_inputs:
            raise ConfigurationError(
                f"expected {self.n_inputs} input trains, got {len(inputs)}"
            )
        grid, occupied, patterns = self._occupancy_patterns(inputs)
        m = self.n_outputs
        if occupied.size == 0:
            return BatchOrthogonatorOutput(
                batch=SpikeTrainBatch.empty(m, grid), labels=self.labels
            )
        mask_to_row = np.empty(1 << self.n_inputs, dtype=np.int64)
        for row, mask in enumerate(self._masks):
            mask_to_row[mask] = row
        rows = mask_to_row[patterns]
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=m)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        return BatchOrthogonatorOutput(
            batch=SpikeTrainBatch(occupied[order], ptr, grid),
            labels=self.labels,
        )

    def coincidence_product(self, output: OrthogonatorOutput) -> SpikeTrain:
        """The full-coincidence output (all inputs asserted)."""
        full_mask = (1 << self.n_inputs) - 1
        return output[product_label(full_mask, self.input_names)]
