"""Coincidence correlators: identifying neuro-bits by spike coincidence.

Section 5: "the gates have correlators for each input, which determine
the value of the input in a multi-variable space", and Section 2: "simple
coincidence detection of a single spike can identify any reference spike
train uniquely" — no time averaging, hence the scheme's speed.

:class:`CoincidenceCorrelator` implements that receiver against a
:class:`~repro.hyperspace.basis.HyperspaceBasis`:

* :meth:`identify` — classify a single-valued wire by its first spike;
* :meth:`identify_robust` — majority vote over the first k spikes, the
  defence against injected/foreign spikes;
* :meth:`detect_members` — set-membership readout of a superposition;
* :meth:`identify_batch` / :meth:`detect_members_batch` — the same
  receivers over a whole :class:`~repro.backend.batch.SpikeTrainBatch`
  in one vectorised pass against the basis;
* :func:`detection_latency_samples` — the latency distribution of
  first-coincidence identification, used by the speed benchmarks.

Every scalar method gathers the wire's slots through the basis's dense
``owner_vector`` instead of looping spike by spike in Python; the batch
methods additionally amortise the per-call overhead across all wires
via the batch's CSR layout (one gather over the concatenated slots of
every wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..backend import packed as packed_kernels
from ..backend.batch import SpikeTrainBatch
from ..errors import IdentificationError
from ..hyperspace.basis import HyperspaceBasis
from ..hyperspace.superposition import first_detection_slots
from ..spikes.train import SpikeTrain

__all__ = [
    "IdentificationResult",
    "BatchDetection",
    "BatchIdentification",
    "CoincidenceCorrelator",
    "detection_latency_samples",
]


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of identifying a wire against a basis.

    Attributes
    ----------
    element:
        Index of the identified basis element.
    label:
        Its label.
    decision_slot:
        Sample index of the spike that decided the identification.
    spikes_inspected:
        How many wire spikes were examined before deciding.
    """

    element: int
    label: str
    decision_slot: int
    spikes_inspected: int

    def decision_time(self, dt: float) -> float:
        """Decision latency in seconds from the observation start."""
        return self.decision_slot * dt


@dataclass(frozen=True)
class BatchIdentification:
    """Vectorised identification of a whole batch of wires.

    Array-of-structs form of N :class:`IdentificationResult` values so
    batch consumers never pay per-wire object construction; use
    :meth:`results` to materialise the per-wire dataclasses (bit
    identical to :meth:`CoincidenceCorrelator.identify` on each row).

    Attributes
    ----------
    elements:
        ``(N,)`` identified element per wire (-1: no coincidence).
    decision_slots:
        ``(N,)`` slot of the deciding spike (-1: no coincidence).
    spikes_inspected:
        ``(N,)`` wire spikes examined before deciding (0: no
        coincidence).
    labels:
        The basis labels, for materialisation.
    """

    elements: np.ndarray
    decision_slots: np.ndarray
    spikes_inspected: np.ndarray
    labels: tuple

    def __len__(self) -> int:
        return int(self.elements.size)

    def results(self) -> List[Optional[IdentificationResult]]:
        """Per-wire :class:`IdentificationResult` objects (None = no hit)."""
        return [
            None
            if element < 0
            else IdentificationResult(
                element=int(element),
                label=self.labels[int(element)],
                decision_slot=int(slot),
                spikes_inspected=int(inspected),
            )
            for element, slot, inspected in zip(
                self.elements.tolist(),
                self.decision_slots.tolist(),
                self.spikes_inspected.tolist(),
            )
        ]


@dataclass(frozen=True)
class BatchDetection:
    """Vectorised set-membership readout of a whole batch of wires.

    Attributes
    ----------
    membership:
        ``(N, M)`` boolean matrix: wire n carries element m.
    first_slots:
        ``(N, M)`` int64 matrix of earliest detection slots (-1 where
        the element was never seen on that wire).
    """

    membership: np.ndarray
    first_slots: np.ndarray

    def as_dicts(self) -> List[Dict[int, int]]:
        """Per-wire ``element → earliest slot`` mappings, ordered by slot.

        Row n matches :meth:`CoincidenceCorrelator.detect_members` on
        the same wire exactly.
        """
        results: List[Dict[int, int]] = []
        for row_present, row_slots in zip(self.membership, self.first_slots):
            elements = np.flatnonzero(row_present)
            order = np.argsort(row_slots[elements], kind="stable")
            results.append(
                {int(e): int(row_slots[e]) for e in elements[order]}
            )
        return results


class CoincidenceCorrelator:
    """Identifies spike trains against one hyperspace basis."""

    def __init__(self, basis: HyperspaceBasis) -> None:
        self.basis = basis

    # ------------------------------------------------------------------
    # Scalar receivers (single wire, vectorised over its spikes)
    # ------------------------------------------------------------------

    def _owned_spikes(self, wire: SpikeTrain, start_slot: int):
        """Wire slots from ``start_slot`` and their owning elements."""
        slots = wire.indices[np.searchsorted(wire.indices, start_slot) :]
        return slots, self.basis.owners_of(slots)

    def identify(self, wire: SpikeTrain, start_slot: int = 0) -> IdentificationResult:
        """First-coincidence identification of a single-valued wire.

        Scans the wire's spikes from ``start_slot`` onward; the first
        spike landing in a slot owned by a basis element decides.  Spikes
        owned by no element (foreign/noise) are skipped.  Raises
        :class:`IdentificationError` if no spike ever coincides — for a
        clean wire that means it belongs to a different hyperspace.
        """
        slots, owners = self._owned_spikes(wire, start_slot)
        hits = np.flatnonzero(owners >= 0)
        if not hits.size:
            raise IdentificationError(
                f"no coincidence between the wire ({len(wire)} spikes from slot "
                f"{start_slot}) and any of the {self.basis.size} basis elements"
            )
        first = int(hits[0])
        element = int(owners[first])
        return IdentificationResult(
            element=element,
            label=self.basis.labels[element],
            decision_slot=int(slots[first]),
            spikes_inspected=first + 1,
        )

    def identify_robust(
        self,
        wire: SpikeTrain,
        votes: int = 3,
        start_slot: int = 0,
    ) -> IdentificationResult:
        """Majority-vote identification over the first ``votes`` coincidences.

        A single foreign spike cannot flip the decision: the element
        owning the most of the first ``votes`` coinciding spikes wins
        (ties broken by earliest decisive spike).  Falls back to plain
        first-coincidence behaviour when ``votes == 1``.
        """
        if votes < 1:
            raise IdentificationError(f"votes must be >= 1, got {votes}")
        slots, owners = self._owned_spikes(wire, start_slot)
        hits = np.flatnonzero(owners >= 0)
        if not hits.size:
            raise IdentificationError(
                f"no coincidence between the wire and any of the "
                f"{self.basis.size} basis elements"
            )
        decisive = hits[:votes]
        # The per-spike scan stopped at the votes-th coincidence (or ran
        # off the end of the wire when fewer exist).
        inspected = int(decisive[-1]) + 1 if decisive.size >= votes else slots.size
        voting_owners = owners[decisive]
        tally = np.bincount(voting_owners, minlength=self.basis.size)
        first_seen = np.full(self.basis.size, -1, dtype=np.int64)
        first_seen[voting_owners[::-1]] = slots[decisive[::-1]]
        # Winner: most votes, earliest decisive spike on ties.
        candidates = np.flatnonzero(tally == tally.max())
        best = int(candidates[np.argmin(first_seen[candidates])])
        return IdentificationResult(
            element=best,
            label=self.basis.labels[best],
            decision_slot=int(first_seen[best]),
            spikes_inspected=inspected,
        )

    def detect_members(
        self,
        wire: SpikeTrain,
        until_slot: Optional[int] = None,
    ) -> Dict[int, int]:
        """Set-membership readout: element index → first detection slot.

        Observes the wire up to ``until_slot`` (exclusive; default: the
        whole record).  Elements absent from the result were never seen —
        for a clean superposition wire that means they are not members.
        Insertion order follows detection order (earliest slot first).
        """
        limit = self.basis.grid.n_samples if until_slot is None else until_slot
        trimmed = SpikeTrain._from_sorted_unique(
            wire.indices[: np.searchsorted(wire.indices, limit)], wire.grid
        )
        return first_detection_slots(self.basis, trimmed)

    def contains(
        self,
        wire: SpikeTrain,
        element,
        until_slot: Optional[int] = None,
    ) -> bool:
        """Membership test: does ``element`` appear on ``wire``?

        Physically this is a coincidence check between the wire and one
        reference train, the cheapest of the paper's set operations.
        """
        index = self.basis.index_of(element)
        reference = self.basis.trains[index]
        shared = wire.intersection(reference)
        if until_slot is None:
            return len(shared) > 0
        first = shared.first_spike_index()
        return first is not None and first < until_slot

    # ------------------------------------------------------------------
    # Batched receivers (one vectorised pass over the whole batch)
    # ------------------------------------------------------------------

    def identify_batch(
        self,
        batch: SpikeTrainBatch,
        start_slot: int = 0,
        missing: str = "raise",
    ) -> BatchIdentification:
        """First-coincidence identification of every wire in ``batch``.

        One gather through the basis's ``owner_vector`` over the batch's
        concatenated spike slots classifies all N wires at once —
        O(total spikes) work with no per-wire Python overhead and no
        sorting.  :meth:`BatchIdentification.results` matches
        :meth:`identify` on each row bit for bit.

        ``missing`` selects what happens to wires with no coincidence:
        ``"raise"`` (default) raises :class:`IdentificationError` naming
        the rows, ``"none"`` marks them -1 in the result arrays.

        Batches whose ``prefers_csr_walk()`` is false (packed-primary
        ones, dense CSR) run on the bitset itself
        (:meth:`_identify_batch_packed`), bit-identical by contract.
        """
        if missing not in ("raise", "none"):
            raise IdentificationError(
                f"missing must be 'raise' or 'none', got {missing!r}"
            )
        self._check_batch_grid(batch)
        # The walk stays for sparse CSR-only batches, which would pay a
        # pack first: on the 16-element serving basis at T = 65536
        # (2-CPU Xeon, NumPy 2.4.6) it takes 0.48-0.52 ms against
        # 1.5-1.6 ms for pack-then-packed at 256 wires, and 4.9-6.0 ms
        # against 31-36 ms at 4096.
        if not batch.prefers_csr_walk():
            return self._identify_batch_packed(batch, start_slot, missing)
        values, ptr = batch.csr()
        n = batch.n_trains
        owners = self.basis.owner_vector[values]
        live = owners >= 0
        if start_slot > 0:
            live &= values >= start_slot
        hit_positions = np.flatnonzero(live)
        row_of = np.repeat(np.arange(n), np.diff(ptr))
        # First hit per row without sorting: scatter positions in
        # reverse so the earliest (hit positions ascend within each
        # row) lands last and wins.
        first_position = np.full(n, -1, dtype=np.int64)
        hit_rows = row_of[hit_positions]
        first_position[hit_rows[::-1]] = hit_positions[::-1]
        missed = first_position < 0

        if missing == "raise" and missed.any():
            raise IdentificationError(
                f"no coincidence between wire(s) "
                f"{np.flatnonzero(missed).tolist()} and any of the "
                f"{self.basis.size} basis elements"
            )

        # Spikes inspected = wire spikes from start_slot up to and
        # including the decisive one; the row's scan start is found by
        # the same reverse-scatter trick over values >= start_slot.
        if start_slot > 0:
            starts = ptr[1:].astype(np.int64, copy=True)
            in_window = np.flatnonzero(values >= start_slot)
            window_rows = row_of[in_window]
            starts[window_rows[::-1]] = in_window[::-1]
        else:
            starts = ptr[:-1]

        if values.size:
            safe_first = np.where(missed, 0, first_position)
            elements = np.where(missed, -1, owners[safe_first].astype(np.int64))
            decision_slots = np.where(missed, -1, values[safe_first])
            spikes_inspected = np.where(missed, 0, safe_first - starts + 1)
        else:
            elements = np.full(n, -1, dtype=np.int64)
            decision_slots = np.full(n, -1, dtype=np.int64)
            spikes_inspected = np.zeros(n, dtype=np.int64)
        return BatchIdentification(
            elements=elements,
            decision_slots=decision_slots,
            spikes_inspected=spikes_inspected,
            labels=self.basis.labels,
        )

    def _identify_batch_packed(
        self, batch: SpikeTrainBatch, start_slot: int, missing: str
    ) -> BatchIdentification:
        """First-coincidence identification straight on the packed words.

        ``wire & owned_words`` keeps exactly the coinciding spikes (the
        basis rows are disjoint), the decision slot is the first set
        bit per row, and ``spikes_inspected`` is a popcount prefix sum
        over the observation window — no CSR decode, no raster, O(N ×
        n_words) touched bytes.  Bit-identical to the CSR path row for
        row, including the ``missing``/``start_slot`` semantics.
        """
        words = batch.packed_words()
        n = batch.n_trains
        decision = packed_kernels.first_and_slots(
            words, self.basis.owned_words, start=start_slot
        )
        missed = decision < 0
        if missing == "raise" and missed.any():
            raise IdentificationError(
                f"no coincidence between wire(s) "
                f"{np.flatnonzero(missed).tolist()} and any of the "
                f"{self.basis.size} basis elements"
            )
        # Spikes inspected = wire spikes in [start_slot, decision] =
        # bits≤decision − bits≤start−1, both from one popcount prefix
        # sum over the *unmodified* words (int32: row totals are
        # bounded by the grid length) — no windowed copy of the batch.
        # The prefix sum stops at the last word any row indexes into
        # (decisions come early on the serving path; the grid tail
        # would be popcounted for nothing).
        safe = np.where(missed, 0, decision)
        rows = np.arange(n)
        last_word = int(safe.max(initial=0)) >> 6
        if start_slot > 0:
            last_word = max(
                last_word,
                (min(start_slot, self.basis.grid.n_samples) - 1) >> 6,
            )
        cumulative = np.cumsum(
            packed_kernels.popcount(words[:, : last_word + 1]),
            axis=1,
            dtype=np.int32,
        )

        def bits_through(slots):
            """Per-row count of wire spikes in ``[0, slots]`` (int64)."""
            word_index = slots >> 6
            whole = np.where(
                word_index > 0,
                cumulative[rows, np.maximum(word_index - 1, 0)],
                0,
            ).astype(np.int64)
            partial = words[rows, word_index] & packed_kernels.le_word_masks(
                slots
            )
            return whole + packed_kernels.popcount(partial)

        inspected = bits_through(safe)
        if start_slot > 0:
            inspected -= bits_through(
                np.full(n, min(start_slot, self.basis.grid.n_samples) - 1)
            )
        elements = np.where(
            missed, -1, self.basis.owner_vector[safe].astype(np.int64)
        )
        return BatchIdentification(
            elements=elements,
            decision_slots=np.where(missed, -1, safe),
            spikes_inspected=np.where(missed, 0, inspected),
            labels=self.basis.labels,
        )

    def detect_members_batch(
        self,
        batch: SpikeTrainBatch,
        until_slot: Optional[int] = None,
    ) -> BatchDetection:
        """Set-membership readout of every wire in ``batch`` at once.

        Returns the full ``(N, M)`` membership matrix plus earliest
        detection slots; :meth:`BatchDetection.as_dicts` recovers the
        per-wire mappings of :meth:`detect_members` exactly.  Batches
        whose ``prefers_csr_walk()`` is false route through the packed
        kernels (:meth:`_detect_members_batch_packed`) and never decode
        the non-coinciding spikes.
        """
        self._check_batch_grid(batch)
        limit = self.basis.grid.n_samples if until_slot is None else until_slot
        # The walk stays wherever the CSR is resident: on the 16-element
        # serving basis at T = 65536 (2-CPU Xeon, NumPy 2.4.6) it beats
        # the packed readout even with the words already resident,
        # 0.81-0.86 ms against 10.5-11.3 ms at 256 wires and
        # 12.6-15.0 ms against 150-172 ms at 4096.
        if not batch.prefers_csr_walk():
            return self._detect_members_batch_packed(batch, limit)
        values, ptr = batch.csr()
        n, m = batch.n_trains, self.basis.size
        owners = self.basis.owner_vector[values]
        live = (owners >= 0) & (values < limit)
        positions = np.flatnonzero(live)
        row_of = np.repeat(np.arange(n), np.diff(ptr))

        first_slots = np.full((n, m), -1, dtype=np.int64)
        # Scatter in reverse slot order so the earliest occurrence of
        # each (wire, element) pair lands last and wins.
        reverse = positions[::-1]
        first_slots[row_of[reverse], owners[reverse]] = values[reverse]
        return BatchDetection(
            membership=first_slots >= 0, first_slots=first_slots
        )

    def _detect_members_batch_packed(
        self, batch: SpikeTrainBatch, limit: int
    ) -> BatchDetection:
        """Membership readout straight on the packed words.

        ``wire & owned_words`` (windowed to ``[0, limit)``) isolates
        the coinciding spikes on the bitset; only *those* decode —
        O(coincident spikes), never the full wires — and feed the same
        earliest-wins reverse scatter as the CSR path, so the result is
        bit-identical.  The rows are processed in chunks, bounding the
        decode intermediates to a fixed byte budget however large the
        batch.
        """
        n, m = batch.n_trains, self.basis.size
        words = batch.packed_words()
        first_slots = np.full((n, m), -1, dtype=np.int64)
        step = max(1, (1 << 18) // max(1, words.shape[1] * 8))
        for lo in range(0, n, step):
            hits = words[lo : lo + step] & self.basis.owned_words
            if limit < self.basis.grid.n_samples:
                packed_kernels.clear_slots_from(hits, limit)
            row_of, values = packed_kernels.unpack_coords(hits)
            owners = self.basis.owner_vector[values]
            # Scatter in reverse slot order so the earliest occurrence
            # of each (wire, element) pair lands last and wins.  The
            # reversed operands must be materialised: fancy assignment
            # through negative-stride views may iterate in memory order.
            reverse = np.arange(values.size - 1, -1, -1)
            first_slots[row_of[reverse] + lo, owners[reverse]] = values[reverse]
        return BatchDetection(
            membership=first_slots >= 0, first_slots=first_slots
        )

    def _check_batch_grid(self, batch: SpikeTrainBatch) -> None:
        if not isinstance(batch, SpikeTrainBatch):
            raise IdentificationError(
                f"expected SpikeTrainBatch, got {type(batch).__name__}"
            )
        if batch.grid != self.basis.grid:
            raise IdentificationError(
                "batch lives on a different grid than the basis: "
                f"{batch.grid.describe()} vs {self.basis.grid.describe()}"
            )


def detection_latency_samples(
    basis: HyperspaceBasis,
    element,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Latency (samples) from a random start to the element's next spike.

    Draws ``n_trials`` uniform observation-start slots and measures how
    long a correlator waits for the first spike of the element's
    reference train — the paper's "first coincident spike" delay.  Starts
    falling after the element's last spike are redrawn (censored), so the
    returned array always holds ``n_trials`` finite latencies.
    """
    index = basis.index_of(element)
    spikes = basis.trains[index].indices
    if spikes.size == 0:
        raise IdentificationError(
            f"element {basis.labels[index]!r} has no spikes; latency undefined"
        )
    latencies = np.empty(n_trials, dtype=np.int64)
    filled = 0
    last = spikes[-1]
    while filled < n_trials:
        starts = rng.integers(0, basis.grid.n_samples, size=n_trials - filled)
        starts = starts[starts <= last]
        if starts.size == 0:
            continue
        positions = np.searchsorted(spikes, starts)
        hits = spikes[positions] - starts
        take = min(hits.size, n_trials - filled)
        latencies[filled : filled + take] = hits[:take]
        filled += take
    return latencies
