"""Batched random logic networks evaluated on packed words.

:class:`LogicNetBatch` holds N same-shaped feed-forward networks of
2-input truth-table gates — per-gate 16-way op ids plus fixed random
wiring — and evaluates all of them at once, layer by layer, directly on
the packed uint64 substrate (:mod:`repro.backend.packed`).  This is the
SNIPPETS ``LogicLayer`` model lifted onto the bitset backend: where the
exemplar evaluates one network's layer as 16 masked tensor ops, here a
whole layer of G gates across N networks is one
:func:`~repro.backend.packed.gate_table_words` call per block of words
— six wide word-ops plus two gathers on the wiring — and neither the
dense ``(N, G, T)`` boolean raster nor the packed ``(N, G, n_words)``
output is ever materialised.

Evaluation follows the simulator's phase structure, once per block of
words, in buffers allocated once per call:

* **phase 0 — input write**: the shared input lines arrive as a clean
  packed ``(n_inputs, n_words)`` array (typically a
  :class:`~repro.backend.batch.SpikeTrainBatch`'s ``packed_words()``);
* **phase 1 — wiring lookup**: each gate gathers its two fan-in rows
  (layer 0 indexes the shared inputs, deeper layers the previous
  layer's G gate outputs);
* **phase 2 — gate eval**: one ``gate_table_words`` call per layer
  evaluates every gate's truth table in parallel;
* **phase 3 — output collection**: the final layer's words are the
  network outputs, folded block by block into per-gate spike counts
  and per-network checksums without unpacking.

Determinism.  :meth:`LogicNetBatch.random` draws network ``i``'s tables
from ``spawn_rng(seed, i)`` — the per-key `SeedSequence` spawn streams
of :mod:`repro.noise.synthesis` — so any contiguous network range can
be rebuilt bit-identically by any process from ``(seed, shape)`` alone.
That property is what lets the ``logicnet`` experiment shard over the
network axis (serial ≡ sharded) and lets serving workers rebuild their
shard's networks from a 20-byte request instead of shipping tables.

The correctness contract for all of this is
:mod:`repro.testing.differential`: the batched path must be
bit-identical to the obvious single-gate reference evaluator built on
:mod:`repro.logic.gates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..backend import packed
from ..backend.shared import SharedArena, SharedArraySpec, attach_array
from ..noise.synthesis import spawn_rng

__all__ = [
    "LogicNetBatch",
    "LogicNetHandle",
    "WorkingSet",
    "output_summary",
    "working_set",
]


@dataclass(frozen=True)
class LogicNetHandle:
    """Picklable shared-memory locator of one exported batch.

    The gate tables live in two arena segments; the handle carries
    their specs plus the input arity.  Workers attach with
    :meth:`LogicNetBatch.from_shared` — the networks are shipped once
    through the run arena, never per shard.
    """

    op_ids: SharedArraySpec
    wiring: SharedArraySpec
    n_inputs: int


class LogicNetBatch:
    """N fixed random logic networks with identical shape.

    ``op_ids`` is ``(N, depth, G)`` uint8 in ``[0, 16)`` — per-gate
    truth-table ids in the conventional enumeration
    (:func:`~repro.backend.packed.gate_masks`).  ``wiring`` is
    ``(N, depth, G, 2)`` int32 fan-in indices: layer 0 entries index
    the ``n_inputs`` shared input lines, deeper layers index the
    previous layer's ``G`` gate outputs.
    """

    def __init__(
        self, op_ids: np.ndarray, wiring: np.ndarray, n_inputs: int
    ) -> None:
        op_ids = np.asarray(op_ids, dtype=np.uint8)
        wiring = np.asarray(wiring, dtype=np.int32)
        if op_ids.ndim != 3 or op_ids.shape[1] < 1:
            raise ValueError(
                "op_ids must be (n_networks, depth >= 1, n_gates)"
            )
        if wiring.shape != op_ids.shape + (2,):
            raise ValueError(
                f"wiring shape {wiring.shape} does not match op_ids "
                f"{op_ids.shape} + (2,)"
            )
        if int(n_inputs) < 1:
            raise ValueError("a network needs at least one input line")
        if op_ids.size and int(op_ids.max()) > 15:
            raise ValueError("op ids must be < 16")
        # Evaluation gathers with ``mode="clip"``, so an index out of
        # range would silently read an edge row instead of failing.
        for layer in range(wiring.shape[1]):
            limit = int(n_inputs) if layer == 0 else wiring.shape[2]
            fan_in = wiring[:, layer]
            if fan_in.size and (fan_in.min() < 0 or fan_in.max() >= limit):
                raise ValueError(
                    f"layer {layer} fan-in must lie in [0, {limit})"
                )
        self.op_ids = op_ids
        self.wiring = wiring
        self.n_inputs = int(n_inputs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        n_networks: int,
        n_gates: int,
        depth: int,
        n_inputs: int,
        seed: int,
        *,
        net_start: int = 0,
    ) -> "LogicNetBatch":
        """Networks ``net_start .. net_start + n_networks`` of a family.

        Network ``i`` (absolute index) draws from ``spawn_rng(seed, i)``
        in one fixed order — ops, then layer-0 wiring, then deep
        wiring — so the family is a pure function of
        ``(seed, n_gates, depth, n_inputs)`` and any contiguous range
        of it rebuilds bit-identically anywhere.
        """
        if n_gates < 1 or depth < 1:
            raise ValueError("networks need n_gates >= 1 and depth >= 1")
        n_networks = int(n_networks)
        op_ids = np.empty((n_networks, depth, n_gates), dtype=np.uint8)
        wiring = np.empty((n_networks, depth, n_gates, 2), dtype=np.int32)
        for row, index in enumerate(
            range(int(net_start), int(net_start) + n_networks)
        ):
            rng = spawn_rng(seed, index)
            op_ids[row] = rng.integers(
                0, 16, size=(depth, n_gates), dtype=np.uint8
            )
            wiring[row, 0] = rng.integers(
                0, n_inputs, size=(n_gates, 2), dtype=np.int32
            )
            if depth > 1:
                wiring[row, 1:] = rng.integers(
                    0, n_gates, size=(depth - 1, n_gates, 2), dtype=np.int32
                )
        return cls(op_ids, wiring, n_inputs)

    # ------------------------------------------------------------------
    # Shape and slicing
    # ------------------------------------------------------------------

    @property
    def n_networks(self) -> int:
        return self.op_ids.shape[0]

    @property
    def depth(self) -> int:
        return self.op_ids.shape[1]

    @property
    def n_gates(self) -> int:
        return self.op_ids.shape[2]

    def select_networks(self, start: int, stop: int) -> "LogicNetBatch":
        """The sub-batch of networks ``[start, stop)`` (views, no copy)."""
        return LogicNetBatch(
            self.op_ids[start:stop], self.wiring[start:stop], self.n_inputs
        )

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------

    def to_shared(self, arena: SharedArena) -> LogicNetHandle:
        """Export the gate tables into ``arena``; returns the handle."""
        return LogicNetHandle(
            op_ids=arena.share_array(self.op_ids),
            wiring=arena.share_array(self.wiring),
            n_inputs=self.n_inputs,
        )

    @classmethod
    def from_shared(
        cls,
        handle: LogicNetHandle,
        *,
        networks: Optional[Tuple[int, int]] = None,
    ) -> "LogicNetBatch":
        """Attach an exported batch (optionally one network range)."""
        op_ids = attach_array(handle.op_ids)
        wiring = attach_array(handle.wiring)
        if networks is not None:
            start, stop = networks
            op_ids = op_ids[start:stop]
            wiring = wiring[start:stop]
        return cls(op_ids, wiring, handle.n_inputs)

    # ------------------------------------------------------------------
    # Evaluation (phases 0-3)
    # ------------------------------------------------------------------

    #: Bytes of state per word block, i.e. per ``(block, rows)``
    #: buffer.  Purely a traversal order: results are bit-identical for
    #: any value.  Chosen by measuring a 16-network pool shard and the
    #: 256-network bench shape (table in ``docs/logicnet.md``, "Why it
    #: is fast"): 256 KiB was fastest at both, together with 512 KiB.
    _BUFFER_BYTES = 1 << 18

    def _blocks(
        self, input_words: np.ndarray, n_samples: int
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(first word, final-layer words)`` per word block.

        Allocates once: per-layer flat fan-in rows and gate masks, and
        three word-major ``(block, N × G)`` buffers.  Each block runs
        all layers in them — both operands are gathered (phase 1)
        before the gate eval (phase 2) overwrites the state — and the
        one tail mask lands on the last word's final layer.  The
        yielded ``(N, G, width)`` view is overwritten by the next
        block.
        """
        input_words = np.ascontiguousarray(input_words, dtype=np.uint64)
        n_nets, depth, n_gates = self.op_ids.shape
        n_lines, n_words = input_words.shape
        if n_lines != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input lines, got {n_lines}"
            )
        if n_words != packed.n_packed_words(n_samples):
            raise ValueError(
                f"{n_words} input words do not hold {n_samples} samples"
            )
        rows = n_nets * n_gates
        block = working_set(
            n_nets, n_gates, depth, self.n_inputs, n_samples
        ).block_words
        # Layer 0 indexes the input lines; deeper layers index state
        # columns, network n's gates starting at column n * G.
        offsets = np.arange(n_nets, dtype=np.intp)[:, None] * n_gates
        layers = []
        for layer in range(depth):
            fan_in = np.moveaxis(self.wiring[:, layer], -1, 0).astype(
                np.intp, order="C"
            )
            if layer:
                fan_in += offsets
            fan_a, fan_b = fan_in.reshape(2, rows)
            masks = packed.gate_masks(self.op_ids[:, layer])
            layers.append((fan_a, fan_b, masks))
        lines_buf = np.empty(block * self.n_inputs, dtype=np.uint64)
        buffers = [np.empty(block * rows, dtype=np.uint64) for _ in range(3)]
        tail = packed.tail_mask_words(n_samples)[-1:]
        for w_lo in range(0, n_words, block):
            width = min(block, n_words - w_lo)
            lines = lines_buf[: width * self.n_inputs].reshape(width, -1)
            state, a, b = (
                buf[: width * rows].reshape(width, rows) for buf in buffers
            )
            np.copyto(lines, input_words[:, w_lo : w_lo + width].T)
            source = lines
            for fan_a, fan_b, masks in layers:
                np.take(source, fan_a, axis=1, out=a, mode="clip")
                np.take(source, fan_b, axis=1, out=b, mode="clip")
                packed.gate_table_words(masks, a, b, out=state)
                source = state
            if w_lo + width == n_words:
                state[-1] &= tail
            final = state.reshape(width, n_nets, n_gates)
            yield w_lo, final.transpose(1, 2, 0)

    def evaluate_words(
        self, input_words: np.ndarray, n_samples: int
    ) -> np.ndarray:
        """Final-layer outputs as packed words, ``(N, G, n_words)``.

        ``input_words`` is the clean packed ``(n_inputs, n_words)``
        form of the shared input lines; every network reads the same
        lines.  Runs :meth:`evaluate`'s block loop and copies each
        block out: the one call that holds the whole output.
        """
        out = np.empty(
            (self.n_networks, self.n_gates, np.shape(input_words)[1]),
            dtype=np.uint64,
        )
        for w_lo, block in self._blocks(input_words, n_samples):
            out[:, :, w_lo : w_lo + block.shape[-1]] = block
        return out

    def evaluate(
        self, input_words: np.ndarray, n_samples: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate and collect outputs (phase 3).

        Returns ``(popcounts, checksums)``: per-gate output spike
        counts ``(N, G)`` int64 and per-network uint64 checksums —
        the XOR fold of the final layer's words, a whole-output
        fingerprint that any bit flip perturbs.  Each word block's
        final layer is folded into both through :func:`output_summary`
        as it completes, so the ``(N, G, n_words)`` output never
        exists; the call holds :func:`working_set` bytes.
        """
        popcounts = np.zeros((self.n_networks, self.n_gates), dtype=np.int64)
        checksums = np.zeros(self.n_networks, dtype=np.uint64)
        for _w_lo, block in self._blocks(input_words, n_samples):
            block_counts, block_sums = output_summary(block)
            popcounts += block_counts
            checksums ^= block_sums
        return popcounts, checksums


class WorkingSet(NamedTuple):
    """How :meth:`LogicNetBatch.evaluate` traverses one call."""

    #: Words per block (the last block may be narrower).
    block_words: int
    #: Bytes the call holds at its peak.
    nbytes: int


def working_set(
    n_networks: int, n_gates: int, depth: int, n_inputs: int, n_samples: int
) -> WorkingSet:
    """The block width and peak bytes of one :meth:`LogicNetBatch.evaluate`.

    ``evaluate`` sizes its blocks here, and the server charges
    ``nbytes`` to its in-flight budget, so the charge is what the call
    allocates: the three ``(block, rows)`` buffers plus a block of
    input lines, two flat fan-in rows and four gate masks per gate and
    layer, the popcount and checksum accumulators, and one block's
    :func:`output_summary` temporaries — on the LUT popcount a
    contiguous copy and a table lookup, 13 bytes per word, plus a
    fixed allowance for NumPy's reduction buffers.  The whole output
    is never held.
    """
    rows = n_networks * n_gates
    n_words = packed.n_packed_words(n_samples)
    block = LogicNetBatch._BUFFER_BYTES // (8 * max(1, rows))
    block = max(1, min(n_words, block))
    buffers = 8 * block * (3 * rows + n_inputs)
    tables = 8 * 6 * depth * rows
    accumulators = 8 * (rows + n_networks)
    fold = 13 * block * rows + accumulators + (1 << 17)
    return WorkingSet(block, buffers + tables + accumulators + fold)


def output_summary(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(popcounts (N, G) int64, checksums (N,) uint64)`` of outputs."""
    popcounts = packed.popcount(outputs).sum(axis=-1, dtype=np.int64)
    checksums = np.bitwise_xor.reduce(outputs, axis=(1, 2))
    return popcounts, checksums
