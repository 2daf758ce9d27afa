"""Property suite: batched logicnet evaluation ≡ the per-gate reference.

Random network families — depth 1–4, ragged gate counts, sample counts
that do not divide 64 — run through both halves of the differential
harness (:mod:`repro.testing.differential`): the packed batched
evaluator must be **bit-identical** to the single-gate reference built
on the :mod:`repro.logic.gates` truth tables.
All 16 op ids are exercised explicitly too, including the two constant
gates whose outputs ignore their fan-in entirely.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backend import packed
from repro.backend.batch import SpikeTrainBatch
from repro.logic.netbatch import LogicNetBatch, output_summary, working_set
from repro.testing import differential
from repro.units import SimulationGrid

#: (n_networks, n_gates, depth, n_inputs, n_samples) sweep — depths 1–4,
#: ragged gate counts, and sample counts straddling word boundaries
#: (1 word exactly, partial tail words, multi-word with ragged tails).
SHAPES = [
    (3, 5, 1, 4, 64),
    (2, 3, 2, 3, 1),
    (4, 7, 2, 5, 63),
    (2, 6, 3, 4, 65),
    (5, 4, 3, 2, 130),
    (2, 9, 4, 6, 200),
    (1, 1, 4, 1, 127),
]

#: Wide enough that the default buffer size splits the words into
#: several blocks, the last one narrower.
WIDE_SHAPE = (3, 50, 3, 5, 50_000)


def _random_case(shape, case_seed):
    """One differential case: ``(nets, raster, packed words)``."""
    n_networks, n_gates, depth, n_inputs, n_samples = shape
    nets = LogicNetBatch.random(
        n_networks, n_gates, depth, n_inputs, seed=case_seed
    )
    rng = np.random.default_rng(case_seed + 1)
    raster = rng.random((n_inputs, n_samples)) < 0.4
    grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
    words = SpikeTrainBatch.from_raster(raster, grid).packed_words()
    return nets, raster, words, n_samples


class TestBatchedVersusReference:
    """The packed evaluator is the reference evaluator, only faster."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_popcount_summaries_match(self, shape):
        def reference(nets, raster, words, n_samples):
            outputs = differential.reference_evaluate(nets, raster)
            return outputs.sum(axis=-1, dtype=np.int64)

        def fast(nets, raster, words, n_samples):
            popcounts, _checksums = nets.evaluate(words, n_samples)
            return popcounts

        cases = [_random_case(shape, seed) for seed in range(3)]
        checked = differential.assert_equivalent(
            reference, fast, cases, describe=lambda case: f"shape={shape}"
        )
        assert checked == len(cases)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_output_words_match_reference_raster(self, shape):
        """Beyond summaries: every output bit equals the reference's."""
        nets, raster, words, n_samples = _random_case(shape, case_seed=77)
        expected = differential.reference_evaluate(nets, raster)
        out_words = nets.evaluate_words(words, n_samples)
        n_words = out_words.shape[-1]
        got = np.unpackbits(
            np.ascontiguousarray(out_words).view(np.uint8).reshape(
                nets.n_networks, nets.n_gates, n_words * 8
            ),
            axis=-1,
        )[:, :, :n_samples].astype(bool)
        np.testing.assert_array_equal(got, expected)
        # The packed outputs honour the tail-cleanliness invariant.
        assert packed.check_tail_clean(out_words, n_samples)

    def test_checksums_are_xor_folds_of_outputs(self):
        nets, _raster, words, n_samples = _random_case(SHAPES[4], case_seed=5)
        outputs = nets.evaluate_words(words, n_samples)
        _popcounts, checksums = output_summary(outputs)
        expected = np.bitwise_xor.reduce(
            outputs.reshape(outputs.shape[0], -1), axis=-1
        )
        np.testing.assert_array_equal(checksums, expected)


class TestAllSixteenTables:
    """Every truth-table id — constants included — matches its gate."""

    @pytest.mark.parametrize("op_id", range(16))
    def test_single_gate_network_matches_table(self, op_id):
        n_samples = 100  # ragged: two words, 36 tail bits
        rng = np.random.default_rng(op_id)
        raster = rng.random((2, n_samples)) < 0.5
        grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
        words = SpikeTrainBatch.from_raster(raster, grid).packed_words()
        op_ids = np.full((1, 1, 1), op_id, dtype=np.uint8)
        wiring = np.array([[[[0, 1]]]], dtype=np.int32)
        nets = LogicNetBatch(op_ids, wiring, n_inputs=2)
        expected = differential.reference_evaluate(nets, raster)
        popcounts, _ = nets.evaluate(words, n_samples)
        assert popcounts[0, 0] == int(expected.sum())
        # The gate's own table is the ground truth for both paths.
        lut = np.array(
            [
                differential.reference_gate(op_id).table[(int(a), int(b))]
                for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]
            ],
            dtype=bool,
        )
        by_table = lut[(raster[0].astype(np.int64) << 1) | raster[1]]
        np.testing.assert_array_equal(expected[0, 0], by_table)

    def test_constant_gates_ignore_inputs(self):
        """op 0 is all-zero, op 15 all-one — and 15 stays tail-clean."""
        n_samples = 70  # 6 tail bits in the second word
        grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
        raster = np.zeros((1, n_samples), dtype=bool)
        words = SpikeTrainBatch.from_raster(raster, grid).packed_words()
        wiring = np.zeros((1, 1, 2, 2), dtype=np.int32)
        false_net = LogicNetBatch(
            np.zeros((1, 1, 2), dtype=np.uint8), wiring, n_inputs=1
        )
        true_net = LogicNetBatch(
            np.full((1, 1, 2), 15, dtype=np.uint8), wiring, n_inputs=1
        )
        false_out = false_net.evaluate_words(words, n_samples)
        true_out = true_net.evaluate_words(words, n_samples)
        assert not false_out.any()
        assert packed.check_tail_clean(true_out, n_samples)
        popcounts, _ = true_net.evaluate(words, n_samples)
        assert popcounts.tolist() == [[n_samples, n_samples]]


class TestDeterminism:
    """spawn-key construction: ranges rebuild bit-identically anywhere."""

    def test_subrange_rebuild_is_bit_identical(self):
        full = LogicNetBatch.random(10, 6, 3, 4, seed=123)
        part = LogicNetBatch.random(4, 6, 3, 4, seed=123, net_start=5)
        np.testing.assert_array_equal(part.op_ids, full.op_ids[5:9])
        np.testing.assert_array_equal(part.wiring, full.wiring[5:9])

    @pytest.mark.parametrize("shape", SHAPES + [WIDE_SHAPE])
    def test_blocked_traversal_matches_single_block(
        self, shape, monkeypatch
    ):
        """The word-axis blocking is a traversal order, not a result.

        At one-word blocks, the default and one unbounded block alike,
        the words equal the single block's and ``evaluate``'s per-block
        fold equals the summary of the whole output.
        """
        nets, _raster, words, n_samples = _random_case(shape, case_seed=9)
        default = LogicNetBatch._BUFFER_BYTES
        monkeypatch.setattr(LogicNetBatch, "_BUFFER_BYTES", 1 << 60)
        single = nets.evaluate_words(words, n_samples)
        expected_counts, expected_sums = output_summary(single)
        for buffer_bytes in (8, default, 1 << 60):
            monkeypatch.setattr(LogicNetBatch, "_BUFFER_BYTES", buffer_bytes)
            np.testing.assert_array_equal(
                nets.evaluate_words(words, n_samples), single
            )
            popcounts, checksums = nets.evaluate(words, n_samples)
            np.testing.assert_array_equal(popcounts, expected_counts)
            np.testing.assert_array_equal(checksums, expected_sums)


class TestWorkingSet:
    """``working_set`` bounds what one ``evaluate`` call allocates."""

    @pytest.mark.parametrize(
        "n_networks, n_samples", [(16, 65536), (512, 8192)]
    )
    def test_traced_peak_is_below_the_charge(
        self, n_networks, n_samples
    ):
        """A pool shard, and many rows where a block is one word wide.

        Both stay far below the ``(N, G, n_words)`` output the
        evaluation no longer builds (8 MiB for the 16-network shard).
        """
        n_gates, depth, n_inputs = 64, 4, 16
        nets = LogicNetBatch.random(n_networks, n_gates, depth, n_inputs, 3)
        rng = np.random.default_rng(4)
        grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
        words = SpikeTrainBatch.from_raster(
            rng.random((n_inputs, n_samples)) < 0.05, grid
        ).packed_words()
        nets.evaluate(words, n_samples)  # warm up outside the trace
        tracemalloc.start()
        try:
            nets.evaluate(words, n_samples)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charge = working_set(n_networks, n_gates, depth, n_inputs, n_samples)
        output_bytes = n_networks * n_gates * words.shape[1] * 8
        assert peak < charge.nbytes < output_bytes
        if n_networks == 512:
            assert charge.block_words == 1
