"""Degenerate logicnet shapes, plus sharded ≡ serial at the spec level.

The batched evaluator's contract has to hold at the edges of its shape
space — 0 networks, single-gate networks, 1-slot grids, all-silent
inputs — and the ``logicnet`` experiment's shard plan has to reassemble
those edges bit-identically through every dispatch path (serial,
shards run in-process, shards run on a pool), exactly as
``tests/backend/test_degenerate.py`` demands of the bitset batches.
"""

import json

import numpy as np
import pytest

from repro.backend import packed
from repro.backend.batch import SpikeTrainBatch
from repro.logic.netbatch import LogicNetBatch, output_summary
from repro.pipeline import Runner, get_spec, to_jsonable
from repro.testing import differential
from repro.units import SimulationGrid

#: A small spec config the sharded-equality tests share.
SMALL_SPEC = {
    "n_networks": 10,
    "n_gates": 6,
    "depth": 2,
    "basis_size": 4,
    "n_shards": 3,
}


def _packed_lines(raster, n_samples):
    grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
    return SpikeTrainBatch.from_raster(raster, grid).packed_words()


class TestZeroNetworks:
    """N=0 is a legal empty sweep on every path."""

    def test_random_zero_networks(self):
        nets = LogicNetBatch.random(0, 4, 2, 3, seed=1)
        assert nets.n_networks == 0
        assert nets.op_ids.shape == (0, 2, 4)
        assert nets.wiring.shape == (0, 2, 4, 2)

    def test_evaluate_zero_networks(self):
        nets = LogicNetBatch.random(0, 4, 2, 3, seed=1)
        raster = np.zeros((3, 100), dtype=bool)
        words = _packed_lines(raster, 100)
        popcounts, checksums = nets.evaluate(words, 100)
        assert popcounts.shape == (0, 4)
        assert checksums.shape == (0,)
        assert checksums.dtype == np.uint64

    def test_select_empty_range(self):
        nets = LogicNetBatch.random(5, 4, 2, 3, seed=1)
        empty = nets.select_networks(2, 2)
        assert empty.n_networks == 0
        words = _packed_lines(np.zeros((3, 64), dtype=bool), 64)
        popcounts, _ = empty.evaluate(words, 64)
        assert popcounts.shape == (0, 4)

    def test_output_summary_of_empty(self):
        outputs = np.empty((0, 4, 2), dtype=np.uint64)
        popcounts, checksums = output_summary(outputs)
        assert popcounts.shape == (0, 4)
        assert checksums.shape == (0,)


class TestSingleGateNetworks:
    """G=1, depth=1 — the smallest network — still matches the reference."""

    def test_matches_reference(self):
        nets = LogicNetBatch.random(6, 1, 1, 2, seed=3)
        rng = np.random.default_rng(4)
        raster = rng.random((2, 90)) < 0.5
        words = _packed_lines(raster, 90)
        expected = differential.reference_evaluate(nets, raster)
        popcounts, _ = nets.evaluate(words, 90)
        np.testing.assert_array_equal(
            popcounts, expected.sum(axis=-1, dtype=np.int64)
        )

    def test_deep_single_gate_chain(self):
        """depth>1 with G=1: every deep layer can only wire to gate 0."""
        nets = LogicNetBatch.random(3, 1, 4, 2, seed=5)
        assert int(nets.wiring[:, 1:].max()) == 0
        rng = np.random.default_rng(6)
        raster = rng.random((2, 65)) < 0.5
        words = _packed_lines(raster, 65)
        expected = differential.reference_evaluate(nets, raster)
        popcounts, _ = nets.evaluate(words, 65)
        np.testing.assert_array_equal(
            popcounts, expected.sum(axis=-1, dtype=np.int64)
        )


class TestOneSlotGrids:
    """n_samples=1: one word, 63 tail bits to keep clean."""

    @pytest.mark.parametrize("bit", [False, True])
    def test_single_slot(self, bit):
        nets = LogicNetBatch.random(4, 3, 2, 2, seed=7)
        raster = np.full((2, 1), bit, dtype=bool)
        words = _packed_lines(raster, 1)
        expected = differential.reference_evaluate(nets, raster)
        out_words = nets.evaluate_words(words, 1)
        assert packed.check_tail_clean(out_words, 1)
        popcounts, _ = nets.evaluate(words, 1)
        np.testing.assert_array_equal(
            popcounts, expected.sum(axis=-1, dtype=np.int64)
        )
        assert set(popcounts.ravel().tolist()) <= {0, 1}


class TestAllZeroInputs:
    """Silent lines: outputs are pure functions of the constant columns."""

    def test_matches_reference_on_silence(self):
        nets = LogicNetBatch.random(5, 4, 3, 3, seed=11)
        raster = np.zeros((3, 130), dtype=bool)
        words = _packed_lines(raster, 130)
        expected = differential.reference_evaluate(nets, raster)
        popcounts, _ = nets.evaluate(words, 130)
        np.testing.assert_array_equal(
            popcounts, expected.sum(axis=-1, dtype=np.int64)
        )
        # On constant-zero inputs a gate's output column is constant,
        # so each per-gate count is all-or-nothing.
        assert set(popcounts.ravel().tolist()) <= {0, 130}


class TestWiringValidation:
    """Out-of-range fan-in is refused at construction, naming the layer."""

    XOR = np.full((1, 1, 1), 6, dtype=np.uint8)

    def test_negative_fan_in_is_rejected(self):
        # Unchecked, [0, -1] on 3 inputs reads input 2: the same
        # checksum as wiring [0, 2], with no error.
        with pytest.raises(ValueError, match=r"layer 0 fan-in .*\[0, 3\)"):
            LogicNetBatch(self.XOR, [[[[0, -1]]]], n_inputs=3)

    def test_fan_in_equal_to_n_inputs_is_rejected(self):
        with pytest.raises(ValueError, match=r"layer 0 fan-in .*\[0, 3\)"):
            LogicNetBatch(self.XOR, [[[[0, 3]]]], n_inputs=3)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_deep_fan_in_is_bounded_by_the_gate_count(self, bad):
        """Deeper layers index G gates, not the (larger) input count."""
        wiring = np.zeros((1, 2, 2, 2), dtype=np.int32)
        wiring[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match=r"layer 1 fan-in .*\[0, 2\)"):
            LogicNetBatch(np.zeros((1, 2, 2), np.uint8), wiring, n_inputs=5)

    def test_zero_depth_is_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            LogicNetBatch(
                np.zeros((1, 0, 2), np.uint8),
                np.zeros((1, 0, 2, 2), np.int32),
                n_inputs=2,
            )

    def test_words_must_hold_exactly_the_grid(self):
        nets = LogicNetBatch.random(2, 3, 2, 2, seed=1)
        words = _packed_lines(np.zeros((2, 130), dtype=bool), 130)
        with pytest.raises(ValueError, match="do not hold"):
            nets.evaluate(words, 64)


class TestShardedEqualsSerial:
    """The spec's dispatch paths serialise identically."""

    def test_rebuild_shards_merge_to_serial(self):
        spec = get_spec("logicnet")
        config = spec.make_config(overrides=SMALL_SPEC)
        serial = spec.run(config)
        parts = [spec.run_shard(shard) for shard in spec.shard(config)]
        merged = spec.merge(config, parts)
        assert json.dumps(to_jsonable(merged)) == json.dumps(
            to_jsonable(serial)
        )

    def test_two_job_run_bit_identical(self):
        serial = Runner(jobs=1).run("logicnet", overrides=SMALL_SPEC)
        with Runner(jobs=2) as runner:
            sharded = runner.run("logicnet", overrides=SMALL_SPEC)
        assert serial.ok, serial.error
        assert sharded.ok, sharded.error
        assert json.dumps(to_jsonable(serial.result)) == json.dumps(
            to_jsonable(sharded.result)
        )
        assert serial.rendered == sharded.rendered

    def test_single_shard_plan_equals_many(self):
        spec = get_spec("logicnet")
        many = spec.make_config(overrides=SMALL_SPEC)
        one = spec.make_config(overrides={**SMALL_SPEC, "n_shards": 1})
        a, b = spec.run(many), spec.run(one)
        assert a.popcounts == b.popcounts
        assert a.checksums == b.checksums
        assert a.checksum == b.checksum

    def test_more_shards_than_networks_is_capped(self):
        spec = get_spec("logicnet")
        config = spec.make_config(
            overrides={**SMALL_SPEC, "n_networks": 2, "n_shards": 7}
        )
        shards = spec.shard(config)
        assert len(shards) == 2
        result = spec.merge(
            config, [spec.run_shard(shard) for shard in shards]
        )
        assert result.n_networks == 2
