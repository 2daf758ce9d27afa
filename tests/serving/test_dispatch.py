"""The serving compute layer on its own: no server, no pool.

Every served shard runs :func:`~repro.serving.dispatch.compute_shard`
on a row range of its request: in the server on a view of the frame's
rows, or on a pool worker through :func:`~repro.serving.dispatch.run_shard`,
which maps the request arena first.  These tests hold that layer to
the serving contract directly: shards of any split concatenate to one
pass over the whole batch, on word-aligned and ragged grids; both
entries agree; the scan options reach the receivers; the pool entries
declare the pool-death fault point instead of firing it, so a shard
run in the server fires only ``serving.compute_shard``; and a task's
basis recipe names one memoised basis per process, the one a server
on the same knobs holds.
"""

import pickle

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, packed
from repro.backend.shared import HAVE_SHARED_MEMORY, SharedArena
from repro.errors import ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.experiments.identify import IdentifyConfig, _workload
from repro.serving import dispatch
from repro.serving import server as server_module
from repro.serving.server import ServerConfig, build_serving_basis
from repro.testing import faults

#: The serving universe of the server tests, and the same universe on
#: a grid whose byte rows are not whole words (shards pad, not view).
SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
RAGGED = dict(SMALL, n_samples=4001)

#: The array fields of each shard mode's payload.
FIELDS = {
    "identify": ("elements", "decision_slots", "spikes_inspected"),
    "membership": ("membership", "first_slots"),
}


@pytest.fixture(scope="module", params=[SMALL, RAGGED], ids=["aligned", "ragged"])
def recipe(request):
    """The universe as a pool task names its basis."""
    return dispatch.BasisRecipe(**request.param)


@pytest.fixture(scope="module")
def basis(recipe):
    return dispatch.serving_basis(recipe)


@pytest.fixture(scope="module")
def drawn(basis):
    """25 wires, each one basis element, and the elements drawn."""
    elements = np.random.default_rng(3).integers(basis.size, size=25)
    return basis.as_batch().select_rows(elements), elements


@pytest.fixture(scope="module")
def frame(basis, drawn):
    """A request frame: each wire the superposition of two elements."""
    wires, _elements = drawn
    others = np.random.default_rng(4).integers(basis.size, size=len(wires))
    superposed = wires.union(basis.as_batch().select_rows(others))
    return np.ascontiguousarray(superposed.packbits())


def _shard_views(frame, grid, n_shards):
    """The in-process shards of ``frame``: row views and their ranges."""
    return [
        (SpikeTrainBatch.from_packed(frame[lo:hi], grid), lo, hi)
        for lo, hi in packed.row_chunk_bounds(len(frame), n_shards)
    ]


class TestComputeShard:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    @pytest.mark.parametrize("mode", sorted(FIELDS))
    def test_shards_concatenate_to_one_pass(self, basis, frame, mode, n_shards):
        whole = dispatch.compute_shard(
            basis, SpikeTrainBatch.from_packed(frame, basis.grid),
            0, len(frame), mode=mode,
        )
        shards = [
            dispatch.compute_shard(basis, rows, lo, hi, mode=mode)
            for rows, lo, hi in _shard_views(frame, basis.grid, n_shards)
        ]
        assert [(s["row_start"], s["row_stop"]) for s in shards] == list(
            packed.row_chunk_bounds(len(frame), n_shards)
        )
        for shard in shards:
            assert shard["residency"]["raster"] is False
        for name in FIELDS[mode]:
            got = np.concatenate([shard[name] for shard in shards])
            assert got.dtype == whole[name].dtype
            assert np.array_equal(got, whole[name])

    def test_identify_names_the_drawn_elements(self, basis, drawn):
        wires, elements = drawn
        rows = SpikeTrainBatch.from_packed(
            np.ascontiguousarray(wires.packbits()), basis.grid
        )
        payload = dispatch.compute_shard(
            basis, rows, 0, len(elements), mode="identify"
        )
        assert payload["elements"].tolist() == elements.tolist()
        assert (payload["decision_slots"] >= 0).all()

    @pytest.mark.parametrize("mode", sorted(FIELDS))
    def test_scan_options_reach_the_receivers(self, basis, frame, mode):
        """A start slot (identify) or a limit (membership) answers as
        the correlator's CSR walk does on the same wires."""
        slot = basis.grid.n_samples // 3
        rows = SpikeTrainBatch.from_packed(frame, basis.grid)
        payload = dispatch.compute_shard(
            basis, rows, 0, len(frame), mode=mode,
            start_slot=slot, limit=slot,
        )
        values, ptr = rows.csr()
        walked = SpikeTrainBatch(values, ptr, basis.grid)
        correlator = CoincidenceCorrelator(basis)
        if mode == "identify":
            outcome = correlator.identify_batch(
                walked, start_slot=slot, missing="none"
            )
            assert (payload["decision_slots"][payload["elements"] >= 0] >= slot).all()
        else:
            outcome = correlator.detect_members_batch(walked, until_slot=slot)
            assert (payload["first_slots"] < slot).all()
        for name in FIELDS[mode]:
            assert np.array_equal(payload[name], getattr(outcome, name))

    def test_unknown_mode_is_an_internal_error(self, basis, frame):
        rows = SpikeTrainBatch.from_packed(frame, basis.grid)
        with pytest.raises(ServingError, match="unknown shard mode") as info:
            dispatch.compute_shard(basis, rows, 0, len(frame), mode="decode")
        assert info.value.code == dispatch.ERR_INTERNAL


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestRunShard:
    @pytest.mark.parametrize("mode", sorted(FIELDS))
    def test_mapped_rows_equal_the_frame_rows(self, basis, frame, recipe, mode):
        """The pool entry, run here on the request arena's mapping,
        answers as the in-process shard on the frame's rows."""
        batch = SpikeTrainBatch.from_packed(frame, basis.grid)
        with SharedArena() as arena:
            handle = batch.to_shared(arena)
            for rows, lo, hi in _shard_views(frame, basis.grid, 3):
                mapped = dispatch.run_shard(
                    dispatch.ShardTask(recipe, handle, lo, hi, mode=mode)
                )
                local = dispatch.compute_shard(basis, rows, lo, hi, mode=mode)
                assert (mapped["row_start"], mapped["row_stop"]) == (lo, hi)
                assert mapped["residency"]["raster"] is False
                for name in FIELDS[mode]:
                    assert np.array_equal(mapped[name], local[name])


class TestDeclaredFaultPoint:
    def test_pool_targets_declare_the_shard_point(self):
        assert dispatch.run_shard.fault_point == "serving.run_shard"
        assert dispatch.run_logicnet_shard.fault_point == "serving.run_shard"

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    )
    def test_in_process_run_shard_fires_only_the_compute_point(
        self, basis, frame, recipe, monkeypatch
    ):
        fired = []
        monkeypatch.setattr(faults, "maybe_fire", fired.append)
        batch = SpikeTrainBatch.from_packed(frame, basis.grid)
        with SharedArena() as arena:
            dispatch.run_shard(
                dispatch.ShardTask(
                    recipe, batch.to_shared(arena), 0, len(frame),
                    mode="membership",
                )
            )
        assert fired == ["serving.compute_shard"]

    def test_in_process_logicnet_shard_fires_only_the_compute_point(
        self, recipe, monkeypatch
    ):
        fired = []
        monkeypatch.setattr(faults, "maybe_fire", fired.append)
        dispatch.run_logicnet_shard(
            dispatch.LogicNetShardTask(
                recipe, seed=11, n_gates=6, depth=2, net_start=0, net_stop=4
            )
        )
        assert fired == ["serving.compute_shard"]


class TestLogicNetShards:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_network_ranges_concatenate_to_one_pass(self, basis, n_shards):
        spec = dict(seed=23, n_gates=8, depth=3)
        whole = dispatch.compute_logicnet_shard(
            basis, net_start=0, net_stop=10, **spec
        )
        shards = [
            dispatch.compute_logicnet_shard(
                basis, net_start=lo, net_stop=hi, **spec
            )
            for lo, hi in packed.row_chunk_bounds(10, n_shards)
        ]
        assert shards[-1]["row_stop"] == 10
        for shard in shards:
            assert shard["residency"]["raster"] is False
        for name in ("popcounts", "checksums"):
            got = np.concatenate([shard[name] for shard in shards])
            assert np.array_equal(got, whole[name])


class TestBasisRecipe:
    """A recipe names one basis per process: built once, then shared."""

    def test_the_memo_hands_out_one_basis_per_recipe(self, recipe):
        again = dispatch.BasisRecipe(**vars(recipe))
        assert again is not recipe
        basis = dispatch.serving_basis(recipe)
        assert dispatch.serving_basis(again) is basis
        config = ServerConfig(**vars(recipe))
        assert build_serving_basis(config) is basis

    def test_a_rebuild_equals_the_memoised_basis(self, recipe, basis):
        fresh = recipe.build()
        assert fresh is not basis
        assert fresh.labels == basis.labels
        assert fresh.grid == basis.grid
        assert fresh.grid.n_samples == recipe.n_samples
        for built, held in zip(fresh.trains, basis.trains):
            assert built == held

    def test_the_memo_rebuilds_a_dropped_recipe_bit_identically(self):
        held = dispatch.serving_basis.cache_info().maxsize
        recipes = [
            dispatch.BasisRecipe(**dict(SMALL, seed=200 + i))
            for i in range(held + 1)
        ]
        first = dispatch.serving_basis(recipes[0])
        for recipe in recipes[1:]:
            dispatch.serving_basis(recipe)
        assert dispatch.serving_basis.cache_info().currsize == held
        again = dispatch.serving_basis(recipes[0])
        assert again is not first
        for rebuilt, dropped in zip(again.trains, first.trains):
            assert rebuilt == dropped

    @pytest.mark.parametrize("n_samples", [4096, 65536])
    def test_a_task_names_its_basis_in_a_few_integers(self, n_samples):
        """A task's pickle does not grow with the basis it names."""
        task = dispatch.LogicNetShardTask(
            dispatch.BasisRecipe(n_samples=n_samples),
            seed=5, n_gates=8, depth=3, net_start=0, net_stop=6,
        )
        size = len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        assert size < 512, size
        assert pickle.loads(pickle.dumps(task)) == task

    def test_server_config_defaults_are_the_recipe(self):
        """``repro serve`` builds the default recipe before it loads the
        server; the server's default knobs must name the same basis."""
        assert server_module._recipe(ServerConfig()) == dispatch.BasisRecipe()

    def test_identify_workload_draws_the_same_basis(self):
        """The ``identify`` experiment and the server share one recipe:
        on the same knobs, the experiment's basis is the server's."""
        config = IdentifyConfig(seed=7, basis_size=8, source_isi_samples=16)
        workload_basis = _workload(config)[0]
        served = dispatch.BasisRecipe(
            seed=7, basis_size=8, source_isi_samples=16
        ).build()
        assert workload_basis.labels == served.labels
        for drawn, built in zip(workload_basis.trains, served.trains):
            assert drawn == built

    def test_logicnet_task_answers_as_the_recipes_basis(self, recipe):
        """A task run in any process computes on its recipe's basis: the
        memoised one answers as a fresh build."""
        spec = dict(seed=5, n_gates=8, depth=3, net_start=0, net_stop=6)
        served = dispatch.run_logicnet_shard(
            dispatch.LogicNetShardTask(recipe, **spec)
        )
        local = dispatch.compute_logicnet_shard(recipe.build(), **spec)
        for name in ("popcounts", "checksums"):
            assert np.array_equal(served[name], local[name])
