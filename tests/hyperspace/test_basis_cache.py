"""Tests for the HyperspaceBasis projection caches.

Covers the owner-vector laziness and the encode LRU (hit/miss
counters, eviction, shared immutable results).
"""

import numpy as np

from repro.hyperspace.basis import HyperspaceBasis
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=64, dt=1e-9)


def _basis(**kwargs):
    trains = [
        SpikeTrain([0, 8, 16], GRID),
        SpikeTrain([1, 9, 17], GRID),
        SpikeTrain([2, 10, 18], GRID),
    ]
    return HyperspaceBasis(trains, **kwargs)


class TestOwnerVectorCache:
    def test_lazy_build_then_hits(self):
        basis = _basis()
        info = basis.cache_info()
        assert info["owner_vector_builds"] == 0
        assert not info["owner_vector_cached"]

        basis.owner_vector
        basis.owner_vector
        info = basis.cache_info()
        assert info["owner_vector_builds"] == 1
        assert info["owner_vector_hits"] == 1
        assert info["owner_vector_cached"]

    def test_identification_paths_share_one_build(self):
        basis = _basis()
        basis.owners_of(np.array([0, 1, 2]))
        basis.classify_train(SpikeTrain([8, 9], GRID))
        basis.owner_of_slot(16)
        assert basis.cache_info()["owner_vector_builds"] == 1


class TestEncodeCache:
    def test_encode_set_hit_returns_same_object(self):
        basis = _basis()
        first = basis.encode_set([0, 2])
        second = basis.encode_set([2, 0])  # normalised key: order-free
        assert second is first
        info = basis.cache_info()
        assert info["encode_misses"] == 1
        assert info["encode_hits"] == 1

    def test_encode_batch_hit_returns_same_object(self):
        basis = _basis()
        first = basis.encode_batch([[0], [1, 2]])
        second = basis.encode_batch([[0], [2, 1]])
        assert second is first
        assert basis.cache_info()["encode_hits"] == 1

    def test_set_and_batch_keys_do_not_collide(self):
        basis = _basis()
        basis.encode_set([0])
        basis.encode_batch([[0]])
        assert basis.cache_info()["encode_misses"] == 2

    def test_lru_evicts_oldest(self):
        basis = _basis(encode_cache_size=2)
        basis.encode_set([0])
        basis.encode_set([1])
        basis.encode_set([2])  # evicts [0]
        assert basis.cache_info()["encode_entries"] == 2
        basis.encode_set([0])  # rebuilt: a miss
        info = basis.cache_info()
        assert info["encode_misses"] == 4
        assert info["encode_hits"] == 0

    def test_byte_budget_evicts_before_entry_bound(self):
        basis = _basis(encode_cache_size=64, encode_cache_bytes=200)
        basis.encode_set([0])  # ~88 bytes (3 int64 slots + overhead)
        basis.encode_set([1])
        assert basis.cache_info()["encode_entries"] == 2
        basis.encode_set([2])  # pushes past 200 bytes → evicts [0]
        info = basis.cache_info()
        assert info["encode_entries"] == 2
        assert info["encode_bytes"] <= 200

    def test_oversized_value_returned_uncached(self):
        basis = _basis(encode_cache_bytes=8)  # nothing fits
        basis.encode_set([0, 1])
        info = basis.cache_info()
        assert info["encode_entries"] == 0
        assert info["encode_bytes"] == 0
        # Still correct, just rebuilt per call (two misses, no hit).
        basis.encode_set([0, 1])
        assert basis.cache_info()["encode_misses"] == 2

    def test_cached_wire_is_correct(self):
        basis = _basis()
        wire = basis.encode_set([0, 1])
        again = basis.encode_set([0, 1])
        assert again.indices.tolist() == sorted([0, 8, 16, 1, 9, 17])
