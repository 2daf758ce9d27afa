"""Tests for repro.hyperspace.superposition: neuro-bits on one wire."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HyperspaceError
from repro.hyperspace.basis import HyperspaceBasis
from repro.hyperspace.superposition import (
    Superposition,
    decode_superposition,
    first_detection_slots,
)
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=64, dt=1e-12)


@pytest.fixture
def basis():
    return HyperspaceBasis(
        [
            SpikeTrain(range(0, 64, 8), GRID),       # 0, 8, ...
            SpikeTrain(range(1, 64, 8), GRID),       # 1, 9, ...
            SpikeTrain(range(2, 64, 8), GRID),
            SpikeTrain(range(3, 64, 8), GRID),
        ]
    )


class TestSuperpositionValue:
    def test_of_and_labels(self, basis):
        sup = Superposition.of(basis, ["V1", 2])
        assert sup.members == frozenset({0, 2})
        assert sup.labels(basis) == ("V1", "V3")

    def test_empty_and_full(self, basis):
        assert len(Superposition.empty()) == 0
        assert Superposition.full(basis).members == frozenset({0, 1, 2, 3})

    def test_set_operators(self):
        a = Superposition(frozenset({0, 1}))
        b = Superposition(frozenset({1, 2}))
        assert (a | b).members == frozenset({0, 1, 2})
        assert (a & b).members == frozenset({1})
        assert (a - b).members == frozenset({0})
        assert (a ^ b).members == frozenset({0, 2})

    def test_complement(self, basis):
        sup = Superposition.of(basis, [0, 1])
        assert sup.complement(basis).members == frozenset({2, 3})

    def test_contains(self):
        assert 1 in Superposition(frozenset({1}))
        assert 2 not in Superposition(frozenset({1}))


class TestCodec:
    def test_encode_decode_round_trip(self, basis):
        sup = Superposition.of(basis, [0, 2, 3])
        wire = sup.encode(basis)
        assert decode_superposition(basis, wire) == sup

    def test_empty_round_trip(self, basis):
        wire = Superposition.empty().encode(basis)
        assert len(wire) == 0
        assert decode_superposition(basis, wire) == Superposition.empty()

    def test_strict_rejects_foreign_spikes(self, basis):
        wire = basis.encode_set([0]) | SpikeTrain([7], GRID)  # slot 7 unowned
        with pytest.raises(HyperspaceError):
            decode_superposition(basis, wire, strict=True)

    def test_lenient_ignores_foreign_spikes(self, basis):
        wire = basis.encode_set([0]) | SpikeTrain([7], GRID)
        sup = decode_superposition(basis, wire, strict=False)
        assert sup.members == frozenset({0})

    @given(st.sets(st.integers(min_value=0, max_value=3)))
    def test_round_trip_property(self, members):
        basis = HyperspaceBasis(
            [SpikeTrain(range(k, 64, 8), GRID) for k in range(4)]
        )
        sup = Superposition(frozenset(members))
        assert decode_superposition(basis, sup.encode(basis)) == sup


class TestFirstDetection:
    def test_detection_order_follows_slots(self, basis):
        wire = basis.encode_set([1, 3])
        earliest = first_detection_slots(basis, wire)
        assert earliest == {1: 1, 3: 3}

    def test_absent_members_missing(self, basis):
        earliest = first_detection_slots(basis, basis.encode_set([2]))
        assert set(earliest) == {2}


@st.composite
def basis_and_wire(draw):
    """A basis of 1-6 elements owning drawn slots of GRID (element k
    owns slot k at least; -1 leaves a slot unowned), and a wire over
    any slots, foreign ones included."""
    size = draw(st.integers(1, 6))
    owner = draw(
        st.lists(
            st.integers(-1, size - 1),
            min_size=GRID.n_samples,
            max_size=GRID.n_samples,
        )
    )
    owner[:size] = range(size)
    owner = np.array(owner)
    basis = HyperspaceBasis(
        [SpikeTrain(np.flatnonzero(owner == k), GRID) for k in range(size)]
    )
    wire = SpikeTrain(
        sorted(draw(st.sets(st.integers(0, GRID.n_samples - 1)))), GRID
    )
    return basis, wire


class TestSortedDecodeEqualsNpUnique:
    """The sort-based decoders against the ``np.unique`` code they
    replaced."""

    @given(basis_and_wire())
    def test_decode_superposition(self, case):
        basis, wire = case
        owners = basis.owners_of(wire.indices)
        want = frozenset(np.unique(owners[owners >= 0]).tolist())
        got = decode_superposition(basis, wire, strict=False)
        assert got.members == want

    @given(basis_and_wire())
    def test_first_detection_slots(self, case):
        basis, wire = case
        owners = basis.owners_of(wire.indices)
        mask = owners >= 0
        elements, first = np.unique(owners[mask], return_index=True)
        slots = wire.indices[mask][first]
        order = np.argsort(slots, kind="stable")
        want = {int(elements[i]): int(slots[i]) for i in order}
        got = first_detection_slots(basis, wire)
        assert got == want
        assert list(got.items()) == list(want.items())
