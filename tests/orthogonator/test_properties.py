"""Property-based tests for the orthogonality invariants.

Orthogonality is the load-bearing property of the whole logic scheme:
if two basis trains ever share a slot, single-coincidence identification
breaks.  Both orthogonator families must therefore produce pairwise
disjoint outputs for *arbitrary* inputs, and the outputs must exactly
cover the inputs (nothing lost, nothing invented).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OrthogonalityError
from repro.orthogonator.base import OrthogonatorOutput, verify_orthogonality
from repro.orthogonator.demux import DemuxOrthogonator, spike_packages
from repro.orthogonator.intersection import IntersectionOrthogonator
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=512, dt=1e-12)

indices = st.lists(
    st.integers(min_value=0, max_value=GRID.n_samples - 1), max_size=128
)


def train(xs) -> SpikeTrain:
    return SpikeTrain(np.asarray(xs, dtype=np.int64), GRID)


@given(indices, st.integers(min_value=1, max_value=8))
def test_demux_outputs_partition_input(xs, m):
    source = train(xs)
    output = DemuxOrthogonator.with_outputs(m).transform(source)
    # Pairwise disjoint.
    verify_orthogonality(output.trains, output.labels)
    # Union reproduces the input exactly.
    merged = SpikeTrain.empty(GRID)
    for t in output.trains:
        merged = merged | t
    assert merged == source
    # Rates balanced to within one spike.
    counts = [len(t) for t in output.trains]
    assert max(counts) - min(counts) <= 1


@given(indices, st.integers(min_value=2, max_value=6))
def test_demux_packages_strictly_ordered(xs, m):
    source = train(xs)
    output = DemuxOrthogonator.with_outputs(m).transform(source)
    for package in spike_packages(output):
        assert list(package.slots) == sorted(set(package.slots))


@given(indices, indices)
def test_intersection_two_inputs_invariants(xs, ys):
    a, b = train(xs), train(ys)
    output = IntersectionOrthogonator(2).transform(a, b)
    verify_orthogonality(output.trains, output.labels)
    merged = SpikeTrain.empty(GRID)
    for t in output.trains:
        merged = merged | t
    assert merged == (a | b)


@given(indices, indices, indices)
@settings(max_examples=50)
def test_intersection_three_inputs_invariants(xs, ys, zs):
    inputs = (train(xs), train(ys), train(zs))
    output = IntersectionOrthogonator(3).transform(*inputs)
    verify_orthogonality(output.trains, output.labels)
    merged = SpikeTrain.empty(GRID)
    for t in output.trains:
        merged = merged | t
    union = inputs[0] | inputs[1] | inputs[2]
    assert merged == union


@given(indices, indices)
def test_intersection_products_subset_semantics(xs, ys):
    """Every output spike appears in exactly the asserted inputs."""
    a, b = train(xs), train(ys)
    device = IntersectionOrthogonator(2)
    output = device.transform(a, b)
    both = device.coincidence_product(output)
    assert both.is_subset_of(a) and both.is_subset_of(b)
    a_only = output[device.labels[1]]
    assert a_only.is_subset_of(a) and a_only.is_orthogonal_to(b)
    b_only = output[device.labels[2]]
    assert b_only.is_subset_of(b) and b_only.is_orthogonal_to(a)


def first_shared_pair(trains):
    """The first ``(i, j)``, ``i < j``, whose trains share a slot, and
    how many they share; ``None`` when all are pairwise disjoint."""
    slots = [set(t.indices.tolist()) for t in trains]
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            shared = len(slots[i] & slots[j])
            if shared:
                return i, j, shared
    return None


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=40), max_size=6),
        max_size=7,
    )
)
def test_verify_orthogonality_names_the_first_shared_pair(slot_lists):
    """On a 41-slot range collisions are common, and so are disjoint
    sets; the check agrees with a brute-force pairwise reference."""
    trains = [train(xs) for xs in slot_lists]
    labels = [f"w{i}" for i in range(len(trains))]
    expected = first_shared_pair(trains)
    if expected is None:
        verify_orthogonality(trains, labels)
        return
    i, j, shared = expected
    with pytest.raises(OrthogonalityError) as raised:
        verify_orthogonality(trains, labels)
    assert str(raised.value) == (
        f"outputs {labels[i]!r} and {labels[j]!r} share "
        f"{shared} spike slot(s)"
    )


@given(
    st.lists(
        st.integers(min_value=0, max_value=GRID.n_samples - 1),
        unique=True,
        max_size=128,
    ),
    st.data(),
)
def test_verify_orthogonality_accepts_disjoint_trains(slots, data):
    """Any partition of distinct slots over 1–8 trains (some or all of
    them empty) passes."""
    m = data.draw(st.integers(min_value=1, max_value=8))
    owners = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=len(slots),
            max_size=len(slots),
        )
    )
    trains = [
        train([s for s, owner in zip(slots, owners) if owner == k])
        for k in range(m)
    ]
    verify_orthogonality(trains, [f"w{k}" for k in range(m)])


@pytest.mark.parametrize(
    "slot_lists",
    [[], [[]], [[], []], [[5, 9]], [[], [5, 9], []]],
)
def test_verify_orthogonality_accepts_fewer_than_two_occupied(slot_lists):
    trains = [train(xs) for xs in slot_lists]
    verify_orthogonality(trains, [f"w{k}" for k in range(len(trains))])


class TestOrthogonatorOutputValidation:
    def test_overlapping_outputs_rejected(self):
        with pytest.raises(OrthogonalityError):
            OrthogonatorOutput(
                trains=(train([1, 2]), train([2, 3])),
                labels=("X", "Y"),
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(OrthogonalityError):
            OrthogonatorOutput(
                trains=(train([1]), train([2])),
                labels=("X", "X"),
            )

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(OrthogonalityError):
            OrthogonatorOutput(trains=(train([1]),), labels=("X", "Y"))

    def test_getitem_by_label(self):
        output = OrthogonatorOutput(
            trains=(train([1]), train([2])), labels=("X", "Y")
        )
        assert output["Y"].indices.tolist() == [2]
        with pytest.raises(KeyError):
            output["Z"]

    def test_verify_false_skips_check(self):
        # Deliberately overlapping, but verification disabled: caller's
        # responsibility (used by provably-disjoint constructions).
        output = OrthogonatorOutput(
            trains=(train([1]), train([1])),
            labels=("X", "Y"),
            verify=False,
        )
        assert len(output) == 2


@given(st.lists(indices, min_size=1, max_size=5))
def test_occupancy_patterns_equal_np_unique(slot_lists):
    inputs = [train(xs) for xs in slot_lists]
    orthogonator = IntersectionOrthogonator(n_inputs=len(inputs))
    _grid, occupied, patterns = orthogonator._occupancy_patterns(inputs)
    want = np.unique(np.concatenate([t.indices for t in inputs]))
    assert np.array_equal(occupied, want)
    for bit, source in enumerate(inputs):
        owned = occupied[(patterns >> bit) & 1 == 1]
        assert np.array_equal(owned, source.indices)
