"""Property-based tests (hypothesis) for SpikeTrain set algebra.

The spike-train set operations are the computational substrate of the
intersection orthogonator and the superposition codec, so their algebraic
laws are checked over arbitrary inputs.  The constructor's
normalisation (sort a copy, drop repeats) is checked against
``np.unique``, which it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SpikeTrainError
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=256, dt=1e-12)

indices = st.lists(
    st.integers(min_value=0, max_value=GRID.n_samples - 1), max_size=64
)


def train(xs) -> SpikeTrain:
    return SpikeTrain(np.asarray(xs, dtype=np.int64), GRID)


@given(indices, indices)
def test_union_commutative(xs, ys):
    a, b = train(xs), train(ys)
    assert a | b == b | a


@given(indices, indices)
def test_intersection_commutative(xs, ys):
    a, b = train(xs), train(ys)
    assert a & b == b & a


@given(indices, indices, indices)
def test_union_associative(xs, ys, zs):
    a, b, c = train(xs), train(ys), train(zs)
    assert (a | b) | c == a | (b | c)


@given(indices, indices, indices)
def test_intersection_distributes_over_union(xs, ys, zs):
    a, b, c = train(xs), train(ys), train(zs)
    assert a & (b | c) == (a & b) | (a & c)


@given(indices, indices)
def test_difference_disjoint_from_other(xs, ys):
    a, b = train(xs), train(ys)
    assert (a - b).is_orthogonal_to(b)


@given(indices, indices)
def test_partition_by_other(xs, ys):
    """a = (a - b) ∪ (a ∩ b), disjointly — the orthogonator's identity."""
    a, b = train(xs), train(ys)
    only_a = a - b
    both = a & b
    assert only_a.is_orthogonal_to(both)
    assert only_a | both == a


@given(indices, indices)
def test_symmetric_difference_definition(xs, ys):
    a, b = train(xs), train(ys)
    assert a ^ b == (a | b) - (a & b)


@given(indices)
def test_self_laws(xs):
    a = train(xs)
    assert a | a == a
    assert a & a == a
    assert len(a - a) == 0


@given(indices, st.integers(min_value=-300, max_value=300))
def test_shift_preserves_or_drops(xs, offset):
    """Shifting never invents spikes; wrap preserves the count exactly."""
    a = train(xs)
    shifted = a.shifted(offset)
    assert len(shifted) <= len(a)
    wrapped = a.shifted(offset, wrap=True)
    assert len(wrapped) == len(a)


@given(indices, st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=256))
def test_window_subset(xs, start, extra):
    a = train(xs)
    stop = min(GRID.n_samples, start + extra)
    if start <= stop:
        w = a.window(start, stop)
        assert w.is_subset_of(a)
        assert all(start <= s < stop for s in w.indices)


@given(indices)
def test_raster_round_trip(xs):
    a = train(xs)
    assert SpikeTrain.from_raster(a.to_raster(), GRID) == a


def unique_reference(indices, grid) -> np.ndarray:
    """The constructor's normalisation as it was written on ``np.unique``."""
    arr = np.asarray(indices)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        float_arr = np.asarray(indices, dtype=float)
        if not np.all(float_arr == np.round(float_arr)):
            raise SpikeTrainError("spike indices must be integral")
        arr = float_arr.astype(np.int64)
    arr = np.unique(arr.astype(np.int64, copy=False))
    if arr.size:
        if arr[0] < 0:
            raise SpikeTrainError(f"negative spike index: {arr[0]}")
        if arr[-1] >= grid.n_samples:
            raise SpikeTrainError(
                f"spike index {arr[-1]} outside grid of {grid.n_samples} samples"
            )
    return arr


@st.composite
def raw_indices(draw):
    """Unsorted, repeated, empty, 0-D to 2-D index arrays of every kind
    the constructor accepts or refuses: integers of several widths
    (some negative or past the grid), integral and fractional floats,
    and bools."""
    dtype = np.dtype(
        draw(st.sampled_from(["int64", "int32", "uint16", "float64", "bool"]))
    )
    slots = st.integers(
        min_value=-3 if dtype.kind == "i" else 0,
        max_value=GRID.n_samples + 2,
    )
    if dtype.kind == "b":
        elements = st.booleans()
    elif dtype.kind == "f":
        elements = st.one_of(
            slots.map(float),
            st.floats(min_value=-3, max_value=GRID.n_samples + 2),
        )
    else:
        elements = slots
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                  max_side=40))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@given(raw_indices())
@settings(max_examples=300)
def test_constructor_matches_np_unique(raw):
    before = raw.copy()
    try:
        expected = unique_reference(raw, GRID)
    except SpikeTrainError as refused:
        with pytest.raises(SpikeTrainError) as raised:
            SpikeTrain(raw, GRID)
        assert str(raised.value) == str(refused)
        return
    indices = SpikeTrain(raw, GRID).indices
    assert indices.dtype == expected.dtype
    assert indices.shape == expected.shape
    np.testing.assert_array_equal(indices, expected)
    assert not indices.flags.writeable
    np.testing.assert_array_equal(raw, before)
    assert not np.shares_memory(indices, raw)


@given(indices)
def test_constructor_of_a_list_matches_np_unique(xs):
    np.testing.assert_array_equal(
        SpikeTrain(xs, GRID).indices, unique_reference(xs, GRID)
    )


@pytest.mark.parametrize(
    "raw, message",
    [
        ([3, -1, 2], "negative spike index: -1"),
        ([[0, 256], [1, 1]], "spike index 256 outside grid of 256 samples"),
        ([1.0, 2.5], "spike indices must be integral"),
        (np.array([-2.0, 7.0]), "negative spike index: -2"),
    ],
)
def test_refusals_match_np_unique(raw, message):
    with pytest.raises(SpikeTrainError) as refused:
        unique_reference(raw, GRID)
    assert str(refused.value) == message
    with pytest.raises(SpikeTrainError) as raised:
        SpikeTrain(raw, GRID)
    assert str(raised.value) == message


def test_sorted_int64_input_is_copied_not_adopted():
    """``astype(copy=False)`` hands back the caller's array here."""
    caller = np.array([1, 5, 9], dtype=np.int64)
    train = SpikeTrain(caller, GRID)
    assert not np.shares_memory(train.indices, caller)
    assert caller.flags.writeable
    caller[0] = 7
    assert train.indices.tolist() == [1, 5, 9]
