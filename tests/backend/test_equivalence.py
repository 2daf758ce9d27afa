"""Randomized equivalence: every backend and batch path is bit-identical.

The backend layer's contract is that representation is invisible:
sorted-merge and dense-raster set algebra agree bit for bit, and every
batched receiver (identify, detect_members, linear_scan, decode,
query) reproduces its scalar counterpart exactly in every residency a
batch can hold.  These tests drive all of them over randomized seeds,
and pin which path each residency routes to.
"""

import numpy as np
import pytest

from repro.backend import (
    RASTER_DENSITY_THRESHOLD,
    SpikeTrainBatch,
    available_backends,
    get_backend,
    select_backend,
)
from repro.errors import HyperspaceError, IdentificationError
from repro.hyperspace.basis import HyperspaceBasis
from repro.hyperspace.superposition import (
    decode_superposition,
    decode_superposition_batch,
)
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.orthogonator.intersection import IntersectionOrthogonator
from repro.search.classical import linear_scan, linear_scan_batch
from repro.search.superposition_search import SuperpositionDatabase
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

from .residency import csr_only, packed_primary, raster_resident

OPS = ["union", "intersection", "difference", "symmetric_difference"]


def random_train(rng, grid, density):
    n = max(1, int(density * grid.n_samples))
    indices = rng.choice(grid.n_samples, size=n, replace=False)
    return SpikeTrain(indices, grid)


@pytest.fixture(params=[0, 1, 2, 3, 4])
def rng(request):
    return np.random.default_rng(request.param)


class TestBackendSetOps:
    @pytest.mark.parametrize("density", [0.002, 0.05, 0.4])
    @pytest.mark.parametrize("op", OPS)
    def test_all_backends_bit_identical(self, rng, density, op):
        grid = SimulationGrid(n_samples=int(rng.integers(512, 4096)), dt=1e-12)
        a = random_train(rng, grid, density)
        b = random_train(rng, grid, density)
        reference = getattr(get_backend("sorted"), op)(
            a.indices, b.indices, grid.n_samples
        )
        raster = getattr(get_backend("raster"), op)(
            a.indices, b.indices, grid.n_samples
        )
        assert np.array_equal(raster, reference), op
        assert np.array_equal(getattr(a, op)(b).indices, reference), op

    @pytest.mark.parametrize("op", OPS)
    def test_backend_api_direct(self, rng, op):
        grid = SimulationGrid(n_samples=1024, dt=1e-12)
        a = random_train(rng, grid, 0.1).indices
        b = random_train(rng, grid, 0.1).indices
        outputs = [
            getattr(get_backend(name), op)(a, b, grid.n_samples)
            for name in available_backends()
        ]
        for out in outputs[1:]:
            assert np.array_equal(out, outputs[0])

    def test_empty_operands(self):
        grid = SimulationGrid(n_samples=256, dt=1e-12)
        a = SpikeTrain.empty(grid)
        b = SpikeTrain([0, 255], grid)
        n = grid.n_samples
        for name in available_backends():
            backend = get_backend(name)
            assert backend.intersection(a.indices, b.indices, n).size == 0
            for op, x, y in (
                (backend.union, a, b),
                (backend.difference, b, a),
                (backend.symmetric_difference, a, b),
            ):
                assert np.array_equal(op(x.indices, y.indices, n), b.indices)

    def test_auto_selection_by_density(self):
        assert select_backend(0, 65536).name == "sorted"
        sparse = int(RASTER_DENSITY_THRESHOLD * 65536) - 1
        assert select_backend(sparse, 65536).name == "sorted"
        dense = int(RASTER_DENSITY_THRESHOLD * 65536) + 1
        assert select_backend(dense, 65536).name == "raster"


@pytest.fixture
def basis(rng):
    grid = SimulationGrid(n_samples=4096, dt=1e-12)
    source = random_train(rng, grid, 0.2)
    output = DemuxOrthogonator.with_outputs(8).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


def random_wires(rng, basis, n_wires):
    """Wires = random element encodes, some with injected foreign spikes."""
    wires = []
    for _unused in range(n_wires):
        element = int(rng.integers(basis.size))
        wire = basis.encode(element)
        if rng.random() < 0.5:
            extra = random_train(rng, basis.grid, 0.01)
            wire = wire | extra
        wires.append(wire)
    return wires


class TestBatchedIdentification:
    def test_identify_batch_matches_scalar(self, rng, basis):
        correlator = CoincidenceCorrelator(basis)
        wires = random_wires(rng, basis, 32)
        batch = SpikeTrainBatch.from_trains(wires)
        batched = correlator.identify_batch(batch).results()
        for wire, got in zip(wires, batched):
            assert got == correlator.identify(wire)

    def test_identify_batch_with_start_slot(self, rng, basis):
        correlator = CoincidenceCorrelator(basis)
        wires = random_wires(rng, basis, 16)
        batch = SpikeTrainBatch.from_trains(wires)
        start = int(rng.integers(1, basis.grid.n_samples // 2))
        batched = correlator.identify_batch(batch, start_slot=start).results()
        for wire, got in zip(wires, batched):
            assert got == correlator.identify(wire, start_slot=start)

    def test_identify_batch_missing_none(self, basis):
        silent = SpikeTrain.empty(basis.grid)
        batch = SpikeTrainBatch.from_trains([basis.encode(0), silent])
        results = CoincidenceCorrelator(basis).identify_batch(
            batch, missing="none"
        ).results()
        assert results[0] is not None and results[0].element == 0
        assert results[1] is None

    def test_identify_batch_missing_raise(self, basis):
        silent = SpikeTrain.empty(basis.grid)
        batch = SpikeTrainBatch.from_trains([basis.encode(0), silent])
        with pytest.raises(IdentificationError):
            CoincidenceCorrelator(basis).identify_batch(batch)

    def test_detect_members_batch_matches_scalar(self, rng, basis):
        correlator = CoincidenceCorrelator(basis)
        wires = []
        for _unused in range(16):
            members = rng.choice(
                basis.size, size=int(rng.integers(0, basis.size + 1)), replace=False
            )
            wires.append(basis.encode_set(members.tolist()))
        batch = SpikeTrainBatch.from_trains(wires)
        batched = correlator.detect_members_batch(batch).as_dicts()
        for wire, got in zip(wires, batched):
            assert got == correlator.detect_members(wire)

    def test_detect_members_batch_until_slot(self, rng, basis):
        correlator = CoincidenceCorrelator(basis)
        wires = random_wires(rng, basis, 8)
        batch = SpikeTrainBatch.from_trains(wires)
        limit = int(rng.integers(1, basis.grid.n_samples))
        batched = correlator.detect_members_batch(batch, until_slot=limit)
        for wire, got in zip(wires, batched.as_dicts()):
            assert got == correlator.detect_members(wire, until_slot=limit)


class TestBatchedDecode:
    def test_decode_batch_matches_scalar(self, rng, basis):
        selections = [
            rng.choice(basis.size, size=int(rng.integers(0, 5)), replace=False).tolist()
            for _unused in range(12)
        ]
        batch = basis.encode_batch(selections)
        decoded = decode_superposition_batch(basis, batch)
        for keys, value, wire in zip(selections, decoded, batch):
            assert value == decode_superposition(basis, wire)
            assert value.members == frozenset(int(k) for k in keys)

    def test_decode_batch_strict_rejects_foreign(self, basis, as_residency):
        foreign = basis.grid.n_samples - 1
        while basis.owner_of_slot(foreign) is not None:
            foreign -= 1
        wire = basis.encode(0) | SpikeTrain([foreign], basis.grid)
        batch = as_residency(
            SpikeTrainBatch.from_trains([basis.encode(1), wire])
        )
        with pytest.raises(HyperspaceError, match=r"wire\(s\) \[1\]"):
            decode_superposition_batch(basis, batch, strict=True)
        decoded = decode_superposition_batch(basis, batch, strict=False)
        assert decoded[1].members == frozenset([0])


class TestBatchedSearch:
    def test_linear_scan_batch_matches_scalar(self, rng):
        database = rng.integers(0, 50, size=40).tolist()
        targets = rng.integers(0, 60, size=25).tolist()
        batched = linear_scan_batch(database, targets)
        for target, got in zip(targets, batched):
            assert got == linear_scan(database, target)

    def test_linear_scan_batch_empty_database(self):
        results = linear_scan_batch([], [1, 2])
        assert all(not r.found and r.queries == 0 for r in results)

    def test_query_batch_matches_scalar(self, rng, basis):
        database = SuperpositionDatabase(basis)
        members = rng.choice(
            basis.size, size=int(rng.integers(1, basis.size)), replace=False
        )
        database.load(members.tolist())
        states = list(range(basis.size))
        batched = database.query_batch(states)
        for state, got in zip(states, batched):
            assert got == database.query(state)
        assert database.verify()

    def test_query_batch_with_start_slot(self, rng, basis):
        database = SuperpositionDatabase(basis)
        database.load([0, 2, 4])
        start = int(rng.integers(1, basis.grid.n_samples // 4))
        for state, got in zip(
            range(basis.size), database.query_batch(range(basis.size), start)
        ):
            assert got == database.query(state, start_slot=start)


def scalar_identify(correlator, wire, start_slot):
    """The scalar receiver's answer, None where it finds no coincidence."""
    try:
        return correlator.identify(wire, start_slot=start_slot)
    except IdentificationError:
        return None


class TestReceiverResidencies:
    """Every batched receiver, on every residency, equals the scalar one.

    The same randomized wires (some with injected foreign spikes) run
    as a CSR-only, a raster-resident and a packed-primary batch; each
    must reproduce the per-wire receiver (``identify``,
    ``detect_members``, ``decode_superposition``) exactly, whichever
    path the residency routes to.
    """

    def test_identify_batch(self, rng, basis, as_residency):
        correlator = CoincidenceCorrelator(basis)
        wires = random_wires(rng, basis, 24)
        batch = as_residency(SpikeTrainBatch.from_trains(wires))
        start = int(rng.integers(0, basis.grid.n_samples // 2))
        got = correlator.identify_batch(
            batch, start_slot=start, missing="none"
        ).results()
        assert got == [scalar_identify(correlator, w, start) for w in wires]

    def test_detect_members_batch(self, rng, basis, as_residency):
        correlator = CoincidenceCorrelator(basis)
        wires = random_wires(rng, basis, 12)
        batch = as_residency(SpikeTrainBatch.from_trains(wires))
        limit = int(rng.integers(1, basis.grid.n_samples))
        got = correlator.detect_members_batch(batch, until_slot=limit)
        assert got.as_dicts() == [
            correlator.detect_members(w, until_slot=limit) for w in wires
        ]

    def test_decode_batch(self, rng, basis, as_residency):
        wires = random_wires(rng, basis, 12)
        batch = as_residency(SpikeTrainBatch.from_trains(wires))
        assert decode_superposition_batch(basis, batch, strict=False) == [
            decode_superposition(basis, w, strict=False) for w in wires
        ]

    def test_packed_primary_receivers_never_decode(self, rng, basis):
        """A packed-primary batch is identified and decoded on the
        bitset itself; the CSR must stay unmaterialised throughout."""
        correlator = CoincidenceCorrelator(basis)
        wires = [basis.encode(int(rng.integers(basis.size))) for _ in range(16)]
        csr_batch = SpikeTrainBatch.from_trains(wires)
        primary = SpikeTrainBatch.from_packed(
            csr_batch.packbits(), csr_batch.grid
        )
        identified = correlator.identify_batch(primary)
        members = correlator.detect_members_batch(primary)
        decoded = decode_superposition_batch(basis, primary)
        assert not primary.csr_materialised
        assert identified.results() == correlator.identify_batch(
            csr_batch
        ).results()
        reference = correlator.detect_members_batch(csr_batch)
        assert np.array_equal(members.first_slots, reference.first_slots)
        assert decoded == decode_superposition_batch(basis, csr_batch)

    def test_encode_batch_stays_packed_and_matches_scalar(self, rng, basis):
        selections = [
            rng.choice(basis.size, size=int(rng.integers(0, 4)), replace=False).tolist()
            for _unused in range(8)
        ]
        batch = basis.encode_batch(selections)
        assert batch.packed_materialised and not batch.csr_materialised
        assert batch.to_trains() == [
            basis.encode_set(keys) for keys in selections
        ]


@pytest.fixture(scope="module")
def routing_wires():
    """A basis plus sparse and dense CSR batches of the same elements.

    Each element holds ~2.5% of the grid, so a batch of whole-element
    wires is dense; five spikes per wire keeps the other batch sparse.
    """
    rng = np.random.default_rng(11)
    grid = SimulationGrid(n_samples=4096, dt=1e-12)
    source = random_train(rng, grid, 0.2)
    basis = HyperspaceBasis.from_orthogonator(
        DemuxOrthogonator.with_outputs(8).transform(source)
    )
    elements = rng.integers(basis.size, size=16)
    dense = SpikeTrainBatch.from_trains(
        [basis.encode(int(e)) for e in elements]
    )
    sparse = SpikeTrainBatch.from_trains(
        [SpikeTrain(basis.encode(int(e)).indices[:5], grid) for e in elements]
    )
    assert sparse.density() < RASTER_DENSITY_THRESHOLD < dense.density()
    return basis, sparse, dense


def _packed_with_raster(batch):
    primary = packed_primary(batch)
    primary.raster  # asked for per-slot booleans: the raster is resident
    return primary


#: residency -> (builder, which routing batch it rebuilds)
ROUTING_RESIDENCIES = {
    "csr-sparse": (csr_only, "sparse"),
    "csr-dense": (csr_only, "dense"),
    "raster": (raster_resident, "dense"),
    "packed": (packed_primary, "sparse"),
    "packed+raster": (_packed_with_raster, "dense"),
}

#: (receiver, residency, path) — today's routing, pinned.
ROUTES = [
    ("identify", "csr-sparse", "walk"),
    ("identify", "csr-dense", "packed"),
    ("identify", "raster", "walk"),
    ("identify", "packed", "packed"),
    ("identify", "packed+raster", "walk"),
    ("members", "csr-sparse", "walk"),
    ("members", "csr-dense", "packed"),
    ("members", "raster", "walk"),
    ("members", "packed", "packed"),
    ("members", "packed+raster", "walk"),
    ("decode", "csr-sparse", "packed"),
    ("decode", "csr-dense", "packed"),
    ("decode", "raster", "packed"),
    ("decode", "packed", "packed"),
    ("decode", "packed+raster", "packed"),
]

#: (left residency, right residency, pass) for row-wise set algebra.
SETOP_ROUTES = [
    ("csr-dense", "csr-sparse", "packed"),
    ("raster", "csr-sparse", "raster"),
    ("csr-sparse", "raster", "raster"),
    ("packed", "packed", "packed"),
    ("packed", "raster", "raster"),
]


def _build(routing_wires, residency):
    _basis, sparse, dense = routing_wires
    builder, source = ROUTING_RESIDENCIES[residency]
    return builder(sparse if source == "sparse" else dense)


def _path_taken(run, batch):
    """``"packed"`` or ``"walk"``, read off what ``run`` materialised.

    A packed receiver packs a batch that lacked words; a walk decodes
    the CSR of a batch that lacked one.
    """
    had_words = batch.packed_materialised
    run(batch)
    if had_words:
        return "walk" if batch.csr_materialised else "packed"
    return "packed" if batch.packed_materialised else "walk"


class TestResidencyRouting:
    """Which path each residency takes — routing is by residency alone."""

    @pytest.mark.parametrize("receiver, residency, path", ROUTES)
    def test_receiver_route(self, routing_wires, receiver, residency, path):
        basis = routing_wires[0]
        correlator = CoincidenceCorrelator(basis)
        run = {
            "identify": lambda b: correlator.identify_batch(b, missing="none"),
            "members": correlator.detect_members_batch,
            "decode": lambda b: decode_superposition_batch(basis, b),
        }[receiver]
        batch = _build(routing_wires, residency)
        if receiver != "decode":
            assert batch.prefers_csr_walk() == (path == "walk")
        assert _path_taken(run, batch) == path

    @pytest.mark.parametrize("left, right, path", SETOP_ROUTES)
    def test_setop_route(self, routing_wires, left, right, path):
        a = _build(routing_wires, left)
        b = _build(routing_wires, right)
        result = a & b
        assert result.raster_materialised == (path == "raster")
        if path == "packed":
            assert a.packed_materialised and b.packed_materialised
            assert not result.csr_materialised
        expected = [x & y for x, y in zip(a.to_trains(), b.to_trains())]
        assert result.to_trains() == expected


class TestOrthogonatorBatchOutputs:
    def test_demux_transform_batch_matches(self, rng):
        grid = SimulationGrid(n_samples=2048, dt=1e-12)
        source = random_train(rng, grid, 0.3)
        device = DemuxOrthogonator.with_outputs(5)
        scalar = device.transform(source)
        batched = device.transform_batch(source)
        assert batched.labels == scalar.labels
        assert batched.batch.to_trains() == list(scalar.trains)
        assert batched.batch.is_mutually_orthogonal()

    def test_intersection_transform_batch_matches(self, rng):
        grid = SimulationGrid(n_samples=2048, dt=1e-12)
        inputs = [random_train(rng, grid, 0.15) for _unused in range(3)]
        device = IntersectionOrthogonator(3)
        scalar = device.transform(*inputs)
        batched = device.transform_batch(*inputs)
        assert batched.labels == scalar.labels
        assert batched.batch.to_trains() == list(scalar.trains)
        assert batched.to_output(verify=True).labels == scalar.labels

    def test_intersection_transform_batch_empty(self):
        grid = SimulationGrid(n_samples=64, dt=1e-12)
        device = IntersectionOrthogonator(2)
        batched = device.transform_batch(
            SpikeTrain.empty(grid), SpikeTrain.empty(grid)
        )
        assert batched.batch.total_spikes == 0
        assert len(batched) == 3
