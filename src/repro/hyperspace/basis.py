"""The logic hyperspace: an orthogonal reference basis of spike trains.

A :class:`HyperspaceBasis` is the multidimensional space of Section 4: M
mutually orthogonal spike trains ("neuro-bits"), each representing one
basis element / logic value.  Because the trains never share a spike
slot, any occupied slot identifies its basis element uniquely — the
property that makes single-coincidence identification deterministic.

Bases are typically built from an orthogonator output
(:meth:`HyperspaceBasis.from_orthogonator`), but any collection of
orthogonal trains qualifies.

A basis is immutable, so derived projections are cached per basis for
its lifetime: the dense ``owner_vector`` (slot → owning element) and the
stacked element batch build lazily and are reused, and
:meth:`HyperspaceBasis.encode_set` / :meth:`HyperspaceBasis.encode_batch`
memoise their outputs in an LRU so repeated decode/search experiments
stop recomputing the same basis projections.
:meth:`HyperspaceBasis.cache_info` exposes hit/miss counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..errors import HyperspaceError
from ..orthogonator.base import OrthogonatorOutput, verify_orthogonality
from ..orthogonator.demux import DemuxOrthogonator
from ..spikes.generators import poisson_train
from ..spikes.train import SpikeTrain
from ..units import SimulationGrid

__all__ = ["HyperspaceBasis"]


ElementKey = Union[int, str]

#: Default capacity (entries) of the per-basis encode LRU.
DEFAULT_ENCODE_CACHE_SIZE = 128

#: Default byte budget of the per-basis encode LRU.  Cached batches
#: carry dense rasters (N × n_samples bools), so an entry bound alone
#: could pin gigabytes; the byte bound is the one that matters.
DEFAULT_ENCODE_CACHE_BYTES = 64 * 1024 * 1024


def _cache_cost(value: object) -> int:
    """Upper-bound resident bytes of a cached encode result.

    Cached batches are weighed at their *worst-case* residency — CSR +
    packed words + dense raster — not what happens to be materialised
    at insert time: a consumer pulling ``.raster`` or ``.csr()`` on a
    cached packed-primary batch materialises those forms in place on
    the shared object, and the byte budget must still bound them.
    ``total_spikes`` is a popcount on packed-primary batches, so the
    weighing itself forces no decode.
    """
    if isinstance(value, SpikeTrainBatch):
        n_rows, n_samples = value.n_trains, value.grid.n_samples
        csr_bytes = value.total_spikes * 8 + (n_rows + 1) * 8
        packed_bytes = n_rows * ((n_samples + 63) // 64) * 8
        return csr_bytes + packed_bytes + n_rows * n_samples + 64
    if isinstance(value, SpikeTrain):
        return value.indices.nbytes + 64
    return 64


class _LruCache:
    """A small LRU bounded by entry count *and* total bytes.

    Values are weighed with :func:`_cache_cost`; inserting evicts
    oldest entries until both bounds hold, and a value bigger than the
    whole byte budget is returned uncached.
    """

    __slots__ = ("maxsize", "max_bytes", "hits", "misses", "total_bytes",
                 "_data")

    def __init__(self, maxsize: int, max_bytes: int) -> None:
        if maxsize < 1:
            raise HyperspaceError(f"cache size must be >= 1, got {maxsize}")
        if max_bytes < 1:
            raise HyperspaceError(
                f"cache byte budget must be >= 1, got {max_bytes}"
            )
        self.maxsize = int(maxsize)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.total_bytes = 0
        self._data: "OrderedDict" = OrderedDict()

    def get_or_build(self, key, build: Callable[[], object]) -> object:
        """The cached value for ``key``, building (and caching) on miss."""
        if key in self._data:
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key][0]
        self.misses += 1
        value = build()
        cost = _cache_cost(value)
        if cost > self.max_bytes:
            return value  # would evict everything and still not fit
        self._data[key] = (value, cost)
        self.total_bytes += cost
        while (
            len(self._data) > self.maxsize
            or self.total_bytes > self.max_bytes
        ):
            _key, (_value, evicted_cost) = self._data.popitem(last=False)
            self.total_bytes -= evicted_cost
        return value

    def __len__(self) -> int:
        return len(self._data)


class HyperspaceBasis:
    """An ordered, labelled, orthogonal set of reference spike trains.

    Parameters
    ----------
    trains:
        The basis element trains.  Must be non-empty, all on one grid,
        and pairwise orthogonal (verified on construction).
    labels:
        Parallel element labels; default ``V1..VM`` following the paper's
        notation ``{V_i(t_k)}``.
    """

    def __init__(
        self,
        trains: Sequence[SpikeTrain],
        labels: Optional[Sequence[str]] = None,
        *,
        encode_cache_size: int = DEFAULT_ENCODE_CACHE_SIZE,
        encode_cache_bytes: int = DEFAULT_ENCODE_CACHE_BYTES,
    ) -> None:
        if not trains:
            raise HyperspaceError("a hyperspace basis needs at least one element")
        grid = trains[0].grid
        for train in trains[1:]:
            if train.grid != grid:
                raise HyperspaceError("basis trains must share one grid")
        if labels is None:
            labels = [f"V{i + 1}" for i in range(len(trains))]
        if len(labels) != len(trains):
            raise HyperspaceError(
                f"{len(trains)} trains but {len(labels)} labels"
            )
        if len(set(labels)) != len(labels):
            raise HyperspaceError(f"duplicate labels: {labels}")
        verify_orthogonality(trains, labels)

        self._trains: Tuple[SpikeTrain, ...] = tuple(trains)
        self._labels: Tuple[str, ...] = tuple(labels)
        self._grid = grid
        self._label_to_index = {label: i for i, label in enumerate(self._labels)}
        # Cached projections: the owner vector, the element batch and
        # the owned-slot bitset build lazily on first use; encode
        # results memoise in the LRU.
        self._owner_vector: Optional[np.ndarray] = None
        self._owner_builds = 0
        self._owner_hits = 0
        self._batch: Optional[SpikeTrainBatch] = None
        self._owned_words: Optional[np.ndarray] = None
        self._encode_cache = _LruCache(encode_cache_size, encode_cache_bytes)

    def _build_owner_vector(self) -> np.ndarray:
        """Dense slot → owning-element map (-1 for unowned slots).

        One scatter per element; orthogonality guarantees the scatters
        never collide.  This array is what makes every classification
        path a single vectorised gather.
        """
        owner = np.full(self._grid.n_samples, -1, dtype=np.int32)
        for element, train in enumerate(self._trains):
            owner[train.indices] = element
        owner.setflags(write=False)
        return owner

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_orthogonator(cls, output: OrthogonatorOutput) -> "HyperspaceBasis":
        """Adopt an orthogonator's labelled outputs as a basis."""
        return cls(list(output.trains), list(output.labels))

    @classmethod
    def from_poisson_demux(
        cls,
        n_outputs: int,
        source_isi_samples: float,
        grid: SimulationGrid,
        rng: np.random.Generator,
    ) -> "HyperspaceBasis":
        """Deal one Poisson source train cyclically over ``n_outputs``
        elements.

        The source fires with a mean spacing of ``source_isi_samples``
        slots on ``grid``, drawn from ``rng``, which is left where the
        draw ended: a caller may go on drawing its workload from the
        same stream.  The serving basis and the ``identify`` and
        ``logicnet`` experiments share this recipe.
        """
        source = poisson_train(
            rate_hz=1.0 / (source_isi_samples * grid.dt), grid=grid, rng=rng
        )
        return cls.from_orthogonator(
            DemuxOrthogonator.with_outputs(n_outputs).transform(source)
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of basis elements M."""
        return len(self._trains)

    @property
    def grid(self) -> SimulationGrid:
        """The grid all element trains live on."""
        return self._grid

    @property
    def labels(self) -> Tuple[str, ...]:
        """Element labels in order."""
        return self._labels

    @property
    def trains(self) -> Tuple[SpikeTrain, ...]:
        """Element trains in order."""
        return self._trains

    @property
    def owner_vector(self) -> np.ndarray:
        """Dense slot → element-index map of length ``n_samples`` (-1 = unowned).

        The vectorised identification paths gather through this array
        instead of walking a per-slot dictionary.  Built lazily on
        first use and cached for the basis's lifetime.
        """
        if self._owner_vector is None:
            self._owner_vector = self._build_owner_vector()
            self._owner_builds += 1
        else:
            self._owner_hits += 1
        return self._owner_vector

    def as_batch(self) -> SpikeTrainBatch:
        """The element trains stacked as one ``(M, n_samples)`` batch (cached)."""
        if self._batch is None:
            self._batch = SpikeTrainBatch.from_trains(self._trains)
        return self._batch

    def packed_elements(self) -> np.ndarray:
        """The element trains as packed words ``(M, ceil(n_samples / 64))``.

        The reference side of every packed-kernel receiver: coincidence
        against element ``m`` is one AND against row ``m``.  Cached via
        the element batch.
        """
        return self.as_batch().packed_words()

    @property
    def owned_words(self) -> np.ndarray:
        """Packed bitset of every slot owned by *any* element (cached).

        The union of the element rows — orthogonality makes the rows
        disjoint, so ``wire & owned_words`` keeps exactly the wire's
        coinciding spikes.  This is the packed counterpart of
        :attr:`owner_vector` (1/8 of its footprint, one word per 64
        slots) and what the packed identification paths scan.
        """
        if self._owned_words is None:
            merged = np.bitwise_or.reduce(self.packed_elements(), axis=0)
            merged.setflags(write=False)
            self._owned_words = merged
        return self._owned_words

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Tuple[str, SpikeTrain]]:
        return iter(zip(self._labels, self._trains))

    def index_of(self, key: ElementKey) -> int:
        """Resolve an element key (index or label) to its index."""
        if isinstance(key, str):
            try:
                return self._label_to_index[key]
            except KeyError:
                raise HyperspaceError(
                    f"no element labelled {key!r}; available: {list(self._labels)}"
                ) from None
        index = int(key)
        if not (0 <= index < self.size):
            raise HyperspaceError(
                f"element index {index} out of range [0, {self.size})"
            )
        return index

    def label_of(self, key: ElementKey) -> str:
        """Resolve an element key to its label."""
        return self._labels[self.index_of(key)]

    def train(self, key: ElementKey) -> SpikeTrain:
        """The reference train of one element."""
        return self._trains[self.index_of(key)]

    # ------------------------------------------------------------------
    # Encoding and slot classification
    # ------------------------------------------------------------------

    def encode(self, key: ElementKey) -> SpikeTrain:
        """Physical signal carrying the single value ``key`` (its train)."""
        return self.train(key)

    def encode_set(self, keys: Sequence[ElementKey]) -> SpikeTrain:
        """Superposition wire: union of the selected elements' trains.

        This is the paper's "several neuro-bits transmitted on a single
        wire" — up to ``2^M − 1`` distinct superpositions ride one wire.
        An empty selection yields the empty train (the zero vector).
        Results are memoised in the basis's encode LRU (spike trains
        are immutable, so sharing them is safe).
        """
        indices = tuple(sorted({self.index_of(k) for k in keys}))
        return self._encode_cache.get_or_build(
            ("set", indices), lambda: self._encode_set_uncached(indices)
        )

    def _encode_set_uncached(self, indices: Tuple[int, ...]) -> SpikeTrain:
        if not indices:
            return SpikeTrain.empty(self._grid)
        merged = np.concatenate([self._trains[i].indices for i in indices])
        return SpikeTrain(merged, self._grid)

    def encode_batch(
        self, selections: Sequence[Sequence[ElementKey]]
    ) -> SpikeTrainBatch:
        """Encode many superpositions at once as a ``(K, n_samples)`` batch.

        Row ``k`` carries the union of the reference trains selected by
        ``selections[k]`` — the batched form of :meth:`encode_set`,
        computed as one member-mask × element-raster product instead of
        K Python-side unions.  Results are memoised in the basis's
        encode LRU keyed on the normalised selections (batches are
        immutable, so sharing them is safe).
        """
        if not selections:
            raise HyperspaceError("encode_batch needs at least one selection")
        key = tuple(
            tuple(sorted({self.index_of(k) for k in keys}))
            for keys in selections
        )
        return self._encode_cache.get_or_build(
            ("batch", key), lambda: self._encode_batch_uncached(key)
        )

    def _encode_batch_uncached(
        self, selections: Tuple[Tuple[int, ...], ...]
    ) -> SpikeTrainBatch:
        member_mask = np.zeros((len(selections), self.size), dtype=np.uint8)
        for k, indices in enumerate(selections):
            member_mask[k, list(indices)] = 1
        # One member-mask × packed-element product, 1/8 the bytes of
        # the raster matmul it replaces.  Orthogonality makes the
        # element rows' bits disjoint, so the per-byte sums are their
        # OR and cannot overflow; the result is a clean packed batch
        # whose CSR decodes lazily only if someone asks for indices.
        element_bytes = self.packed_elements().view(np.uint8)
        packed_rows = member_mask @ element_bytes
        return SpikeTrainBatch._from_packed_words(
            np.ascontiguousarray(packed_rows).view(np.uint64),
            self._grid,
            validate=False,
        )

    def owner_of_slot(self, slot: int) -> Optional[int]:
        """Element index owning ``slot``, or None for an empty slot."""
        slot = int(slot)
        if not (0 <= slot < self._grid.n_samples):
            return None
        owner = int(self.owner_vector[slot])
        return None if owner < 0 else owner

    def owners_of(self, slots: np.ndarray) -> np.ndarray:
        """Vectorised slot classification: element index per slot, -1 unowned.

        Slots outside the grid (a wire from a longer record) classify as
        unowned, matching the graceful behaviour of
        :meth:`owner_of_slot`; the bounds check is one min/max pass and
        the masked gather only runs when a slot actually falls outside.
        """
        slots = np.asarray(slots, dtype=np.int64)
        owner_vector = self.owner_vector
        if slots.size == 0:
            return np.empty(0, dtype=owner_vector.dtype)
        if int(slots.min()) >= 0 and int(slots.max()) < self._grid.n_samples:
            return owner_vector[slots]
        owners = np.full(slots.shape, -1, dtype=owner_vector.dtype)
        in_range = (slots >= 0) & (slots < self._grid.n_samples)
        owners[in_range] = owner_vector[slots[in_range]]
        return owners

    def classify_train(self, train: SpikeTrain) -> Dict[int, int]:
        """Histogram: element index → number of ``train``'s spikes it owns.

        Spikes in slots owned by no element are counted under key ``-1``
        (noise / foreign spikes).
        """
        owners = self.owners_of(train.indices)
        histogram = np.bincount(owners + 1, minlength=self.size + 1)
        counts = {
            element: int(histogram[element + 1])
            for element in range(-1, self.size)
            if histogram[element + 1]
        }
        return counts

    # ------------------------------------------------------------------
    # Cache counters
    # ------------------------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Cache effectiveness counters for the basis's projections.

        ``owner_vector_builds`` / ``owner_vector_hits`` count lazy
        builds vs reuses of the dense owner vector;
        ``encode_hits`` / ``encode_misses`` count the encode LRU
        (:meth:`encode_set` + :meth:`encode_batch`); ``encode_entries``
        / ``encode_bytes`` are its current fill, ``encode_maxsize`` /
        ``encode_max_bytes`` its bounds.
        """
        return {
            "owner_vector_builds": self._owner_builds,
            "owner_vector_hits": self._owner_hits,
            "owner_vector_cached": int(self._owner_vector is not None),
            "encode_hits": self._encode_cache.hits,
            "encode_misses": self._encode_cache.misses,
            "encode_entries": len(self._encode_cache),
            "encode_bytes": self._encode_cache.total_bytes,
            "encode_maxsize": self._encode_cache.maxsize,
            "encode_max_bytes": self._encode_cache.max_bytes,
        }

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def occupancy(self) -> float:
        """Fraction of grid slots carrying any reference spike."""
        occupied = sum(len(t) for t in self._trains)
        return occupied / self._grid.n_samples

    def rates(self) -> Dict[str, float]:
        """Per-element mean spike rates (spikes/s)."""
        return {label: t.mean_rate() for label, t in self}

    def min_spike_count(self) -> int:
        """Spike count of the sparsest element (identification bottleneck)."""
        return min(len(t) for t in self._trains)

    def describe(self) -> str:
        """One-line basis summary."""
        return (
            f"HyperspaceBasis(M={self.size}, "
            f"min/max spikes={self.min_spike_count()}"
            f"/{max(len(t) for t in self._trains)}, "
            f"occupancy={self.occupancy():.3%})"
        )
