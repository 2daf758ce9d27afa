"""repro — noise-based neuro-bit spike logic.

A full reproduction of *"Towards Brain-inspired Computing"* (Gingl,
Khatri, Kish): deterministic multi-valued logic whose values are
orthogonal random spike trains ("neuro-bits") derived from the
zero-crossing events of band-limited Gaussian noises.

Layers (bottom-up):

* :mod:`repro.noise` — band-limited Gaussian noise synthesis, correlated
  sources, PSD estimation;
* :mod:`repro.spikes` — spike-train data structures, zero-crossing
  detectors, statistics, synthetic generators;
* :mod:`repro.backend` — vectorised batch execution: ``SpikeTrainBatch``
  (N trains × T slots with CSR, word-aligned packed-bitset and raster
  forms, the bitset compute-primary), the bit-parallel packed kernels,
  the pluggable set-algebra backends (sorted-merge, raster, bitset —
  auto-selected by density and residency) behind ``SpikeTrain`` and
  the hot paths, and the zero-copy shared-memory arenas sharded runs
  dispatch through;
* :mod:`repro.orthogonator` — the paper's core circuits (demultiplexer-
  based and intersection-based orthogonators, rate homogenization);
* :mod:`repro.hyperspace` — orthogonal reference bases, superpositions;
* :mod:`repro.logic` — coincidence correlators, Boolean and multi-valued
  gates, set operations, sequential logic, circuits and synthesis;
* :mod:`repro.simulator` — event-driven spike-circuit simulation;
* :mod:`repro.baselines` — continuum-noise, sinusoidal and periodic
  comparison schemes;
* :mod:`repro.energy` — thermal-noise energy models;
* :mod:`repro.experiments` — drivers reproducing every table, figure
  and quantitative claim of the paper;
* :mod:`repro.pipeline` — the execution layer: the experiment registry,
  the sharded parallel :class:`~repro.pipeline.runner.Runner` and the
  JSON/text :class:`~repro.pipeline.store.ArtifactStore` behind
  ``repro run``;
* :mod:`repro.serving` — the packed-bitset RPC boundary behind
  ``repro serve``: a versioned binary protocol whose payload is the
  bitset itself, an asyncio front-end sharding requests onto the
  runner's pool, and the reference client (``docs/serving.md``).

Quickstart::

    from repro import build_demux_basis, CoincidenceCorrelator

    basis = build_demux_basis(4, rng=42)        # 4-valued hyperspace
    wire = basis.encode(2)                      # transmit value 2
    result = CoincidenceCorrelator(basis).identify(wire)
    assert result.element == 2                  # first spike decides
"""

from .backend import (
    SpikeTrainBatch,
    available_backends,
    get_backend,
    select_backend,
)
from .errors import (
    ConfigurationError,
    HyperspaceError,
    IdentificationError,
    LogicError,
    OrthogonalityError,
    PipelineError,
    ReproError,
    SimulationError,
    SpectrumError,
    SpikeTrainError,
    SynthesisError,
)
from .pipeline import ArtifactStore, Runner
from .hyperspace import (
    HyperspaceBasis,
    Superposition,
    build_demux_basis,
    build_intersection_basis,
    decode_superposition,
)
from .logic import (
    Circuit,
    CoincidenceCorrelator,
    IdentificationResult,
    MooreMachine,
    PackageClock,
    SymbolStream,
    TruthTableGate,
    and_gate,
    gate_from_function,
    max_gate,
    min_gate,
    mod_sum_gate,
    not_gate,
    or_gate,
    ripple_adder,
    xor_gate,
)
from .noise import (
    Band,
    NoiseSource,
    NoiseSynthesizer,
    PinkSpectrum,
    WhiteSpectrum,
    paper_pink_source,
    paper_white_source,
)
from .orthogonator import (
    DemuxOrthogonator,
    IntersectionOrthogonator,
    OrthogonatorOutput,
    spike_packages,
)
from .hyperspace.codec import NeuroBitCodec
from .logic.routing import RoutingFabric, SpikeRouter
from .search import (
    SuperpositionDatabase,
    grover_search,
    linear_scan,
    linear_scan_batch,
    verify_equality,
    verify_subset,
)
from .spikes import SpikeTrain, isi_statistics, zero_crossings
from .units import SimulationGrid, paper_pink_grid, paper_white_grid

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SpectrumError",
    "SpikeTrainError",
    "OrthogonalityError",
    "HyperspaceError",
    "LogicError",
    "IdentificationError",
    "SimulationError",
    "SynthesisError",
    "PipelineError",
    # units
    "SimulationGrid",
    "paper_white_grid",
    "paper_pink_grid",
    # noise
    "Band",
    "WhiteSpectrum",
    "PinkSpectrum",
    "NoiseSynthesizer",
    "NoiseSource",
    "paper_white_source",
    "paper_pink_source",
    # spikes
    "SpikeTrain",
    "zero_crossings",
    "isi_statistics",
    # backend
    "SpikeTrainBatch",
    "available_backends",
    "get_backend",
    "select_backend",
    # orthogonators
    "DemuxOrthogonator",
    "IntersectionOrthogonator",
    "OrthogonatorOutput",
    "spike_packages",
    # hyperspace
    "HyperspaceBasis",
    "Superposition",
    "decode_superposition",
    "build_demux_basis",
    "build_intersection_basis",
    # logic
    "CoincidenceCorrelator",
    "IdentificationResult",
    "TruthTableGate",
    "gate_from_function",
    "not_gate",
    "and_gate",
    "or_gate",
    "xor_gate",
    "min_gate",
    "max_gate",
    "mod_sum_gate",
    "PackageClock",
    "SymbolStream",
    "MooreMachine",
    "Circuit",
    "ripple_adder",
    # applications
    "NeuroBitCodec",
    "SpikeRouter",
    "RoutingFabric",
    "SuperpositionDatabase",
    "linear_scan",
    "linear_scan_batch",
    "grover_search",
    "verify_equality",
    "verify_subset",
    # pipeline
    "Runner",
    "ArtifactStore",
]
