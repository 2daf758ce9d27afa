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
  the two per-train set-algebra backends behind ``SpikeTrain``
  (sorted-merge and raster, picked by density; batches route by
  residency instead), and the zero-copy shared-memory arenas sharded
  runs dispatch through;
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
  ``repro serve``: a binary protocol (version 5) whose payload is the
  bitset itself, an asyncio front-end sharding requests onto the
  runner's pool, and the reference client (``docs/serving.md``).

Quickstart::

    from repro import build_demux_basis, CoincidenceCorrelator

    basis = build_demux_basis(4, rng=42)        # 4-valued hyperspace
    wire = basis.encode(2)                      # transmit value 2
    result = CoincidenceCorrelator(basis).identify(wire)
    assert result.element == 2                  # first spike decides

Every exported name and every subpackage is imported on first use
(:mod:`repro._exports`): ``import repro`` loads no other module.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "errors": (
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
        ),
        "units": ("SimulationGrid", "paper_white_grid", "paper_pink_grid"),
        "noise": (
            "Band",
            "WhiteSpectrum",
            "PinkSpectrum",
            "NoiseSynthesizer",
            "NoiseSource",
            "paper_white_source",
            "paper_pink_source",
        ),
        "spikes": ("SpikeTrain", "zero_crossings", "isi_statistics"),
        "backend": (
            "SpikeTrainBatch",
            "available_backends",
            "get_backend",
            "select_backend",
        ),
        "orthogonator": (
            "DemuxOrthogonator",
            "IntersectionOrthogonator",
            "OrthogonatorOutput",
            "spike_packages",
        ),
        "hyperspace": (
            "HyperspaceBasis",
            "Superposition",
            "decode_superposition",
            "build_demux_basis",
            "build_intersection_basis",
        ),
        "logic": (
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
            "SpikeRouter",
            "RoutingFabric",
        ),
        "hyperspace.codec": ("NeuroBitCodec",),
        "search": (
            "SuperpositionDatabase",
            "linear_scan",
            "linear_scan_batch",
            "grover_search",
            "verify_equality",
            "verify_subset",
        ),
        "pipeline": ("Runner", "ArtifactStore"),
    },
)
__all__.insert(0, "__version__")
