"""End-to-end hyperspace construction pipelines.

These builders wire together the noise, spike and orthogonator layers so
applications can go from "I want an M-valued hyperspace" to a ready
:class:`~repro.hyperspace.basis.HyperspaceBasis` in one call, matching
the recipes of Section 4:

* :func:`build_demux_basis` — one noise source, zero crossings, cyclic
  demux (uniform rates, natural computer time);
* :func:`build_intersection_basis` — N noise sources (optionally
  correlated for homogenization), zero crossings, all-products
  expansion (exponential basis from linear wires).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..noise.correlated import CommonModeMixer
from ..noise.spectra import PAPER_WHITE_BAND, Spectrum, WhiteSpectrum
from ..noise.synthesis import NoiseSynthesizer, RngLike, make_rng
from ..orthogonator.demux import DemuxOrthogonator
from ..orthogonator.intersection import IntersectionOrthogonator
from ..spikes.zero_crossing import AllCrossingDetector
from ..units import SimulationGrid, paper_white_grid
from .basis import HyperspaceBasis

__all__ = [
    "build_demux_basis",
    "build_intersection_basis",
    "paper_default_synthesizer",
]


def paper_default_synthesizer(
    grid: Optional[SimulationGrid] = None,
    spectrum: Optional[Spectrum] = None,
) -> NoiseSynthesizer:
    """The paper's default noise configuration (white, 5 MHz–10 GHz)."""
    if grid is None:
        grid = paper_white_grid()
    if spectrum is None:
        spectrum = WhiteSpectrum(PAPER_WHITE_BAND)
    return NoiseSynthesizer(spectrum, grid)


def build_demux_basis(
    n_outputs: int,
    synthesizer: Optional[NoiseSynthesizer] = None,
    rng: RngLike = None,
) -> HyperspaceBasis:
    """Build an M-element basis with a demultiplexer-based orthogonator.

    One noise record is generated, its zero crossings extracted, and the
    resulting spike train dealt over ``n_outputs`` wires.  All elements
    share the source's mean rate divided by M.
    """
    if n_outputs < 1:
        raise ConfigurationError(f"n_outputs must be >= 1, got {n_outputs}")
    if synthesizer is None:
        synthesizer = paper_default_synthesizer()
    record = synthesizer.generate(make_rng(rng))
    source = AllCrossingDetector().detect(record, synthesizer.grid)
    output = DemuxOrthogonator.with_outputs(n_outputs).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


def build_intersection_basis(
    n_inputs: int,
    synthesizer: Optional[NoiseSynthesizer] = None,
    common_amplitude: float = 0.0,
    rng: RngLike = None,
    input_names: Optional[Sequence[str]] = None,
) -> HyperspaceBasis:
    """Build a ``2^N − 1``-element basis with an intersection orthogonator.

    ``common_amplitude`` > 0 correlates the N source noises through a
    common-mode component, homogenizing the output rates as in
    Section 4.2.  Following the paper's convention the amplitudes add
    *linearly* to one: the private amplitude is ``1 − common_amplitude``
    (the paper's pair is 0.945 / 0.055, a source correlation of
    ~0.9966).  With 0.945 the three outputs of an N = 2 device fire
    within a factor ~1.3 of each other instead of ~25×.
    """
    if n_inputs < 1:
        raise ConfigurationError(f"n_inputs must be >= 1, got {n_inputs}")
    if not (0.0 <= common_amplitude < 1.0):
        raise ConfigurationError(
            f"common_amplitude must lie in [0, 1), got {common_amplitude}"
        )
    if synthesizer is None:
        synthesizer = paper_default_synthesizer()
    rng = make_rng(rng)
    if common_amplitude > 0.0:
        mixer = CommonModeMixer(
            synthesizer,
            common_amplitude=common_amplitude,
            private_amplitude=1.0 - common_amplitude,
        )
        records = mixer.generate(n_inputs, rng=rng)
    else:
        records = [synthesizer.generate(rng) for _unused in range(n_inputs)]

    detector = AllCrossingDetector()
    trains = [detector.detect(record, synthesizer.grid) for record in records]
    device = IntersectionOrthogonator(n_inputs, input_names=input_names)
    return HyperspaceBasis.from_orthogonator(device.transform(*trains))
