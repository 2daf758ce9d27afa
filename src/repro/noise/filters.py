"""Time-domain (IIR) band-limiting: the physical noise-source model.

The FFT synthesiser (:mod:`repro.noise.synthesis`) imposes the PSD
exactly but needs the whole record at once — fine for reproducing the
paper's 65 536-point statistics, unsuitable for *streaming* operation or
for modelling what a real chip does.  A physical noise source is white
thermal noise pushed through analog filters; this module provides that
path:

* :func:`design_bandpass` — Butterworth band-pass as second-order
  sections (scipy design, validated against the band edges);
* :class:`IirNoiseShaper` — stateful filter that shapes an i.i.d.
  Gaussian stream block by block with seamless state across blocks;
* :class:`StreamingNoiseSource` — endless band-limited noise stream and
  incremental zero-crossing extraction
  (:meth:`StreamingNoiseSource.spikes`).

The tests verify the streamed spectrum matches the FFT path's band and
that block-by-block output is bit-identical to one-shot filtering —
the "seamless" property the paper's always-on noise sources need.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..spikes.train import SpikeTrain
from ..units import SimulationGrid
from .spectra import Band
from .synthesis import RngLike, make_rng

__all__ = ["design_bandpass", "IirNoiseShaper", "StreamingNoiseSource"]


def design_bandpass(
    band: Band,
    grid: SimulationGrid,
    order: int = 4,
) -> np.ndarray:
    """Butterworth band-pass second-order sections for ``band`` on ``grid``.

    ``order`` is the analog prototype order per edge.  Both edges must be
    strictly inside (0, Nyquist).  Returns an SOS array suitable for
    :func:`scipy.signal.sosfilt`.
    """
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    nyquist = grid.nyquist
    if not (0.0 < band.f_low < band.f_high < nyquist):
        raise ConfigurationError(
            f"band {band.describe()} must sit strictly inside "
            f"(0, Nyquist = {nyquist:g} Hz) for IIR design"
        )
    low = band.f_low / nyquist
    high = band.f_high / nyquist
    # Imported here: scipy.signal is tens of MB resident and the slowest
    # import in the package; the serving pool forks after module
    # imports, so a top-level import would be inherited by every worker.
    from scipy import signal

    return signal.butter(order, [low, high], btype="bandpass", output="sos")


class IirNoiseShaper:
    """Stateful band-limiting filter over an i.i.d. Gaussian stream.

    Blocks filtered in sequence are bit-identical to filtering their
    concatenation in one call (the filter state is carried across
    blocks), so arbitrarily long noise streams can be produced with
    bounded memory.
    """

    def __init__(self, band: Band, grid: SimulationGrid, order: int = 4) -> None:
        self.band = band
        self.grid = grid
        self._sos = design_bandpass(band, grid, order=order)
        self._state = np.zeros((self._sos.shape[0], 2))
        from scipy import signal  # deferred: see design_bandpass

        # Normalisation: the filtered process's std depends on the band;
        # estimate it once from the filter's frequency response so every
        # block can be scaled without looking at the data (data-dependent
        # scaling would break seamlessness).
        worN = 4096
        _freqs, response = signal.sosfreqz(self._sos, worN=worN)
        # Input PSD is flat with total variance 1 over [0, Nyquist].
        power_gain = float(np.mean(np.abs(response) ** 2))
        if power_gain <= 0:
            raise ConfigurationError("degenerate filter: zero power gain")
        self._scale = 1.0 / np.sqrt(power_gain)

    def reset(self) -> None:
        """Clear the filter state (restart the stream)."""
        self._state = np.zeros_like(self._state)

    def shape(self, white: np.ndarray) -> np.ndarray:
        """Filter one block of i.i.d. Gaussian samples, carrying state."""
        white = np.asarray(white, dtype=float)
        if white.ndim != 1:
            raise ConfigurationError(f"block must be 1-D, got shape {white.shape}")
        from scipy import signal  # deferred: see design_bandpass

        shaped, self._state = signal.sosfilt(self._sos, white, zi=self._state)
        return shaped * self._scale


class StreamingNoiseSource:
    """Endless band-limited Gaussian noise with incremental spike output.

    Produces blocks of band-limited noise (:meth:`blocks`) or, one level
    higher, the zero-crossing spike stream (:meth:`spikes`) with spike
    indices continuing monotonically across block boundaries — including
    crossings that straddle a boundary, which a naive per-block detector
    would miss.
    """

    def __init__(
        self,
        band: Band,
        grid: SimulationGrid,
        seed: RngLike = None,
        order: int = 4,
        warmup_blocks: int = 4,
    ) -> None:
        self.band = band
        self.grid = grid
        self._shaper = IirNoiseShaper(band, grid, order=order)
        self._rng = make_rng(seed)
        self._block = grid.n_samples
        # Let the filter's transient die out before delivering samples.
        for _unused in range(max(0, warmup_blocks)):
            self._shaper.shape(self._rng.standard_normal(self._block))
        self._last_sample: Optional[float] = None
        self._offset = 0

    def next_block(self) -> np.ndarray:
        """The next ``grid.n_samples`` samples of the stream."""
        return self._shaper.shape(self._rng.standard_normal(self._block))

    def blocks(self) -> Iterator[np.ndarray]:
        """Endless iterator of consecutive blocks."""
        while True:
            yield self.next_block()

    def spikes(self, n_blocks: int) -> Tuple[np.ndarray, int]:
        """Zero-crossing spike indices over the next ``n_blocks`` blocks.

        Returns ``(indices, n_samples)`` where indices are global (they
        continue across calls) and ``n_samples`` is the total stream
        length consumed so far.  Boundary-straddling crossings are
        attributed to the first sample of the new block, exactly as the
        one-shot detector would.
        """
        if n_blocks < 1:
            raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")
        collected = []
        for _unused in range(n_blocks):
            block = self.next_block()
            if self._last_sample is not None:
                extended = np.concatenate(([self._last_sample], block))
                local = _sign_change_indices(extended)  # 1-based into block
                collected.append(local - 1 + self._offset)
            else:
                local = _sign_change_indices(block)
                collected.append(local + self._offset)
            self._last_sample = float(block[-1])
            self._offset += block.shape[0]
        indices = (
            np.concatenate(collected) if collected else np.empty(0, dtype=np.int64)
        )
        return indices.astype(np.int64), self._offset

    def spike_train(self, n_blocks: int) -> SpikeTrain:
        """Spikes over the next ``n_blocks`` blocks as a train.

        The train lives on a grid of ``n_blocks × grid.n_samples``
        samples with indices relative to the start of this call.
        """
        start = self._offset
        indices, _total = self.spikes(n_blocks)
        window = SimulationGrid(
            n_samples=n_blocks * self._block, dt=self.grid.dt
        )
        return SpikeTrain(indices - start, window)


def _sign_change_indices(record: np.ndarray) -> np.ndarray:
    """Indices i with sign(record[i]) != sign(record[i-1]), zeros glued back."""
    signs = np.sign(record)
    if np.any(signs == 0):
        nonzero = signs != 0
        positions = np.where(nonzero, np.arange(signs.size), -1)
        np.maximum.accumulate(positions, out=positions)
        signs = np.where(positions >= 0, signs[np.maximum(positions, 0)], 1.0)
    return np.flatnonzero(signs[1:] != signs[:-1]) + 1
