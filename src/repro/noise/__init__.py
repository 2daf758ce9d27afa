"""Noise synthesis substrate: band-limited Gaussian sources.

Public surface:

* :class:`Band`, :class:`WhiteSpectrum`, :class:`PinkSpectrum`,
  :class:`PowerLawSpectrum`, :class:`LorentzianSpectrum` — PSD shapes;
* :class:`NoiseSynthesizer`, :func:`synthesize` — FFT-shaped records;
* :class:`NoiseSource`, :func:`paper_white_source`,
  :func:`paper_pink_source` — seedable streams with the paper's bands;
* :class:`CorrelatedNoisePair`, :class:`CommonModeMixer` — the
  common-mode correlation construction of Section 4.2;
* :func:`welch_psd`, :func:`autocorrelation`, :func:`fit_spectral_slope`
  — validation estimators.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spectra": (
            "Band",
            "Spectrum",
            "WhiteSpectrum",
            "PinkSpectrum",
            "PowerLawSpectrum",
            "LorentzianSpectrum",
            "PAPER_WHITE_BAND",
            "PAPER_PINK_BAND",
        ),
        "synthesis": (
            "NoiseSynthesizer",
            "synthesize",
            "make_rng",
            "spawn_rng",
        ),
        "sources": (
            "NoiseSource",
            "paper_white_source",
            "paper_pink_source",
            "independent_records",
            "correlated_records",
        ),
        "correlated": (
            "CommonModeMixer",
            "CorrelatedNoisePair",
            "PAPER_COMMON_AMPLITUDE",
            "PAPER_PRIVATE_AMPLITUDE",
            "correlation_from_amplitudes",
            "amplitudes_from_correlation",
        ),
        "psd": (
            "PsdEstimate",
            "welch_psd",
            "autocorrelation",
            "fit_spectral_slope",
        ),
    },
)
