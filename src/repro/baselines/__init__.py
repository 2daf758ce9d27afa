"""Comparator schemes from the paper's reference list.

* :class:`ContinuumNoiseLogic` — time-averaged correlation over analog
  noise carriers (ref [3]);
* :class:`SinusoidalLogic` — quadrature correlation over sinusoidal
  carriers (ref [5]);
* periodic spike-train logic and its delay-aliasing failure (Section 6):
  :func:`periodic_spike_basis`, :func:`identification_verdict`,
  :func:`misidentification_curve`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "continuum": ("ContinuumNoiseLogic", "ContinuumIdentification"),
        "sinusoidal": ("SinusoidalLogic", "SinusoidalIdentification"),
        "periodic": (
            "periodic_spike_basis",
            "identification_verdict",
            "misidentification_curve",
            "DelaySweepPoint",
        ),
    },
)
