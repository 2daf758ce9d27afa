"""Spike-train substrate: data structures, detectors, statistics.

Public surface:

* :class:`SpikeTrain` — immutable set of spike slots with set algebra;
* zero-crossing detectors (:func:`zero_crossings`,
  :class:`AllCrossingDetector`, :class:`UpCrossingDetector`,
  :class:`HysteresisDetector`);
* statistics (:func:`isi_statistics`, :func:`coincidence_count`,
  :func:`cross_coincidence_matrix`, :func:`fano_factor`);
* synthetic generators (:func:`poisson_train`, :func:`periodic_train`,
  :func:`jittered_periodic_train`, :func:`renewal_train`).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "train": ("SpikeTrain",),
        "zero_crossing": (
            "ZeroCrossingDetector",
            "AllCrossingDetector",
            "UpCrossingDetector",
            "DownCrossingDetector",
            "HysteresisDetector",
            "zero_crossings",
        ),
        "statistics": (
            "IsiStatistics",
            "isi_statistics",
            "coincidence_count",
            "coincidence_rate",
            "cross_coincidence_matrix",
            "fano_factor",
            "rate_in_windows",
        ),
        "generators": (
            "poisson_train",
            "periodic_train",
            "jittered_periodic_train",
            "bernoulli_train",
            "renewal_train",
        ),
    },
)
