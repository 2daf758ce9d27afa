"""Orthogonators: the paper's core circuits.

* :class:`DemuxOrthogonator` — serial, cyclic dealing, spike packages
  (:func:`spike_packages`) defining computer time;
* :class:`IntersectionOrthogonator` — parallel, all 2^N − 1 set products
  (:func:`product_label` names them);
* :class:`Homogenizer` / :func:`search_common_amplitude` — rate
  homogenization via correlated sources (Section 4.2);
* :class:`OrthogonatorOutput` — labelled orthogonal outputs with
  enforced orthogonality.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": (
            "Orthogonator",
            "OrthogonatorOutput",
            "BatchOrthogonatorOutput",
            "verify_orthogonality",
        ),
        "demux": (
            "DemuxOrthogonator",
            "SpikePackage",
            "spike_packages",
            "wire_label",
        ),
        "intersection": (
            "IntersectionOrthogonator",
            "product_label",
            "default_input_names",
            "subset_masks",
        ),
        "homogenize": (
            "Homogenizer",
            "HomogenizationResult",
            "homogenization_spread",
            "search_common_amplitude",
        ),
    },
)
