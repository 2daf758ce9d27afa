"""Hyperspace layer: orthogonal bases, neuro-bit values, superpositions.

* :class:`HyperspaceBasis` — M orthogonal reference trains with slot
  classification;
* :class:`Superposition` / :func:`decode_superposition` — several
  neuro-bits on a single wire;
* :func:`build_demux_basis` / :func:`build_intersection_basis` —
  end-to-end pipelines from noise to basis.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "basis": ("HyperspaceBasis",),
        "superposition": (
            "Superposition",
            "decode_superposition",
            "decode_superposition_batch",
            "encode_superpositions",
            "first_detection_slots",
        ),
        "builders": (
            "build_demux_basis",
            "build_intersection_basis",
            "paper_default_synthesizer",
        ),
    },
)
