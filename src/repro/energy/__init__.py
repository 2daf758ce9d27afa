"""Energy models for the low-power argument (Sections 1–2, ref [4]).

* physical layer: :func:`landauer_limit`, :func:`johnson_noise_rms`,
  :func:`error_probability`, :func:`margin_for_error`,
  :func:`switching_energy`, :func:`thermal_voltage`;
* scheme layer: :class:`AmplifierChain`, :func:`noise_scheme_energy`,
  :func:`clocked_scheme_energy`, :func:`compare_schemes`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "thermal": (
            "BOLTZMANN",
            "ROOM_TEMPERATURE",
            "landauer_limit",
            "johnson_noise_rms",
            "error_probability",
            "margin_for_error",
            "switching_energy",
            "thermal_voltage",
        ),
        "power": (
            "AmplifierChain",
            "SchemeEnergy",
            "noise_scheme_energy",
            "clocked_scheme_energy",
            "compare_schemes",
        ),
    },
)
