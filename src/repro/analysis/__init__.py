"""Analysis utilities: Rice theory, result tables, progressive readout."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "rice": (
            "rice_rate",
            "rice_rate_white",
            "rice_rate_power_law",
            "rice_mean_isi",
            "empirical_crossing_rate",
            "relative_rate_error",
        ),
        "tables": ("PaperValue", "StatsRow", "StatsTable"),
        "progressive": (
            "DigitReadout",
            "progressive_readout",
            "value_error_profile",
        ),
        "robustness": (
            "RobustnessPoint",
            "jitter_sweep",
            "loss_sweep",
            "injection_sweep",
        ),
        "capacity": (
            "LinkCapacity",
            "link_capacity",
            "capacity_sweep",
            "optimal_radix",
        ),
    },
)
