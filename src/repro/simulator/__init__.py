"""Event-driven spike-circuit simulator.

* :class:`Engine` / :class:`Component` — the scheduler core;
* components: :class:`SpikeSource`, :class:`Probe`, :class:`DelayLine`,
  :class:`CyclicDemux`, :class:`CoincidenceGate`,
  :class:`AntiCoincidenceGate`, :class:`RefractoryFilter`;
* prebuilt networks: :func:`demux_network`,
  :func:`intersection_network_2`, :func:`delayed_identification_network`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "engine": ("Engine", "Component", "Event"),
        "components": (
            "SpikeSource",
            "Probe",
            "DelayLine",
            "CyclicDemux",
            "CoincidenceGate",
            "AntiCoincidenceGate",
            "RefractoryFilter",
        ),
        "networks": (
            "demux_network",
            "intersection_network_2",
            "delayed_identification_network",
        ),
        "logic_components": (
            "CorrelatorComponent",
            "GateComponent",
            "gate_network",
            "RobustCorrelatorComponent",
        ),
        "circuit_runner": (
            "CompiledCircuit",
            "compile_circuit",
            "run_circuit",
        ),
        "variation": (
            "VariationOutcome",
            "randomize_connection_delays",
            "variation_monte_carlo",
        ),
    },
)
