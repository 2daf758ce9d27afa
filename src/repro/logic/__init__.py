"""Deterministic logic over neuro-bit spike trains.

* :class:`CoincidenceCorrelator` — first-coincidence identification;
* :class:`TruthTableGate` + Boolean factories — elementary gates;
* multi-valued families (:func:`min_gate`, :func:`max_gate`,
  :func:`mod_sum_gate`, :func:`literal_gate`, ...);
* sequential logic on spike packages (:class:`PackageClock`,
  :class:`SymbolStream`, :class:`MooreMachine`);
* netlists and synthesis (:class:`Circuit`, :func:`ripple_adder`,
  :func:`comparator`, :func:`multiplexer`, :func:`parity_circuit`).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "correlator": (
            "CoincidenceCorrelator",
            "BatchDetection",
            "BatchIdentification",
            "IdentificationResult",
            "detection_latency_samples",
        ),
        "gates": (
            "TruthTableGate",
            "GateTransmission",
            "gate_from_function",
            "buffer_gate",
            "not_gate",
            "and_gate",
            "or_gate",
            "xor_gate",
            "nand_gate",
            "nor_gate",
        ),
        "multivalued": (
            "MultiValuedAlphabet",
            "min_gate",
            "max_gate",
            "negation_gate",
            "mod_sum_gate",
            "mod_product_gate",
            "successor_gate",
            "literal_gate",
        ),
        "sequential": (
            "PackageClock",
            "SymbolStream",
            "MooreMachine",
            "counter_machine",
            "accumulator_machine",
        ),
        "circuits": ("Circuit", "CircuitTransmission", "Node"),
        "synthesis": (
            "ripple_adder",
            "adder_reference",
            "comparator",
            "comparator_reference",
            "multiplexer",
            "parity_circuit",
            "digit_sum_gate",
            "digit_carry_gate",
        ),
        "sop": ("synthesize_sop", "SopStatistics", "sop_statistics"),
        "routing": (
            "SpikeRouter",
            "RouteDecision",
            "RoutingFabric",
            "FabricDelivery",
        ),
        "set_gates": ("SetValuedGate", "SetTransmission"),
    },
)
