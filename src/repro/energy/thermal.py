"""Thermal-noise energetics: bounds and device-level noise figures.

The paper's low-power argument (Sections 1–2) rests on the
thermal-noise-driven computing analysis of its reference [4]: the "noise
clock" costs nothing because it *is* the thermal noise of a resistor in
a dispersion-free line, while a periodic clock must be generated and
distributed at full swing.  This module provides the physical quantities
that analysis is built from:

* :func:`landauer_limit` — kT·ln2, the floor for erasing one bit;
* :func:`johnson_noise_rms` — the open-circuit thermal noise of a
  resistor over a bandwidth, the free signal source;
* :func:`error_probability` / :func:`margin_for_error` — the Gaussian
  threshold-crossing error rate for a given supply margin, connecting
  supply voltage to logic reliability;
* :func:`switching_energy` — CV² dynamic energy of charging a node.

All quantities are SI.  The models are deliberately first-order — the
paper argues orders of magnitude, not percent.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = [
    "BOLTZMANN",
    "ROOM_TEMPERATURE",
    "landauer_limit",
    "johnson_noise_rms",
    "error_probability",
    "margin_for_error",
    "switching_energy",
    "thermal_voltage",
]

#: Boltzmann constant, J/K.
BOLTZMANN = 1.380649e-23

#: Convention for "room temperature", K.
ROOM_TEMPERATURE = 300.0


def landauer_limit(temperature: float = ROOM_TEMPERATURE) -> float:
    """kT·ln2 — the minimum energy to erase one bit (J)."""
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    return BOLTZMANN * temperature * math.log(2.0)


def thermal_voltage(temperature: float = ROOM_TEMPERATURE) -> float:
    """kT/q — the thermal voltage (V), the sub-threshold design scale."""
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    elementary_charge = 1.602176634e-19
    return BOLTZMANN * temperature / elementary_charge


def johnson_noise_rms(
    resistance: float,
    bandwidth: float,
    temperature: float = ROOM_TEMPERATURE,
) -> float:
    """RMS open-circuit Johnson noise voltage ``sqrt(4kTRB)`` (V).

    This is the free, dissipation-less "clock" signal of the
    noise-driven scheme: observing it costs nothing until it is
    amplified.
    """
    if resistance <= 0:
        raise ConfigurationError(f"resistance must be positive, got {resistance}")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    return math.sqrt(4.0 * BOLTZMANN * temperature * resistance * bandwidth)


def error_probability(margin: float) -> float:
    """Gaussian threshold-crossing error for a supply margin in noise-σ.

    A logic level separated from the decision threshold by ``margin``
    standard deviations of the superimposed Gaussian noise is misread
    with probability ``0.5 · erfc(margin / sqrt(2))``.
    """
    if margin < 0:
        raise ConfigurationError(f"margin must be non-negative, got {margin}")
    # Imported here: the experiment registry imports this module, so a
    # top-level scipy.special would be paid by the CLI and inherited by
    # every forked serving worker.
    from scipy.special import erfc

    return 0.5 * float(erfc(margin / math.sqrt(2.0)))


def margin_for_error(probability: float) -> float:
    """Inverse of :func:`error_probability`: required margin in noise-σ."""
    if not (0.0 < probability < 0.5):
        raise ConfigurationError(
            f"probability must lie in (0, 0.5), got {probability}"
        )
    from scipy.special import erfcinv  # deferred: see error_probability

    return math.sqrt(2.0) * float(erfcinv(2.0 * probability))


def switching_energy(capacitance: float, voltage: float) -> float:
    """Dynamic energy to charge a node: ``C·V²`` per full cycle (J).

    (½CV² is drawn per edge; the full cycle dissipates CV² in the
    switching network.)
    """
    if capacitance <= 0:
        raise ConfigurationError(f"capacitance must be positive, got {capacitance}")
    if voltage < 0:
        raise ConfigurationError(f"voltage must be non-negative, got {voltage}")
    return capacitance * voltage * voltage
