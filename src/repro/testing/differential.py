"""Differential testing: cross-check fast paths against trusted slow ones.

The batched packed evaluators exist to be *fast*; their correctness
contract is that they are **bit-identical** to the obvious slow
implementation.  This module holds that contract's two halves:

* a **reference single-gate evaluator** for
  :class:`~repro.logic.netbatch.LogicNetBatch` built on the
  :mod:`repro.logic.gates` primitives — every gate id materialises a
  real :class:`~repro.logic.gates.TruthTableGate` via
  :func:`~repro.logic.gates.gate_from_function`, and evaluation walks
  the networks one gate at a time reading that gate's truth table
  (:func:`reference_evaluate`).  Nothing is vectorised across gates,
  nothing is packed: the slow path is the specification;
* a generic **equivalence runner**, :func:`assert_equivalent`, that
  feeds the same cases to a reference and a fast callable and demands
  exact equality, reporting the first diverging case in full.

The property suites (``tests/logic/test_netbatch_properties.py``)
drive random networks through both halves on the one
``np.bitwise_count`` popcount path; the
benchmarks reuse :func:`reference_evaluate` as the per-gate baseline
the batched kernels are gated against.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

from ..hyperspace.basis import HyperspaceBasis
from ..logic.gates import TruthTableGate, gate_from_function
from ..logic.netbatch import LogicNetBatch
from ..spikes.train import SpikeTrain
from ..units import SimulationGrid

__all__ = [
    "GATE_FUNCTIONS",
    "reference_gate",
    "reference_evaluate",
    "assert_equivalent",
]

#: id -> (name, Boolean function) for the 16 two-input truth tables, in
#: the enumeration :func:`~repro.backend.packed.gate_masks`
#: implements: bit ``3 - (2a + b)`` of the id is the output at (a, b).
GATE_FUNCTIONS = (
    ("false", lambda a, b: False),
    ("and", lambda a, b: a and b),
    ("a_and_not_b", lambda a, b: a and not b),
    ("a", lambda a, b: a),
    ("not_a_and_b", lambda a, b: not a and b),
    ("b", lambda a, b: b),
    ("xor", lambda a, b: a != b),
    ("or", lambda a, b: a or b),
    ("nor", lambda a, b: not (a or b)),
    ("xnor", lambda a, b: a == b),
    ("not_b", lambda a, b: not b),
    ("b_implies_a", lambda a, b: a or not b),
    ("not_a", lambda a, b: not a),
    ("a_implies_b", lambda a, b: not a or b),
    ("nand", lambda a, b: not (a and b)),
    ("true", lambda a, b: True),
)


@functools.lru_cache(maxsize=1)
def _binary_basis() -> HyperspaceBasis:
    """The smallest valid binary hyperspace, built once.

    The reference gates are used symbolically (``table`` lookups), but
    they are *real* :class:`TruthTableGate` objects, so they need a
    real 2-element basis to exist in.
    """
    grid = SimulationGrid(n_samples=64, dt=1e-12)
    return HyperspaceBasis(
        [SpikeTrain(range(k, 64, 8), grid) for k in range(2)]
    )


@functools.lru_cache(maxsize=16)
def reference_gate(op_id: int) -> TruthTableGate:
    """The symbolic gate for one op id (a real tabulated gate object)."""
    name, function = GATE_FUNCTIONS[int(op_id)]
    basis = _binary_basis()
    return gate_from_function(name, (basis, basis), basis, function)


@functools.lru_cache(maxsize=16)
def _gate_lut(op_id: int) -> np.ndarray:
    """Output column of one gate's truth table, indexed by ``2a + b``.

    Read off the :class:`TruthTableGate`'s own table — the packed
    kernel's bit tricks are *not* consulted — so the reference path is
    grounded in the same primitive the hand-built circuits trust.
    """
    gate = reference_gate(int(op_id))
    return np.array(
        [gate.table[(0, 0)], gate.table[(0, 1)],
         gate.table[(1, 0)], gate.table[(1, 1)]],
        dtype=bool,
    )


def reference_evaluate(
    nets: LogicNetBatch, inputs: np.ndarray
) -> np.ndarray:
    """Final-layer outputs of ``nets`` as a dense ``(N, G, T)`` boolean.

    The specification evaluator: one network at a time, one layer at a
    time, **one gate at a time**, each gate applying its
    :class:`TruthTableGate` table to its two fan-in lines.  ``inputs``
    is the dense ``(n_inputs, T)`` boolean form of the shared input
    lines.  Deliberately naive — this is what the batched packed path
    must match bit for bit.
    """
    inputs = np.asarray(inputs, dtype=bool)
    if inputs.shape[0] != nets.n_inputs:
        raise ValueError(
            f"expected {nets.n_inputs} input lines, got {inputs.shape[0]}"
        )
    n_samples = inputs.shape[1]
    out = np.empty((nets.n_networks, nets.n_gates, n_samples), dtype=bool)
    for net in range(nets.n_networks):
        state = inputs
        for layer in range(nets.depth):
            next_state = np.empty((nets.n_gates, n_samples), dtype=bool)
            for gate in range(nets.n_gates):
                ia, ib = nets.wiring[net, layer, gate]
                a, b = state[ia], state[ib]
                lut = _gate_lut(nets.op_ids[net, layer, gate])
                next_state[gate] = lut[(a.astype(np.int64) << 1) | b]
            state = next_state
        out[net] = state
    return out


def assert_equivalent(
    reference: Callable,
    fast: Callable,
    cases: Iterable,
    *,
    describe: Callable = repr,
) -> int:
    """Demand ``fast(case) == reference(case)`` exactly, for every case.

    The generic differential runner: each case is passed to both
    callables (as-is, or splatted if it is a tuple) and the results
    must be exactly equal — array results element-for-element via
    :func:`numpy.testing.assert_array_equal`, anything else by ``==``.
    On divergence the raised ``AssertionError`` names the case (via
    ``describe``) so a failing random sweep is reproducible from the
    message alone.  Returns the number of cases checked.
    """
    count = 0
    for case in cases:
        arguments = case if isinstance(case, tuple) else (case,)
        expected = reference(*arguments)
        got = fast(*arguments)
        _assert_same(expected, got, describe(case))
        count += 1
    return count


def _assert_same(expected, got, label: str) -> None:
    if isinstance(expected, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(expected), (
            f"differential mismatch on {label}: "
            f"{type(got).__name__} of length {len(got)!r} "
            f"vs expected {len(expected)}"
        )
        for index, (e, g) in enumerate(zip(expected, got)):
            _assert_same(e, g, f"{label}[{index}]")
        return
    if isinstance(expected, np.ndarray) or isinstance(got, np.ndarray):
        np.testing.assert_array_equal(
            np.asarray(got),
            np.asarray(expected),
            err_msg=f"differential mismatch on {label}",
        )
        return
    assert got == expected, (
        f"differential mismatch on {label}: {got!r} != {expected!r}"
    )
