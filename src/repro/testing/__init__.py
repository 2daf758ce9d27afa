"""Test-support machinery shipped with the library.

:mod:`repro.testing.faults` is the fault-injection harness: named
fault points compiled into the pipeline and serving tiers, armed via
the ``REPRO_FAULT`` environment variable (which crosses fork and
spawn boundaries for free).  Production code pays one dict lookup per
point when no fault is armed.

:mod:`repro.testing.differential` is the correctness twin: a
deliberately naive single-gate reference evaluator for logic-network
batches plus a generic equivalence runner, so fast paths are always
checked against a slow implementation that is obviously right.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(), {}, modules=("differential", "faults")
)
