"""Search over the hyperspace, with classical and quantum comparators.

* :class:`SuperpositionDatabase` — membership by single coincidence
  (query cost independent of database size);
* :func:`linear_scan` / :func:`expected_scan_queries` — the classical
  unstructured-search baseline (O(K));
* :func:`grover_search` / :func:`optimal_iterations` — an exact
  state-vector Grover simulator (O(sqrt K) oracle calls).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "superposition_search": ("SuperpositionDatabase", "QueryResult"),
        "classical": (
            "linear_scan",
            "linear_scan_batch",
            "ScanResult",
            "expected_scan_queries",
            "average_scan_queries",
        ),
        "grover": ("grover_search", "GroverResult", "optimal_iterations"),
        "verification": (
            "VerificationResult",
            "verify_equality",
            "verify_subset",
        ),
    },
)
