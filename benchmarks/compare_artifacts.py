"""Diff two run-artifact trees and fail on numeric result drift.

The determinism companion to ``compare_bench.py``: where that gate
watches *wall time*, this one watches *values*.  Given a baseline and a
candidate — each either one artifact JSON or a directory of them (as
written by ``repro run --output-dir``) — it deep-compares the
deterministic ``result`` block of every experiment and exits non-zero
when any value drifts beyond tolerance.  Missing experiments, missing
keys and shape mismatches are drift too: a result silently losing a
field must not pass the gate.

A NaN leaf matches a NaN at the same place (``json`` writes both as
``NaN``), and drifts against any number.

Volatile wall-time fields inside result payloads (``wall_seconds``,
``build_seconds`` — the fields the pipeline already documents as the
intentionally non-deterministic ones) are skipped everywhere.

``--require NAME`` (repeatable) pins an experiment into the gate: the
comparison fails if NAME is absent from **either** side.  Without it a
brand-new experiment silently rides through as "(new artifact, not in
baseline)" — CI lists every spec it expects so the gate cannot skip
one that stopped being produced.

Usage::

    python benchmarks/compare_artifacts.py baseline_dir/ candidate_dir/
    python benchmarks/compare_artifacts.py old/table1.json new/table1.json
    python benchmarks/compare_artifacts.py a/ b/ --rtol 1e-6 --atol 1e-12
    python benchmarks/compare_artifacts.py a/ b/ --require logicnet

The default tolerances (``rtol 1e-9``, ``atol 0``) flag anything beyond
float round-off; loosen them for cross-platform comparisons where BLAS
reduction order may differ.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

#: Result fields that are wall-clock measurements, never values — the
#: same exclusions the pipeline's own identity checks apply.
VOLATILE_KEYS = frozenset({"wall_seconds", "build_seconds"})


def load_results(path: pathlib.Path) -> Dict[str, dict]:
    """Experiment name → deterministic ``result`` block.

    ``path`` is one artifact JSON or a directory of them;
    ``manifest.json`` (run metadata, not a result) is ignored.
    """
    if path.is_dir():
        files = sorted(
            p for p in path.glob("*.json") if p.name != "manifest.json"
        )
        if not files:
            raise ValueError(f"{path}: no artifact JSON files")
    else:
        files = [path]
    results: Dict[str, dict] = {}
    for file in files:
        payload = json.loads(file.read_text())
        if not isinstance(payload, dict) or "result" not in payload:
            raise ValueError(f"{file}: not a run artifact (no 'result' key)")
        results[payload.get("experiment", file.stem)] = payload["result"]
    return results


def _diff_values(
    old, new, rtol: float, atol: float, at: str, drifts: List[str]
) -> None:
    """Append a message to ``drifts`` for every mismatch under ``at``."""
    if isinstance(old, dict) and isinstance(new, dict):
        old_keys = set(old) - VOLATILE_KEYS
        new_keys = set(new) - VOLATILE_KEYS
        for key in sorted(old_keys - new_keys):
            drifts.append(f"{at}.{key}: missing from candidate")
        for key in sorted(new_keys - old_keys):
            drifts.append(f"{at}.{key}: not in baseline")
        for key in sorted(old_keys & new_keys):
            _diff_values(old[key], new[key], rtol, atol, f"{at}.{key}", drifts)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            drifts.append(f"{at}: length {len(old)} -> {len(new)}")
            return
        for index, (a, b) in enumerate(zip(old, new)):
            _diff_values(a, b, rtol, atol, f"{at}[{index}]", drifts)
        return
    # bool is an int subclass; compare it (and None/str) exactly.
    numeric_old = isinstance(old, (int, float)) and not isinstance(old, bool)
    numeric_new = isinstance(new, (int, float)) and not isinstance(new, bool)
    if numeric_old and numeric_new:
        # NaN on both sides is the same value (a mean over no samples,
        # say); math.isclose would call it drift.  NaN against a number
        # still is.
        if math.isnan(old) and math.isnan(new):
            return
        if not math.isclose(old, new, rel_tol=rtol, abs_tol=atol):
            drifts.append(f"{at}: {old!r} -> {new!r}")
        return
    if old != new:
        drifts.append(f"{at}: {old!r} -> {new!r}")


def compare(
    baseline: Dict[str, dict],
    candidate: Dict[str, dict],
    rtol: float,
    atol: float,
    max_report: int = 8,
    require: Sequence[str] = (),
) -> List[str]:
    """Compare two result maps; returns the list of drift messages.

    ``require`` names experiments that must be present on both sides —
    absence anywhere is drift, not a footnote.
    """
    drifts: List[str] = []
    for name in require:
        for side, results in (("baseline", baseline), ("candidate", candidate)):
            if name not in results:
                drifts.append(f"{name}: required but missing from {side}")
                print(f"{name:<28s} REQUIRED, missing from {side}")
    for name in sorted(baseline):
        if name not in candidate:
            drifts.append(f"{name}: missing from candidate")
            print(f"{name:<28s} MISSING")
            continue
        local: List[str] = []
        _diff_values(baseline[name], candidate[name], rtol, atol, name, local)
        status = "ok" if not local else f"DRIFT ({len(local)} values)"
        print(f"{name:<28s} {status}")
        for message in local[:max_report]:
            print(f"    {message}")
        if len(local) > max_report:
            print(f"    ... and {len(local) - max_report} more")
        drifts.extend(local)
    for name in sorted(set(candidate) - set(baseline)):
        print(f"{name:<28s} (new artifact, not in baseline)")
    return drifts


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Deep-diff the deterministic 'result' blocks of run "
        "artifacts; non-zero exit on value drift beyond tolerance."
    )
    parser.add_argument("baseline", type=pathlib.Path,
                        help="baseline artifact JSON or directory")
    parser.add_argument("candidate", type=pathlib.Path,
                        help="candidate artifact JSON or directory")
    parser.add_argument(
        "--rtol",
        type=float,
        default=1e-9,
        help="relative tolerance for numeric leaves (default 1e-9)",
    )
    parser.add_argument(
        "--atol",
        type=float,
        default=0.0,
        help="absolute tolerance for numeric leaves (default 0)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="experiment that must exist on both sides (repeatable); "
        "absence is a failure, not a note",
    )
    args = parser.parse_args(argv)
    if args.rtol < 0 or args.atol < 0:
        parser.error("tolerances must be >= 0")

    drifts = compare(
        load_results(args.baseline),
        load_results(args.candidate),
        args.rtol,
        args.atol,
        require=args.require,
    )
    if drifts:
        print(f"\n{len(drifts)} drifted value(s)", file=sys.stderr)
        return 1
    print("\nno drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
