"""End-to-end benchmark of a live ``repro serve``.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--seconds S] [--trace [0|1]]
    python3 benchmarks/e2e/run.py agree [--sets 2] [--runs 3] [...]

Each workload spawns ``repro serve`` as its own process three times
(``setup_s`` is the median start-up), warms the last one for 2 s, drives
it from this single process for ``--seconds``, checks every reply bit
for bit against references computed before the run, stops the server
with SIGTERM and checks it exited 0 and left nothing in ``/dev/shm``.
The last stdout line is one JSON object -- ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics.  Any failed check exits 1.
A run whose latencies are not comparable (too few samples for the tail
percentile, the open-loop generator ran late, or a traced stage split
does not add up) is marked invalid in its output and result record, and
still exits 0.  ``agree`` runs interleaved sets of runs and compares
their medians against each metric's bound.  README.md documents every
metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

WARMUP_SECONDS = 2.0
SETUPS = 3
LAG_LIMIT_MS = 2.0  # open-loop generator lateness above this: run invalid
RECONCILE_LIMIT = 0.05
# Below ~1 ms, scheduler jitter alone exceeds 5%: the split of a
# sub-millisecond request must still land within 50 us.
RECONCILE_FLOOR_US = 50.0
RECONCILED = ("rpc_large_serial", "rpc_large_sharded")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(n_samples: int) -> int:
    """The highest of p99/p90/p50 with at least 10 samples beyond it."""
    for percentile in (99, 90):
        if n_samples * (100 - percentile) / 100 >= 10:
            return percentile
    return 50


def samples_for(percentile: int) -> int:
    """Samples needed before ``percentile`` has 10 beyond it."""
    return math.ceil(10 * 100 / (100 - percentile))


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` files (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


@dataclass
class Served:
    """What one workload's server lifetime produced, before any metric."""

    setup_times: List[float] = field(default_factory=list)
    exit_codes: List[int] = field(default_factory=list)
    warm: object = None
    run: object = None
    stats: dict = field(default_factory=dict)
    server_cpu: float = 0.0
    client_cpu: float = 0.0
    peak_rss_mb: float = 0.0
    respawns: int = 0
    leaked_shm: set = field(default_factory=set)

    def phases(self) -> list:
        """Every phase that sent requests to the measured server."""
        return [self.warm, self.run]


def _pin_apart(server_pid: int) -> None:
    """Put this process on one CPU and every server thread on another.

    Left to the scheduler, client and server sometimes shared a CPU and
    sometimes not, which alone moved rpc_large_serial's p50 between 0.9
    and 1.27 ms from run to run.  The pool workers forked at server
    start keep every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, {cpus[0]})
    for tid in os.listdir(f"/proc/{server_pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpus[1]})
        except ProcessLookupError:
            pass  # the thread ended in between


def _serve(workload, items, tmp, out_dir, seconds, tracer, warmup, setups) -> Served:
    """Start the server ``setups`` times, drive the last one, stop it."""
    from repro.serving.client import AsyncServingClient, ServingClient

    import loadgen
    import serverproc

    served = Served()
    shm_before = serverproc.shm_entries()
    server = None
    affinity = os.sched_getaffinity(0)
    try:
        for attempt in range(setups):
            server = serverproc.ServerProcess(
                str(ROOT), workload.server_flags(tmp),
                str(out_dir / f"serve-{workload.name}.log"),
            ).start()
            served.setup_times.append(server.setup_s)
            if attempt < setups - 1:
                served.exit_codes.append(server.stop())
                server = None
        port = server.port
        _pin_apart(server.proc.pid)

        def phase(length, tracer=None, min_samples=0):
            if workload.rate:
                return loadgen.open_phase(
                    lambda: AsyncServingClient.open("127.0.0.1", port),
                    workload, items, seconds=length, tracer=tracer,
                )
            return loadgen.closed_loop(
                lambda: ServingClient("127.0.0.1", port, timeout=30.0),
                workload, items, seconds=length,
                min_samples=min_samples, tracer=tracer,
            )

        served.warm = phase(warmup)
        cpu_before = serverproc.cpu_seconds(server.tree())
        client_before = os.times()
        served.run = phase(
            seconds, tracer,
            min_samples=0 if tracer else samples_for(workload.tail),
        )
        client_after = os.times()
        tree = server.tree()
        cpu_after = serverproc.cpu_seconds(tree)
        served.server_cpu = sum(
            cpu_after[pid] - cpu_before.get(pid, 0.0) for pid in cpu_after
        )
        served.client_cpu = (client_after.user - client_before.user) + (
            client_after.system - client_before.system
        )
        served.peak_rss_mb = serverproc.peak_rss_mb(tree)
        served.respawns = len(set(tree) - set(server.started_tree))
        with ServingClient("127.0.0.1", port, timeout=30.0) as client:
            served.stats = client.stats()
        served.exit_codes.append(server.stop())
        server = None
    finally:
        os.sched_setaffinity(0, affinity)
        if server is not None:
            server.kill()
    served.leaked_shm = serverproc.shm_entries() - shm_before
    return served


def _metrics(workload, served: Served) -> Dict[str, float]:
    """Every metric a run yields; BENCHMARK.json picks the gated ones."""
    import workloads as wl

    run, stats = served.run, served.stats
    samples = run.samples
    untraced = [s.latency for s in samples if not s.traced]
    n_done = max(1, len(samples))
    served_total = int(stats["requests_served"])
    batches = (
        int(stats["coalesced_batches"])
        + served_total - int(stats["coalesced_requests"])
    )
    return {
        "setup_s": _median(served.setup_times),
        "latency_p50_ms": _median(untraced) * 1e3,
        "latency_tail_ms": _percentile(untraced, workload.tail) * 1e3,
        "throughput_rps": len(samples) / run.seconds,
        "server_cpu_ms_per_req": served.server_cpu * 1e3 / n_done,
        "server_peak_rss_mb": served.peak_rss_mb,
        "failed_ratio": run.failed / max(1, run.attempted),
        "slo_miss_ratio": (
            run.failed + sum(s.latency > wl.SLO_SECONDS for s in samples)
        ) / max(1, run.attempted),
        "server.route_share": (
            sum(s.transport == workload.route for s in samples) / n_done
        ),
        "server.errors": float(stats["errors"]),
        "server.respawns": float(served.respawns),
        "server.coalesce_batch_size": served_total / max(1, batches),
        "server.shards_per_request": _median(
            [len(s.shard_walls) for s in samples]
        ),
        "server.cpu_util": served.server_cpu / run.seconds,
        "client.cpu_util": served.client_cpu / run.seconds,
        "generator.lag_p99_ms": _lag_p99_ms(run),
    }


def _lag_p99_ms(phase) -> float:
    return _percentile(phase.lags, 99) * 1e3


def _checks(workload, served: Served, metrics: Dict[str, float]) -> List[str]:
    """Every check on the server's behaviour; each failure is one line."""
    phases = served.phases()
    failed = []
    mismatched = sum(phase.mismatched for phase in phases)
    if mismatched:
        failed.append(f"{mismatched} replies differ from the reference")
    if served.warm.failed:
        failed.append(f"{served.warm.failed} warm-up requests failed")
    completed = sum(len(phase.samples) for phase in phases)
    sent = served.stats["requests_served"]
    if sum(phase.failed for phase in phases) == 0 and sent != completed:
        failed.append(f"STATS requests_served {sent} != {completed} requests sent")
    for code in served.exit_codes:
        if code != 0:
            failed.append(f"repro serve exited {code} on SIGTERM")
    if served.leaked_shm:
        failed.append(f"/dev/shm entries left behind: {sorted(served.leaked_shm)}")
    if metrics["server.route_share"] != 1.0:
        failed.append(
            f"only {metrics['server.route_share']:.3f} of replies took "
            f"route {workload.route}"
        )
    return failed


def _invalid(workload, served: Served, metrics: Dict[str, float], split: dict) -> List[str]:
    """Why the run's latencies are not to be compared; one line each.

    Too few samples for the workload's tail percentile in an untraced
    run, a late open-loop generator (a host stall, not a slow server), or
    a traced stage split (``split``, empty when untraced) that does not
    add up to the client p50 (the parts were unsteady) marks the run
    invalid but does not fail it: every reply check and every gated
    metric (set-up time and memory) still holds.
    """
    invalid = []
    untraced = sum(not s.traced for s in served.run.samples)
    if not split and tail_percentile(untraced) < workload.tail:
        invalid.append(f"{untraced} samples cannot support p{workload.tail}")
    lag = metrics["generator.lag_p99_ms"]
    if workload.rate and lag > LAG_LIMIT_MS:
        invalid.append(f"generator lag p99 {lag:.2f} ms > {LAG_LIMIT_MS:g} ms")
    if split and workload.name in RECONCILED:
        missed_us = abs(split["sum_us"] - split["client_p50_us"])
        if missed_us > max(
            RECONCILE_LIMIT * split["client_p50_us"], RECONCILE_FLOOR_US
        ):
            invalid.append(
                f"stage split misses the client p50 by {missed_us:.0f} us "
                f"({100 * split['reconcile_error']:.1f}%, limit 5%)"
            )
    return invalid


def _split(workload, samples, layers) -> dict:
    """Per-layer numbers from traced requests, and the stage reconciliation.

    ``wire.residual_us`` is what the client waited beyond the server's
    wall, minus the replayed encode and decode.  Medians do not add, so
    ``encode + residual + server wall + decode`` landing within 5% of the
    traced p50 checks that the per-request split is consistent.
    """
    traced = [s for s in samples if s.traced]
    untraced = [s.latency for s in samples if not s.traced]
    latency = [s.latency for s in traced]
    walls = [s.wall for s in traced]
    kernel = [
        (max if workload.parallel_shards else sum)(s.shard_walls) for s in traced
    ]
    encode, decode = layers["client.encode_us"], layers["client.decode_us"]
    p50_us = _median(latency) * 1e6
    wall_us = _median(walls) * 1e6
    residual_us = (
        _median([s.latency - s.wall for s in traced]) * 1e6 - encode - decode
    )
    total_us = encode + residual_us + wall_us + decode
    return {
        "client_p50_us": p50_us,
        "sum_us": total_us,
        "reconcile_error": abs(total_us - p50_us) / p50_us,
        "layers": {
            "server.wall_us": wall_us,
            "server.overhead_us": _median(
                [w - k for w, k in zip(walls, kernel)]
            ) * 1e6,
            "wire.residual_us": residual_us,
            "runner.parallel_efficiency": _median(
                [sum(s.shard_walls) / (len(s.shard_walls) * s.wall) for s in traced]
            ),
            "trace.overhead_pct": 100.0 * (p50_us / (_median(untraced) * 1e6) - 1.0),
        },
    }


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    warmup: float = WARMUP_SECONDS,
    setups: int = SETUPS,
    out_dir: pathlib.Path = OUT,
) -> dict:
    """Run one workload end to end; returns the full result record."""
    import loadgen
    import workloads as wl

    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"tmp-{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = loadgen.Tracer() if trace else None
    split: dict = {}
    try:
        basis = workload.basis()
        items = workload.prepare(seed, basis, tmp)
        served = _serve(workload, items, tmp, out_dir, seconds, tracer, warmup, setups)
        metrics = _metrics(workload, served)
        violations = _checks(workload, served, metrics)
        if trace:
            spans: list = []
            metrics.update(
                wl.replay(workload, items[0], served.run.example, basis, tmp, spans)
            )
            tracer.replays(spans)
            split = _split(workload, served.run.samples, metrics)
            metrics.update(split.pop("layers"))
            tracer.dump(
                out_dir / f"trace-{workload.name}.json",
                workload=workload.name, seed=seed, seconds=seconds,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run = served.run
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tail_percentile": workload.tail,
        "correct": sum(phase.mismatched for phase in served.phases()) == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": len(run.samples),
        "setup_times": served.setup_times,
        "invalid": _invalid(workload, served, metrics, split),
        "violations": violations,
        "metrics": metrics,
        "split": split,
        "environment": environment(),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def contract_line(result: dict, benchmark: dict) -> dict:
    """The one-line result object: end-to-end, or per-layer when traced."""
    key = "per_layer" if result["trace"] else "end_to_end"
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": result["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in benchmark[key]
        },
    }


def print_result(result: dict, benchmark: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['seconds']:g} s {mode}, {result['samples']} requests, "
        f"tail p{result['tail_percentile']}) =="
    )
    for key in ("end_to_end", "per_layer"):
        for metric in benchmark[key]:
            value = result["metrics"].get(metric["name"])
            if value is not None:
                print(f"  {metric['name']:<30s} {value:14.4f} {metric['unit']}")
    split = result["split"]
    if split:
        metrics = result["metrics"]
        print(
            "  split: encode {:.1f} + wire {:.1f} + server {:.1f} + decode "
            "{:.1f} = {:.1f} us vs client p50 {:.1f} us ({:.1f}% off)".format(
                metrics["client.encode_us"], metrics["wire.residual_us"],
                metrics["server.wall_us"], metrics["client.decode_us"],
                split["sum_us"], split["client_p50_us"],
                100 * split["reconcile_error"],
            )
        )
    for reason in result["invalid"]:
        print(f"  INVALID RUN (latencies not comparable): {reason}")
    for violation in result["violations"]:
        print(f"  CHECK FAILED: {violation}")
    if not result["violations"]:
        print("  checks: all replies bit-identical, every check passed")


def run(args, benchmark: dict) -> int:
    import workloads as wl

    available = wl.workloads()
    results = []
    for name in args.workload or list(available):
        result = measure(available[name], args.seed, args.seconds, bool(args.trace))
        (OUT / f"result-{name}.json").write_text(json.dumps(result, indent=2))
        print_result(result, benchmark)
        results.append(result)
    lines = [contract_line(r, benchmark) for r in results]
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(one["correct"] for one in lines),
            "attempted": sum(one["attempted"] for one in lines),
            "failed": sum(one["failed"] for one in lines),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r, one in zip(results, lines)
                for name, metric in one["metrics"].items()
            },
        }
    print(json.dumps(line), flush=True)
    return 1 if any(r["violations"] for r in results) else 0


# ---------------------------------------------------------------------------
# agree: do two sets of runs of the same code agree within the bounds?
# ---------------------------------------------------------------------------


def _one_run(name: str, seed: int, seconds: float) -> Optional[dict]:
    """One untraced run in a fresh process; its full result record."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return json.loads((OUT / f"result-{name}.json").read_text())


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def agree(args, benchmark: dict) -> int:
    """``--sets`` interleaved sets of ``--runs`` runs per workload.

    Run ``i`` of every set uses seed ``--seed + i``; the set order flips
    every round.  Prints each metric's per-set median and quartiles, the
    spread (IQR / median) and the largest disagreement between set
    medians.  Exits 1 when a gated metric disagrees by more than its
    bound, or (setup_s aside) spreads wider than it.
    """
    import workloads as wl

    names = args.workload or list(wl.workloads())
    values: Dict[str, List[Dict[str, List[float]]]] = {
        name: [dict() for _ in range(args.sets)] for name in names
    }
    failures = invalid = 0
    for index in range(args.runs):
        order = list(range(args.sets))
        if index % 2:
            order.reverse()
        for which in order:
            for name in names:
                result = _one_run(name, args.seed + index, args.seconds)
                if result is None:
                    failures += 1
                    print(f"run {index} set {which} {name}: FAILED", flush=True)
                    continue
                if result["invalid"]:
                    invalid += 1
                    print(
                        f"run {index} set {which} {name}: INVALID, "
                        + "; ".join(result["invalid"]), flush=True,
                    )
                for metric, value in result["metrics"].items():
                    values[name][which].setdefault(metric, []).append(value)
    gated = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    shown = list(gated) + [
        m["name"] for m in benchmark["per_layer"] if m["name"] in values[names[0]][0]
    ]
    report, ok = {}, True
    for name in names:
        print(f"== {name} ==")
        report[name] = {}
        for metric in shown:
            rows = []
            for series in (values[name][which].get(metric) for which in range(args.sets)):
                if not series:
                    continue
                q1, med, q3 = _quartiles(series)
                spread = (q3 - q1) / abs(med) if med else 0.0
                rows.append({"values": series, "q1": q1, "median": med,
                             "q3": q3, "spread": spread})
            if not rows:
                continue
            base = rows[0]["median"]
            disagreement = max(
                abs(row["median"] - base) / abs(base) if base else 0.0
                for row in rows
            )
            spread = max(row["spread"] for row in rows)
            bound = gated.get(metric)
            over = bound is not None and (
                disagreement > bound or (metric != "setup_s" and spread > bound)
            )
            ok &= not over
            report[name][metric] = {
                "bound": bound, "sets": rows, "disagreement": disagreement,
            }
            medians = " / ".join(f"{row['median']:.4g}" for row in rows)
            iqr = " / ".join(f"[{row['q1']:.4g}, {row['q3']:.4g}]" for row in rows)
            gate = f"bound {100 * bound:.0f}%" if bound is not None else "not gated"
            print(
                f"  {metric:<28s} median {medians}  IQR {iqr}  spread "
                f"{100 * spread:.1f}%  disagreement {100 * disagreement:.1f}% "
                f"({gate}){'  OVER BOUND' if over else ''}"
            )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "agree.json").write_text(json.dumps(report, indent=2))
    print(f"runs failed: {failures}; runs invalid (still counted): {invalid}")
    return 0 if ok and not failures else 1


# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("run", "agree"), default="run")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured phase length (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--sets", type=int, default=2, help="agree: sets")
    parser.add_argument("--runs", type=int, default=3, help="agree: runs per set")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    import workloads as wl

    unknown = set(args.workload or ()) - set(wl.workloads())
    if unknown:
        print(f"run.py: unknown workload(s) {sorted(unknown)}", file=sys.stderr)
        return 2
    if args.command == "agree":
        return agree(args, benchmark)
    try:
        return run(args, benchmark)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's resource tracker to exit.

    The traced replays' ``Runner`` and ``SharedArena`` start it; stopping
    it here means no process this benchmark started outlives it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
