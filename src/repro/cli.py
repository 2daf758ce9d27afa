"""Command-line interface: run registered experiments through the pipeline.

Usage::

    python -m repro.cli list
    python -m repro.cli run table1
    python -m repro.cli run identify --jobs 4
    python -m repro.cli run speed --seed 7
    python -m repro.cli run all --jobs 4 --output-dir results/
    python -m repro.cli serve --port 8642 --jobs 4
    python -m repro.cli corpus build corpora/noise --rows 100000
    python -m repro.cli corpus info corpora/noise
    python -m repro.cli serve --corpus corpora/noise

``list`` and ``run``'s experiment choices come straight from the
:mod:`repro.pipeline.registry` — registering a new
:class:`~repro.pipeline.spec.ExperimentSpec` is all it takes to appear
here.  Only those two sub-commands load the registry, the runner and
the artifact store (and with them the experiment modules); ``serve``
and ``corpus`` never do.  ``run``
executes through :class:`~repro.pipeline.runner.Runner`: ``--jobs N``
computes on N processes, this one and N - 1 forked workers, sharding
a single shardable experiment across them (bit-identical to the serial
run) and running whole experiments in parallel for ``run all``;
``--output-dir`` archives one JSON and one text artifact per
experiment (plus a manifest for ``run all``) via the
:class:`~repro.pipeline.store.ArtifactStore`.  ``run all`` continues
past failing experiments and ends with a per-experiment pass/fail
summary, exiting non-zero when anything failed.  ``serve`` starts the
packed-bitset RPC front-end (:mod:`repro.serving`): an asyncio server
identifying client wire batches against a deterministic basis, sharded
over the server itself and the runner's worker pool — see
``docs/serving.md``.  ``serve`` forks that pool before it imports the
server, so the workers hold the compute layer and none of the
front-end.

``corpus build`` streams a generated spike recording into an on-disk
:class:`~repro.pipeline.corpus.CorpusStore` (packed segments + a
row-range manifest, one chunk in memory at a time), ``corpus info``
summarises one without reading any payload, and ``serve --corpus``
hosts one read-only so clients can query row ranges by name — the
server computes straight off the memmap.  See ``docs/corpus.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import pathlib
import sys
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .pipeline.runner import RunReport
    from .pipeline.spec import ExperimentSpec

__all__ = ["EXPERIMENTS", "build_parser", "main"]


def __getattr__(name: str) -> Dict[str, ExperimentSpec]:
    """``EXPERIMENTS``: experiment id → registered spec.

    A registry view for callers that want the mapping without importing
    the pipeline package, built on access so that importing the CLI
    loads no experiment module.
    """
    if name == "EXPERIMENTS":
        from .pipeline.registry import all_specs

        return {spec.name: spec for spec in all_specs()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), "EXPERIMENTS"])


class _ExperimentChoices:
    """``run``'s experiment choices, read when argparse checks or prints
    them — building the parser loads no registry."""

    def __iter__(self) -> Iterator[str]:
        from .pipeline.registry import spec_names

        return iter(spec_names() + ["all"])


def _bounded_int(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """argparse type for an integer flag in ``[low, high]``.

    A clean usage error at start-up beats a traceback after it (an
    out-of-range ``--port``, a negative ``--seed``) or a silently
    changed mode (a negative ``--fast-path-bytes`` turning the fast
    path off).
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


_positive_int = _bounded_int(1)


def _positive_float(text: str) -> float:
    """argparse type for --shard-timeout: fail at start-up, not per request."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for timing flags where 0 means off.

    NaN and infinity are rejected at start-up: a NaN idle timer fires
    at once and drops every connection, an infinite coalescing window
    never flushes a bucket below ``--coalesce-max-wires``.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 <= value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Towards Brain-inspired "
        "Computing' (Gingl, Khatri, Kish).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    experiment = run.add_argument("experiment", help="experiment id, or 'all'")
    # Set after add_argument, which formats the choices to check the
    # metavar: passed there, they would load the registry for every
    # sub-command.
    experiment.choices = _ExperimentChoices()
    run.add_argument(
        "--seed", type=_bounded_int(0), default=2016, help="random seed (default 2016)"
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="computing processes, this one included (N forks N-1 workers): "
        "shards one experiment, parallelises 'all' (default 1)",
    )
    run.add_argument(
        "--output-dir",
        type=pathlib.Path,
        default=None,
        help="archive artifacts as <dir>/<experiment>.{json,txt}",
    )

    serve = sub.add_parser(
        "serve",
        help="start the packed-bitset serving front-end (docs/serving.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=_bounded_int(0, 65535),
        default=8642,
        help="TCP port; 0 binds an ephemeral port (default 8642)",
    )
    serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="computing processes for shard dispatch, the server included "
        "(N forks N-1 pool workers; default 1: in-process)",
    )
    serve.add_argument(
        "--seed",
        type=_bounded_int(0),
        default=2016,
        help="seed of the deterministic serving basis (default 2016)",
    )
    serve.add_argument(
        "--basis-size",
        type=_positive_int,
        default=16,
        help="number of basis elements M (default 16)",
    )
    serve.add_argument(
        "--n-samples",
        type=_positive_int,
        default=65536,
        help="grid length requests must match (default 65536)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="shards per request (default: one per job)",
    )
    serve.add_argument(
        "--fast-path-bytes",
        type=_bounded_int(0),
        default=4 * 1024 * 1024,
        help="serve requests up to this payload size inline, skipping "
        "the arena/pool pipeline; 0 disables the fast path "
        "(default 4 MiB)",
    )
    serve.add_argument(
        "--coalesce-window-ms",
        type=_nonnegative_float,
        default=0.0,
        help="stack compatible small requests arriving within this "
        "window into one wide batch; 0 disables coalescing (default 0)",
    )
    serve.add_argument(
        "--coalesce-max-wires",
        type=_positive_int,
        default=4096,
        help="flush a coalescing bucket once this many wires "
        "accumulate (default 4096)",
    )
    serve.add_argument(
        "--corpus",
        type=pathlib.Path,
        default=None,
        help="host this corpus directory read-only and answer "
        "corpus-query frames against it (docs/corpus.md); the corpus "
        "grid must match --n-samples",
    )
    serve.add_argument(
        "--corpus-chunk-rows",
        type=_positive_int,
        default=4096,
        help="max rows one corpus-scan chunk maps at a time — bounds "
        "the peak working set of a corpus query (default 4096)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=_nonnegative_float,
        default=0.0,
        help="close connections idle for this many seconds; 0 keeps "
        "them forever (default 0)",
    )
    serve.add_argument(
        "--shard-timeout",
        type=_positive_float,
        default=120.0,
        help="seconds to wait for one shard's pool result before "
        "treating its worker as lost and recovering (default 120)",
    )
    serve.add_argument(
        "--shard-retries",
        type=_positive_int,
        default=2,
        help="pool resubmits of a lost shard before it runs "
        "in-process (default 2)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="build and inspect on-disk packed corpora (docs/corpus.md)",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    build = corpus_sub.add_parser(
        "build",
        help="stream a generated Poisson recording into a new corpus",
    )
    build.add_argument(
        "directory", type=pathlib.Path, help="corpus directory to create"
    )
    build.add_argument(
        "--rows",
        type=_positive_int,
        default=4096,
        help="total wire rows to generate (default 4096)",
    )
    build.add_argument(
        "--seed",
        type=_bounded_int(0),
        default=2016,
        help="seed of the generated recording (default 2016)",
    )
    build.add_argument(
        "--n-samples",
        type=_positive_int,
        default=65536,
        help="grid length — must match the basis the corpus will be "
        "served against (default 65536)",
    )
    build.add_argument(
        "--isi",
        type=_positive_int,
        default=28,
        help="mean inter-spike interval in samples of the generated "
        "rows (default 28, the serving basis default)",
    )
    build.add_argument(
        "--chunk-rows",
        type=_positive_int,
        default=1024,
        help="rows generated and persisted per segment — the build's "
        "peak working set (default 1024)",
    )
    build.add_argument(
        "--append",
        action="store_true",
        help="append to an existing corpus instead of requiring a "
        "fresh directory",
    )
    info = corpus_sub.add_parser(
        "info", help="summarise a corpus from its manifest (no payload reads)"
    )
    info.add_argument(
        "directory", type=pathlib.Path, help="corpus directory to inspect"
    )
    info.add_argument(
        "--verify",
        action="store_true",
        help="recompute every segment's CRC32 against the manifest "
        "(reads all payload bytes; exits non-zero on corruption)",
    )
    return parser


def _print_list(out) -> None:
    """One registry-derived line per experiment."""
    from .pipeline.registry import all_specs

    specs = all_specs()
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        sharded = "  [shardable]" if spec.shardable else ""
        print(
            f"{spec.name:<{width}s}  [{spec.tier}] {spec.description}{sharded}",
            file=out,
        )


def _print_report(report: RunReport, out) -> None:
    """One experiment's rendered output (or its failure)."""
    if report.ok:
        print(report.rendered, file=out)
    else:
        print(f"{report.name} FAILED:\n{report.error}", file=out)
    print(file=out)


def _print_summary(reports: Sequence[RunReport], out) -> None:
    """The per-experiment pass/fail summary of a multi-experiment run."""
    failed = [report for report in reports if not report.ok]
    width = max(len(report.name) for report in reports)
    print(f"== run summary: {len(reports) - len(failed)}/{len(reports)} ok ==",
          file=out)
    for report in reports:
        status = "ok  " if report.ok else "FAIL"
        print(
            f"  {report.name:<{width}s}  {status}  "
            f"{report.wall_seconds:7.2f}s",
            file=out,
        )
    if failed:
        print(
            f"failed: {', '.join(report.name for report in failed)}",
            file=out,
        )


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        _print_list(out)
        return 0

    if args.command == "run":
        from .pipeline.registry import get_spec
        from .pipeline.runner import Runner
        from .pipeline.store import ArtifactStore

        store = (
            ArtifactStore(args.output_dir)
            if args.output_dir is not None
            else None
        )
        with Runner(jobs=args.jobs, store=store) as runner:
            if args.experiment == "all":
                reports = runner.run_many(seed=args.seed)
                for report in reports:
                    _print_report(report, out)
                _print_summary(reports, out)
                return 0 if all(report.ok for report in reports) else 1
            get_spec(args.experiment)  # argparse already validated; fail loud
            report = runner.run(args.experiment, seed=args.seed)
            _print_report(report, out)
            return 0 if report.ok else 1

    if args.command == "serve":
        return _run_serve(args, out)

    if args.command == "corpus":
        return _run_corpus(args, out)

    return 2  # unreachable: argparse enforces the sub-commands


def _run_serve(args, out) -> int:
    """The ``serve`` sub-command.

    A server that shards over a pool gets it forked here, once the
    compute layer (:mod:`repro.serving.dispatch`) has loaded and built
    the basis, and before the front-end (asyncio, the wire protocol,
    the server, the corpus store) loads, so the pool workers hold only
    the code they run and inherit the basis they name by recipe.  A
    replacement for a dead or hung worker forks from the full server.
    """
    with contextlib.ExitStack() as stack:
        # REPB is plain TCP and nothing served hashes, yet two importers
        # would load OpenSSL (libcrypto and libssl, ~4.5 MB resident in
        # the server and in every worker it forks): asyncio imports
        # ``ssl`` for its optional TLS support, and ``numpy.random``
        # imports ``secrets``, whose ``hmac`` imports ``_hashlib``.
        # ``None`` in ``sys.modules`` makes a module unimportable, so
        # asyncio runs without TLS and ``hashlib`` uses CPython's
        # builtin hashes.  The marks go when serving ends, so a process
        # that calls ``main(["serve", ...])`` can import ``ssl`` again;
        # asyncio or ``hashlib`` first imported while it served keeps
        # its fallback.
        for name in ("_ssl", "_hashlib"):
            if name not in sys.modules:
                sys.modules[name] = None
                stack.callback(sys.modules.pop, name, None)
        from .serving import dispatch

        runner = None
        if dispatch.uses_pool(args.jobs):
            from .pipeline.runner import Runner

            # The memo the server takes its basis from: every worker
            # forked from here on inherits it, so none builds its own.
            dispatch.serving_basis(
                dispatch.BasisRecipe(
                    seed=args.seed,
                    basis_size=args.basis_size,
                    n_samples=args.n_samples,
                )
            )
            runner = stack.enter_context(Runner(jobs=args.jobs))
            runner.ensure_pool()
        from .serving.server import ServerConfig, serve_forever

        config = ServerConfig(
            host=args.host,
            port=args.port,
            seed=args.seed,
            basis_size=args.basis_size,
            n_samples=args.n_samples,
            jobs=args.jobs,
            n_shards=args.shards if args.shards is not None else 0,
            fast_path_bytes=args.fast_path_bytes,
            coalesce_window=args.coalesce_window_ms / 1000.0,
            coalesce_max_wires=args.coalesce_max_wires,
            corpus=str(args.corpus) if args.corpus is not None else None,
            corpus_chunk_rows=args.corpus_chunk_rows,
            idle_timeout=args.idle_timeout,
            shard_timeout=args.shard_timeout,
            shard_retries=args.shard_retries,
        )
        return serve_forever(config, out=out, runner=runner)


def _run_corpus(args, out) -> int:
    """The ``corpus build`` / ``corpus info`` sub-commands."""
    # Imported here for the same reason serve's imports are: only the
    # corpus sub-commands pay for the backend stack.
    import numpy as np

    from .errors import PipelineError
    from .pipeline.corpus import CorpusStore
    from .units import paper_white_grid

    if args.corpus_command == "info":
        import json

        try:
            store = CorpusStore(args.directory)
            payload = store.info()
            if args.verify:
                payload["verify"] = store.verify()
        except PipelineError as exc:
            print(f"repro corpus info: {exc}", file=out)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0

    # build: stream Bernoulli/Poisson rows chunk-at-a-time — the
    # working set is one chunk's raster, never the corpus.
    from .backend.batch import SpikeTrainBatch
    from .noise.synthesis import make_rng

    grid = paper_white_grid(n_samples=args.n_samples)
    try:
        if args.append and (args.directory / "manifest.json").exists():
            store = CorpusStore(args.directory)
            if store.grid() != grid:
                print(
                    f"repro corpus build: existing corpus grid does not "
                    f"match --n-samples {args.n_samples}",
                    file=out,
                )
                return 1
        else:
            store = CorpusStore.create(args.directory, grid)
    except PipelineError as exc:
        print(f"repro corpus build: {exc}", file=out)
        return 1
    rng = make_rng(args.seed)
    p_spike = 1.0 / args.isi  # per-slot rate of the target mean ISI
    written = 0
    with store.writer() as writer:
        while written < args.rows:
            n = min(args.chunk_rows, args.rows - written)
            raster = rng.random((n, grid.n_samples)) < p_spike
            writer.append(SpikeTrainBatch.from_raster(raster, grid, copy=False))
            written += n
    summary = store.info()
    print(
        f"repro corpus build: {args.directory} now holds "
        f"{summary['n_rows']} rows in {summary['n_segments']} segments "
        f"({summary['disk_bytes'] / 1e6:.1f} MB packed, "
        f"n_samples={summary['n_samples']}, seed={args.seed})",
        file=out,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
