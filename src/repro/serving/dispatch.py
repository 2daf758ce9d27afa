"""Worker-side shard execution for the serving front-end.

The server splits each request's wire batch into contiguous row-range
shards and runs every shard through one function —
:func:`compute_shard` — whether the shard executes in-process or on a
pool worker.  Equal inputs produce equal JSON-ready payloads, so the
dispatch mechanism is invisible in the response, exactly as the
pipeline's shard plans make sharded experiment runs bit-identical to
serial ones.

Two pieces keep pool tasks small:

* **the basis recipe** — a task names its basis by the four numbers
  that fix it (:class:`BasisRecipe`), never by value, and every process
  takes the basis from one per-process memo over the recipe's builder
  (:func:`serving_basis`).  The server fills the memo at start-up;
  ``repro serve`` fills it before it forks the pool, so the workers and
  every replacement inherit the basis and build nothing.  A worker
  forked before a server's build (a runner shared by servers on other
  recipes) builds that basis once, on its first task.
* **:class:`ShardTask`** — the per-shard pool task: the request
  batch's :class:`~repro.backend.batch.SharedBatchHandle` plus a row
  range and scan options.  Its segments' descriptors travel beside
  it; the worker maps them for the task and wraps its row range as a
  *packed-primary view* of the mapped bitset
  (:meth:`~repro.backend.batch.SpikeTrainBatch.from_shared`), so
  shard compute runs the packed kernels straight on the pages the
  server wrote — the payload is never unpacked to a raster anywhere,
  and every shard payload reports its batch's representation residency
  to prove it.

This module is the whole compute layer a pool worker runs, and it
loads no wire or front-end code: ``repro serve`` forks its pool right
after importing it (:func:`uses_pool`), so whatever this module
imports, every worker holds.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backend.batch import SharedBatchHandle, SpikeTrainBatch
from ..backend.shared import HAVE_SHARED_MEMORY
from ..errors import ServingError
from ..hyperspace.basis import HyperspaceBasis
from ..logic.correlator import CoincidenceCorrelator
from ..logic.netbatch import LogicNetBatch
from ..noise.synthesis import make_rng
from ..testing import faults
from ..units import paper_white_grid

__all__ = [
    "BasisRecipe",
    "ShardTask",
    "LogicNetShardTask",
    "serving_basis",
    "run_shard",
    "compute_shard",
    "run_logicnet_shard",
    "compute_logicnet_shard",
    "residency",
    "uses_pool",
]

#: :data:`repro.serving.protocol.ERR_INTERNAL`, restated so that pool
#: workers load no wire code (a test pins the two equal).
ERR_INTERNAL = 8


def uses_pool(jobs: int) -> bool:
    """True when a server shards requests over ``jobs`` processes: itself
    and a pool of ``jobs - 1`` workers.

    The pool path needs more than one job and memfd shared memory for
    the request arenas.  ``repro serve`` asks this to fork the pool
    before it loads the front-end, and
    :class:`~repro.serving.server.SpikeServer` to decide whether to
    build a pool and route shards to it.
    """
    return jobs > 1 and HAVE_SHARED_MEMORY


@dataclass(frozen=True)
class BasisRecipe:
    """The four numbers that fix a serving basis.

    The basis knobs of :class:`~repro.serving.server.ServerConfig`,
    whose defaults these are, in a type this module owns: ``repro
    serve`` builds one before it loads the front-end.  Pool tasks carry
    it in place of the basis.
    """

    seed: int = 2016
    basis_size: int = 16
    source_isi_samples: int = 28
    n_samples: int = 65536

    def build(self) -> HyperspaceBasis:
        """A fresh basis from the recipe (:func:`serving_basis` memoises
        it): the ``identify`` experiment's demux recipe on the paper's
        grid, cut to ``n_samples`` slots."""
        return HyperspaceBasis.from_poisson_demux(
            self.basis_size,
            self.source_isi_samples,
            paper_white_grid(n_samples=self.n_samples),
            make_rng(self.seed),
        )


@functools.lru_cache(maxsize=4)
def serving_basis(recipe: BasisRecipe) -> HyperspaceBasis:
    """This process's basis for ``recipe``, built on first use.

    Every process takes its basis here: the server at start-up and for
    its own shards, a pool worker for each task.  A process forked
    after a build inherits the basis with the memo.  The memo holds a
    few recipes, enough for the servers that share one runner; past
    that the least recently used basis is dropped and rebuilt when
    asked for again, bit-identical.  A basis is immutable, so sharing
    one between a server, its threads and its tasks is safe.
    """
    return recipe.build()


@dataclass(frozen=True)
class ShardTask:
    """One serving shard: a row range of a shared request batch.

    Pickles as metadata only — the wire payload stays in the server's
    per-request :class:`~repro.backend.shared.SharedArena` and the
    worker attaches it, and the basis goes by its recipe.
    """

    recipe: BasisRecipe
    wires: SharedBatchHandle
    row_start: int
    row_stop: int
    mode: str
    start_slot: int = 0
    limit: Optional[int] = None


@dataclass(frozen=True)
class LogicNetShardTask:
    """One logicnet serving shard: a network range of a seeded family.

    Unlike :class:`ShardTask` there is no shared payload at all — the
    input lines are the basis of ``recipe`` and the networks rebuild
    from ``spawn_rng(seed, i)`` spawn keys, so the task pickles as a
    handful of integers.
    """

    recipe: BasisRecipe
    seed: int
    n_gates: int
    depth: int
    net_start: int
    net_stop: int


def run_shard(task: ShardTask) -> dict:
    """Pool target: attach the shard's rows and compute its payload."""
    rows = SpikeTrainBatch.from_shared(
        task.wires, rows=(task.row_start, task.row_stop)
    )
    return compute_shard(
        serving_basis(task.recipe),
        rows,
        task.row_start,
        task.row_stop,
        mode=task.mode,
        start_slot=task.start_slot,
        limit=task.limit,
    )


# The pool-death point: a worker fires it before each shard it runs
# (:mod:`repro.pipeline.runner`), never the server, which runs its own
# share of the shards and any lost one in-process.
run_shard.fault_point = "serving.run_shard"


def compute_shard(
    basis: HyperspaceBasis,
    rows: SpikeTrainBatch,
    row_start: int,
    row_stop: int,
    *,
    mode: str,
    start_slot: int = 0,
    limit: Optional[int] = None,
) -> dict:
    """Run one shard's receiver pass and return its payload dict.

    The common core of the pool, in-process, fast and coalesced paths.
    Array fields stay NumPy arrays (``membership`` boolean), and the
    binary result frame ships their buffers directly.  ``rows`` is
    expected packed-primary; the payload's ``residency`` block records
    which representations the batch held *after* the pass, which is how
    the integration tests (and any auditing client) verify the bitset
    was computed on directly — ``raster`` must come back False.
    """
    faults.maybe_fire("serving.compute_shard")
    started = time.perf_counter()
    correlator = CoincidenceCorrelator(basis)
    if mode == "identify":
        outcome = correlator.identify_batch(
            rows, start_slot=start_slot, missing="none"
        )
        body = {
            "elements": outcome.elements,
            "decision_slots": outcome.decision_slots,
            "spikes_inspected": outcome.spikes_inspected,
        }
    elif mode == "membership":
        outcome = correlator.detect_members_batch(rows, until_slot=limit)
        body = {
            "membership": outcome.membership,
            "first_slots": outcome.first_slots,
        }
    else:
        raise ServingError(ERR_INTERNAL, f"unknown shard mode {mode!r}")
    body.update(
        row_start=int(row_start),
        row_stop=int(row_stop),
        wall_seconds=time.perf_counter() - started,
        residency=residency(rows),
    )
    return body


def run_logicnet_shard(task: LogicNetShardTask) -> dict:
    """Pool and in-process target: rebuild the shard's networks and
    evaluate them.

    Declares the same ``serving.run_shard`` fault point as bitset
    shards, so the supervision ladder (resubmit → in-process) covers
    logicnet traffic identically.
    """
    return compute_logicnet_shard(
        serving_basis(task.recipe),
        seed=task.seed,
        n_gates=task.n_gates,
        depth=task.depth,
        net_start=task.net_start,
        net_stop=task.net_stop,
    )


run_logicnet_shard.fault_point = "serving.run_shard"


def compute_logicnet_shard(
    basis: HyperspaceBasis,
    *,
    seed: int,
    n_gates: int,
    depth: int,
    net_start: int,
    net_stop: int,
) -> dict:
    """Evaluate networks ``[net_start, net_stop)`` against ``basis``.

    The common core of the pool and in-process logicnet paths.  The
    basis batch's packed words are the shared input lines (one per
    basis element); the shard's networks rebuild from their spawn keys,
    so equal tasks produce equal payloads in any process.  As with
    :func:`compute_shard`, the ``residency`` block records the input
    batch's representations after the pass — ``raster`` must come back
    False, proving the layer evaluation ran on packed words.
    """
    faults.maybe_fire("serving.compute_shard")
    started = time.perf_counter()
    inputs = basis.as_batch()
    nets = LogicNetBatch.random(
        net_stop - net_start,
        n_gates,
        depth,
        inputs.n_trains,
        seed,
        net_start=net_start,
    )
    popcounts, checksums = nets.evaluate(
        inputs.packed_words(), inputs.grid.n_samples
    )
    return {
        "popcounts": popcounts,
        "checksums": checksums,
        "row_start": int(net_start),
        "row_stop": int(net_stop),
        "wall_seconds": time.perf_counter() - started,
        "residency": residency(inputs),
    }


def residency(batch: SpikeTrainBatch) -> dict:
    """The representations ``batch`` holds right now (the residency block)."""
    return {
        "packed": batch.packed_materialised,
        "csr": batch.csr_materialised,
        "raster": batch.raster_materialised,
    }
