"""Worker-side shard execution for the serving front-end.

The server splits each request's wire batch into contiguous row-range
shards and runs every shard through one function —
:func:`compute_shard` — whether the shard executes in-process or on a
pool worker.  Equal inputs produce equal JSON-ready payloads, so the
dispatch mechanism is invisible in the response, exactly as the
pipeline's shard plans make sharded experiment runs bit-identical to
serial ones.

Two transport pieces make the pool path zero-copy:

* **basis install** — the serving basis is exported once as a
  :class:`BasisTable` (plain picklable arrays, no shared segments) and
  installed into a per-process registry, in the server directly and in
  the pool workers by one
  :meth:`~repro.pipeline.runner.Runner.broadcast` at server start-up.
  Shard tasks then reference the basis by token, never re-shipping it.
  A long-lived shared-memory export would fight the attachment cache's
  per-arena eviction (each request uses a fresh short-lived arena), so
  the basis deliberately travels by value, once.
* **:class:`ShardTask`** — the per-shard pool task: the request
  batch's :class:`~repro.backend.batch.SharedBatchHandle` plus a row
  range and scan options.  Workers attach the request's shared segments
  and wrap their row range as a *packed-primary view* of the mapped
  bitset (:meth:`~repro.backend.batch.SpikeTrainBatch.from_shared`), so
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

import time
import uuid
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..backend.batch import SharedBatchHandle, SpikeTrainBatch
from ..backend.shared import HAVE_SHARED_MEMORY
from ..errors import ServingError
from ..hyperspace.basis import HyperspaceBasis
from ..logic.correlator import CoincidenceCorrelator
from ..logic.netbatch import LogicNetBatch
from ..testing import faults
from ..units import SimulationGrid

__all__ = [
    "BasisTable",
    "ShardTask",
    "LogicNetShardTask",
    "export_basis",
    "install_basis",
    "discard_basis",
    "installed_basis",
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


def uses_pool(jobs: int, workers: int = 1) -> bool:
    """True when a server shards requests over a pool of ``jobs`` workers.

    The pool path needs more than one job, memfd shared memory for the
    request arenas and a single server process: ``--workers N`` forks N
    servers, and each builds its own pool.  ``repro serve`` asks this to
    fork the pool before it loads the front-end, and
    :class:`~repro.serving.server.SpikeServer` to decide whether to
    build a pool and route shards to it.
    """
    return jobs > 1 and workers == 1 and HAVE_SHARED_MEMORY


@dataclass(frozen=True)
class BasisTable:
    """Picklable plain-array export of a verified basis.

    Element ``i``'s sorted slots are ``values[ptr[i]:ptr[i + 1]]`` —
    the same table :class:`~repro.hyperspace.basis.BasisArtifact` ships
    through shared memory, but carried by value so it can be installed
    once per process and outlive any request arena.  ``token``
    identifies the install; shard tasks carry the token only.
    """

    token: str
    labels: Tuple[str, ...]
    values: np.ndarray
    ptr: np.ndarray
    n_samples: int
    dt: float


@dataclass(frozen=True)
class ShardTask:
    """One serving shard: a row range of a shared request batch.

    Pickles as metadata only — the wire payload stays in the server's
    per-request :class:`~repro.backend.shared.SharedArena` and the
    worker attaches it.
    """

    token: str
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
    input lines are the installed basis (referenced by token) and the
    networks rebuild from ``spawn_rng(seed, i)`` spawn keys, so the
    task pickles as a handful of integers.
    """

    token: str
    seed: int
    n_gates: int
    depth: int
    net_start: int
    net_stop: int


#: token → installed basis, per process.  Populated in the server
#: process at start-up and in every pool worker by the install
#: broadcast, which a restarted pool replays.
_INSTALLED: Dict[str, HyperspaceBasis] = {}


def export_basis(basis: HyperspaceBasis, token: Optional[str] = None) -> BasisTable:
    """Export ``basis`` as a :class:`BasisTable` (fresh token by default)."""
    values, ptr = basis.as_batch().csr()
    return BasisTable(
        token=token if token is not None else uuid.uuid4().hex,
        labels=basis.labels,
        values=values,
        ptr=ptr,
        n_samples=basis.grid.n_samples,
        dt=basis.grid.dt,
    )


def install_basis(table: BasisTable) -> str:
    """Install ``table`` into this process's basis registry.

    Reconstruction trusts the exporting basis's orthogonality check
    (:meth:`~repro.hyperspace.basis.HyperspaceBasis._from_table`), so
    installing is cheap enough to broadcast at server start-up.
    Idempotent per token; returns the token.
    """
    if table.token not in _INSTALLED:
        grid = SimulationGrid(n_samples=table.n_samples, dt=table.dt)
        _INSTALLED[table.token] = HyperspaceBasis._from_table(
            np.asarray(table.values, dtype=np.int64),
            np.asarray(table.ptr, dtype=np.int64),
            table.labels,
            grid,
        )
    return table.token


def discard_basis(token: str) -> bool:
    """Drop one installed basis (graceful-shutdown broadcast target)."""
    return _INSTALLED.pop(token, None) is not None


def installed_basis(token: str) -> HyperspaceBasis:
    """The basis installed under ``token`` in this process."""
    basis = _INSTALLED.get(token)
    if basis is None:
        raise ServingError(
            ERR_INTERNAL,
            f"no basis installed under token {token!r} in this worker — "
            "the server must broadcast install_basis before dispatching",
        )
    return basis


def run_shard(task: ShardTask) -> dict:
    """Pool target: attach the shard's rows and compute its payload."""
    faults.maybe_fire("serving.run_shard")
    rows = SpikeTrainBatch.from_shared(
        task.wires, rows=(task.row_start, task.row_stop)
    )
    return compute_shard(
        installed_basis(task.token),
        rows,
        task.row_start,
        task.row_stop,
        mode=task.mode,
        start_slot=task.start_slot,
        limit=task.limit,
    )


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
    """Pool target: rebuild the shard's networks and evaluate them.

    Fires the same ``serving.run_shard`` fault point as bitset shards,
    so the supervision ladder (resubmit → respawn → inline) covers
    logicnet traffic identically.
    """
    faults.maybe_fire("serving.run_shard")
    return compute_logicnet_shard(
        installed_basis(task.token),
        seed=task.seed,
        n_gates=task.n_gates,
        depth=task.depth,
        net_start=task.net_start,
        net_stop=task.net_stop,
    )


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
