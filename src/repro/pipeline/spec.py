"""Experiment specifications: the unit of work the pipeline executes.

An :class:`ExperimentSpec` ties together everything the runner and CLI
need to know about one experiment:

* a **name** and one-line **description** (the ``repro list`` output);
* a **tier** — ``"table"``, ``"figure"``, ``"claim"`` or ``"serving"`` —
  mirroring the driver table in :mod:`repro.experiments`;
* a typed, frozen **config dataclass** holding every knob (seed, record
  length, sweep ranges); :meth:`ExperimentSpec.make_config` builds one
  from keyword overrides and validates the keys;
* a **seed policy** — ``"seeded"`` specs expose a ``seed`` config field
  the CLI's ``--seed`` maps onto; ``"fixed"`` specs are deterministic
  and ignore the flag (the energy model);
* the **run** callable (config → result, where the result renders via
  ``.render()`` and serialises via :mod:`repro.pipeline.serialize`);
* optionally a **shard plan** (``shard`` / ``run_shard`` / ``merge``):
  ``shard`` splits a config into independent shard tasks, ``run_shard``
  executes one, ``merge`` reassembles the full result.  The shard count
  is a property of the *config*, never of the worker count, so a
  sharded run is bit-identical to a serial one by construction — the
  runner only decides *where* shards execute.  A shard task carries no
  workload, only what rebuilds it, so a task pickles small and runs
  the same on every host.

Specs are registered in :mod:`repro.pipeline.registry` by the experiment
modules themselves at import time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import PipelineError

__all__ = ["ExperimentSpec", "TIERS", "SEED_POLICIES"]

#: Valid spec tiers, in the order ``repro list`` groups them.
TIERS = ("table", "figure", "claim", "serving")

#: Valid seed policies.
SEED_POLICIES = ("seeded", "fixed")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: config schema, driver, shard plan.

    Attributes
    ----------
    name / description / tier:
        Identity and the ``repro list`` line.
    config_type:
        A frozen dataclass; every field has a default so the zero-arg
        config reproduces the paper run.
    run:
        Full serial driver, ``config → result``.  For shardable specs
        this is the ``merge(shard results)`` composition, keeping the
        two paths structurally identical.
    seed_policy:
        ``"seeded"`` (config has a ``seed`` field) or ``"fixed"``.
    shard / run_shard / merge:
        The optional shard plan; all three must be given together.
        ``shard(config)`` returns picklable shard tasks,
        ``run_shard(task)`` runs one anywhere (it rebuilds its inputs
        deterministically from the task), ``merge(config, parts)``
        reassembles the result.
    """

    name: str
    description: str
    tier: str
    config_type: type
    run: Callable[[Any], Any]
    seed_policy: str = "seeded"
    shard: Optional[Callable[[Any], Sequence[Any]]] = None
    run_shard: Optional[Callable[[Any], Any]] = None
    merge: Optional[Callable[[Any, Sequence[Any]], Any]] = None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise PipelineError(
                f"spec {self.name!r}: tier must be one of {TIERS}, "
                f"got {self.tier!r}"
            )
        if self.seed_policy not in SEED_POLICIES:
            raise PipelineError(
                f"spec {self.name!r}: seed_policy must be one of "
                f"{SEED_POLICIES}, got {self.seed_policy!r}"
            )
        if not (dataclasses.is_dataclass(self.config_type)
                and isinstance(self.config_type, type)):
            raise PipelineError(
                f"spec {self.name!r}: config_type must be a dataclass, "
                f"got {self.config_type!r}"
            )
        plan = (self.shard, self.run_shard, self.merge)
        if any(p is not None for p in plan) and not all(
            p is not None for p in plan
        ):
            raise PipelineError(
                f"spec {self.name!r}: shard, run_shard and merge must be "
                "given together"
            )
        if self.seed_policy == "seeded" and "seed" not in self.field_names():
            raise PipelineError(
                f"spec {self.name!r}: seeded specs need a 'seed' config field"
            )

    # ------------------------------------------------------------------
    # Config handling
    # ------------------------------------------------------------------

    def field_names(self) -> Tuple[str, ...]:
        """The config dataclass's field names, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(self.config_type))

    def make_config(
        self,
        seed: Optional[int] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Build a config from an overrides mapping, applying the seed policy.

        ``seed`` maps onto the config's ``seed`` field for ``"seeded"``
        specs (an explicit ``"seed"`` override wins) and is ignored for
        ``"fixed"`` specs.  Unknown override keys raise
        :class:`~repro.errors.PipelineError` naming the valid fields.
        """
        overrides = dict(overrides or {})
        fields = self.field_names()
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise PipelineError(
                f"spec {self.name!r} has no config field(s) {unknown}; "
                f"available: {list(fields)}"
            )
        if seed is not None and self.seed_policy == "seeded":
            overrides.setdefault("seed", int(seed))
        return self.config_type(**overrides)

    def config_from_jsonable(self, payload: Dict[str, Any]) -> Any:
        """Rebuild a config from an artifact's JSON ``config`` mapping.

        The inverse of serialising a config: JSON has no tuples, so
        lists coerce back to (nested) tuples, which is what every config
        dataclass declares for its sequence fields.
        """
        kwargs = {
            name: _listless(payload[name])
            for name in self.field_names()
            if name in payload
        }
        return self.config_type(**kwargs)

    @property
    def shardable(self) -> bool:
        """True when the spec carries a shard plan."""
        return self.shard is not None

    def seeded(self) -> bool:
        """True when the CLI's ``--seed`` applies to this spec."""
        return self.seed_policy == "seeded"


def _listless(value: Any) -> Any:
    """Lists → tuples, recursively (JSON round-trip support)."""
    if isinstance(value, list):
        return tuple(_listless(v) for v in value)
    return value
