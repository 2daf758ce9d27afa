"""The experiment pipeline: registry + sharded runner + artifact store.

This package is the execution layer every paper experiment runs
through:

* :mod:`~repro.pipeline.spec` — :class:`ExperimentSpec`, the typed
  description of one experiment (config dataclass, driver, seed policy,
  optional shard plan);
* :mod:`~repro.pipeline.registry` — the central name → spec registry,
  populated by the experiment modules at import time;
* :mod:`~repro.pipeline.runner` — :class:`Runner`, executing specs
  serially, sharded across the caller and a persistent pool of
  ``jobs - 1`` workers (``jobs > 1`` on a single spec; each shard task
  rebuilds its inputs from the config) or with whole experiments as
  tasks (``run_many``);
* :mod:`~repro.pipeline.store` — :class:`ArtifactStore`, persisting
  every run as a JSON + text artifact pair with run metadata;
* :mod:`~repro.pipeline.corpus` — :class:`CorpusStore`, the indexed
  on-disk library of packed spike rows (append-only segment files +
  row-range manifest) that :meth:`open_rows` maps back as
  packed-primary batches for out-of-core compute and serving;
* :mod:`~repro.pipeline.serialize` — :func:`to_jsonable`, lowering any
  driver result to JSON-ready data.

Shard plans split work along the *config*, typically the batch axis of
a :class:`~repro.backend.batch.SpikeTrainBatch`, so a sharded run is
bit-identical to a serial one no matter how many processes execute it.

The runner's pool is not experiment-only: :meth:`Runner.gather` lets
other dispatchers reuse the persistent workers — the serving front-end
(:mod:`repro.serving`) runs its per-request shard tasks through exactly
this machinery.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spec": ("ExperimentSpec", "TIERS", "SEED_POLICIES"),
        "registry": (
            "register",
            "unregister",
            "get_spec",
            "spec_names",
            "all_specs",
            "specs_by_tier",
            "ensure_loaded",
        ),
        "runner": ("Runner", "RunReport"),
        "store": ("ArtifactStore", "RunRecord", "SCHEMA_VERSION"),
        "corpus": ("CorpusStore", "CorpusWriter", "CORPUS_SCHEMA_VERSION"),
        "serialize": ("to_jsonable",),
    },
)
