"""The central experiment registry.

Experiment modules register their :class:`~repro.pipeline.spec.ExperimentSpec`
at import time; importing :mod:`repro.experiments` therefore populates
the registry with every driver.  :func:`ensure_loaded` performs that
import lazily so the pipeline package itself never depends on the
experiment modules (they depend on it), and so worker processes that
receive only a spec *name* can resolve it locally.

The CLI, the :class:`~repro.pipeline.runner.Runner` and the tests all go
through this module — there is no hand-maintained experiment list
anywhere else.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import PipelineError
from .spec import ExperimentSpec

__all__ = [
    "register",
    "unregister",
    "get_spec",
    "spec_names",
    "all_specs",
    "specs_by_tier",
    "ensure_loaded",
]

_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry; returns it so modules can keep a ref.

    Duplicate names raise — two drivers fighting over one name is
    always a wiring bug, never something to resolve silently.  The one
    exception: ``python -m repro.experiments.<name>`` executes a module
    *twice* (once on package import, once as ``__main__``), so a
    duplicate whose callables live in ``__main__`` is the already
    registered module re-running — the original registration wins.
    """
    if spec.name in _REGISTRY:
        if getattr(spec.run, "__module__", None) == "__main__":
            return _REGISTRY[spec.name]
        raise PipelineError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (test support for temporary registrations)."""
    _REGISTRY.pop(name, None)


def ensure_loaded() -> None:
    """Import the experiment modules so their specs are registered.

    The flag flips only after a *successful* import: a failed import
    (one broken driver module) must surface its real error again on
    the next call, not a misleading empty registry.
    """
    global _LOADED
    if not _LOADED:
        import repro.experiments  # noqa: F401  (registration side effect)
        # np.unique loads numpy.ma on its first call (NumPy >= 2.3): a
        # shard worker forked before that call would load it on its
        # first shard (~25 ms on a 2-CPU host).  Loaded here, before any
        # experiment forks its pool, it is inherited instead.
        import numpy.ma  # noqa: F401
        _LOADED = True


def get_spec(name: str) -> ExperimentSpec:
    """Resolve a spec by name; raises with the available names."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineError(
            f"unknown experiment {name!r}; available: {spec_names()}"
        ) from None


def spec_names() -> List[str]:
    """All registered names, sorted."""
    ensure_loaded()
    return sorted(_REGISTRY)


def all_specs() -> List[ExperimentSpec]:
    """All registered specs, ordered by name."""
    return [_REGISTRY[name] for name in spec_names()]


def specs_by_tier(tier: str) -> List[ExperimentSpec]:
    """The registered specs of one tier, ordered by name."""
    return [spec for spec in all_specs() if spec.tier == tier]
