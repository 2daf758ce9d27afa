"""Lazy package exports (PEP 562): a package names its API, imports none of it.

Every package ``__init__`` under :mod:`repro` except
:mod:`repro.experiments` (whose import registers the experiment specs)
declares one table mapping each submodule to the names it exports and
passes it to :func:`lazy_exports`.  A name's submodule is imported on
first access, so a process loads only the modules it uses: ``repro
serve`` and the pool workers it forks never load the experiment modules.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any],
    exports: Dict[str, Sequence[str]],
    modules: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for one package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    submodule, relative to the package, to the names it exports;
    ``modules`` lists submodules exported as themselves.  Any other
    public submodule also resolves as an attribute (``repro.logic``),
    as it did when the package imported it eagerly.  A resolved name is
    stored in ``namespace``, so ``__getattr__`` runs once per name.
    """
    package = namespace["__name__"]
    owners = {
        name: module for module, names in exports.items() for name in names
    }
    names = [*owners, *modules]

    def __getattr__(name: str) -> Any:
        if name in owners:
            module = importlib.import_module(f"{package}.{owners[name]}")
            namespace[name] = getattr(module, name)
            return namespace[name]
        if not name.startswith("_"):
            try:
                # Importing a submodule binds it in the package namespace.
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; something it imports does not
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*namespace, *names})

    return names, __getattr__, __dir__
