"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes
importing any one submodule load all of its siblings: ``import
repro.harness.pool`` would run ``repro/__init__.py`` and with it numpy,
the whole simulation engine, the energy models and the trace ingester.
Each package ``__init__`` instead declares where every exported name
lives and resolves it on first attribute access, so ``from repro
import System`` still works but costs only the modules ``System``
needs.  DESIGN.md section 3 ("Start-up") lists what loads when.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily re-exporting
    package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule to the names the package re-exports from it, where
    ``"alias=attr"`` re-exports ``attr`` under another name.  A
    resolved name is stored in ``namespace``, so later lookups are
    plain attribute reads.
    """
    package = namespace["__name__"]
    origin: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            alias, _, attr = entry.partition("=")
            origin[alias] = (module, attr or alias)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
