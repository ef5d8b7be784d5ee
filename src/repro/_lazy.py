"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names with ``from .sub import
name`` imports every submodule as soon as any one of them is used.
:func:`lazy_exports` gives the package a module-level ``__getattr__``
instead: a name's home submodule is imported when the name is first
read, and the value is then bound in the package namespace, so later
reads are plain attribute lookups.  ``from package import name`` and
``from package import *`` go through the same ``__getattr__``.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the package whose
    globals are ``namespace``.

    ``homes`` maps each home submodule (its name relative to the
    package) to the names the package re-exports from it.  A name equal
    to its home's stands for the submodule itself; an empty tuple
    exports the submodule alone.
    """
    package = namespace["__name__"]
    home_of = {name: home for home, names in homes.items()
               for name in names or (home,)}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home}")
        value = module if name == home else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home_of))

    return list(home_of), __getattr__, __dir__
