"""Lazy package exports: one table per package, each name written once.

A package ``__init__`` lists what it exports as ``{submodule: names}``
and binds what :func:`lazy_exports` returns (PEP 562)::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "estimator": ("ForceLocationEstimate", "ForceLocationEstimator"),
    })

Importing the package then loads none of its submodules.  The first
access to an exported name imports the submodule that defines it and
caches the object in the package namespace, so a process pays only
for the modules it uses: the gateway never loads the experiment
runners or the baselines.  A name equal to its submodule's name
exports the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """Return a package's ``__getattr__``, ``__dir__`` and ``__all__``.

    Args:
        package: The package's ``__name__``.
        table: ``{submodule: names}``; a submodule may be dotted
            (``"core.estimator"``) to export from a nested package.
    """
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        defining = importlib.import_module(f"{package}.{module}")
        value = defining if name == module else getattr(defining, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__, list(owners)
