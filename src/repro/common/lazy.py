"""Lazy package exports: a public name is imported when first used.

A package ``__init__`` that re-exports names from its submodules would
otherwise import all of them — the cycle kernel, the attacks, the
serving loops — whenever *any* submodule is imported, so reading one
stored result would load the whole simulator.  Instead a package
declares which submodule defines each public name::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.config": ("MI6Config",),
        "repro.core.processor": ("MI6Processor",),
    })

Attribute access (``repro.core.MI6Processor``, ``from repro.core import
MI6Processor``) imports the owning submodule on first use (PEP 562
module ``__getattr__``) and caches the value on the package, so later
accesses are plain attribute reads.  Type checkers see the same names
through ``if TYPE_CHECKING:`` imports in the package; ``tests/test_cli.py``
checks that those imports, ``__all__`` and the mapping agree.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` serving ``exports`` lazily.

    Args:
        package: The package's ``__name__``.
        exports: Submodule name -> the public names it defines.

    Returns:
        ``(__getattr__, __dir__)`` to bind at the package's top level.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__
