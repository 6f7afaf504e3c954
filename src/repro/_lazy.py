"""PEP 562 re-exports for the package ``__init__`` modules.

A package names the module that defines each of its public names; the
module is imported on first attribute access. So ``import repro.hw`` or
``import repro.cli`` loads no numpy, cost model or serving layer until a
name from one is used, and ``from repro.core import SpeedupStudy`` works
as it always did.

A re-exported name must not also name a submodule of its package: once
that submodule is imported, the import system binds the module to the
package attribute of the same name (``tests/test_cold_start.py`` pins
that no package does this).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps each defining module to the names it exports. The
    first access to a name imports its module and binds that module's
    names in the package namespace, so later reads are plain attribute
    lookups.
    """
    home: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        source = importlib.import_module(module)
        for exported in table[module]:
            namespace[exported] = getattr(source, exported)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
