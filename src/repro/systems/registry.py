"""System registry: EPG* phase 1 ("installing libraries").

The paper's install phase checks out stable forks of each package; here
"installation" is registering a factory.  The registry doubles as the
extension point Sec. V gestures at (adding frameworks to a package
manager): third-party systems register with :func:`register_system` and
immediately participate in every experiment.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.systems.base import GraphSystem

__all__ = ["ALL_SYSTEM_NAMES", "available_systems", "create_system",
           "register_system", "system_provides", "unregister_system"]

_FACTORIES: dict[str, Callable[..., GraphSystem]] = {}


def register_system(name: str, factory: Callable[..., GraphSystem],
                    replace: bool = False) -> None:
    """Register a system factory under ``name``."""
    if name in _FACTORIES and not replace:
        raise ConfigError(f"system {name!r} already registered")
    _FACTORIES[name] = factory


def unregister_system(name: str) -> None:
    """Remove a previously registered system (built-ins included --
    they re-register lazily on the next lookup)."""
    try:
        del _FACTORIES[name]
    except KeyError:
        raise ConfigError(f"system {name!r} is not registered") from None


def _ensure_builtin() -> None:
    """(Re-)register any missing built-in; an unregistered or replaced
    built-in name heals on the next lookup."""
    if all(name in _FACTORIES for name in ALL_SYSTEM_NAMES):
        return
    from repro.systems.gap import GapSystem
    from repro.systems.graph500 import Graph500System
    from repro.systems.graphbig import GraphBigSystem
    from repro.systems.graphmat import GraphMatSystem
    from repro.systems.powergraph import PowerGraphSystem

    for cls in (GapSystem, Graph500System, GraphBigSystem, GraphMatSystem,
                PowerGraphSystem):
        _FACTORIES.setdefault(cls.name, cls)


def available_systems() -> list[str]:
    """Names of every registered system, built-ins included."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def create_system(name: str, **kwargs) -> GraphSystem:
    """Instantiate a registered system (e.g. ``create_system("gap",
    n_threads=72)``)."""
    _ensure_builtin()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; available: {available_systems()}"
        ) from None
    return factory(**kwargs)


def system_provides(name: str) -> frozenset[str]:
    """Algorithms the registered system ``name`` declares in its
    factory's ``provides`` (empty for an unknown name)."""
    _ensure_builtin()
    return frozenset(getattr(_FACTORIES.get(name), "provides", ()))


ALL_SYSTEM_NAMES = ("gap", "graph500", "graphbig", "graphmat", "powergraph")
