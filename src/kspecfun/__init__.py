"""k-gamma-family special functions with a self-verifying identity harness.

The package evaluates the k-deformed gamma/digamma family, the Nielsen
k-beta function and the Hadamard k-gamma function, and ships a registry
of identities, expansions and inequalities that is run numerically
against independent oracles, including constant-factor diagnosis of
misprinted formulas.

``import kspecfun`` loads only the evaluators (``errors``, ``scalar``,
``kcore``, ``beta``, ``hadamard``).  The cross-check modules
(``oracles``, ``routes``, ``furdui``) and the identity ``registry`` load
on first access to one of their names (PEP 562).
"""

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
from .errors import *
from .scalar import *
from .kcore import *
from .beta import *
from .hadamard import *

_LIBRARY = ("errors", "scalar", "oracles", "kcore", "beta", "hadamard", "routes", "furdui",
            "registry")
_ON_FIRST_USE = ("oracles", "routes", "furdui", "registry")


def _load(name: str):
    """Import ``kspecfun.<name>`` and copy its ``__all__`` names into the package."""
    import importlib

    module = importlib.import_module(f"{__name__}.{name}")
    globals().update((n, getattr(module, n)) for n in module.__all__)
    return module


def __getattr__(name: str):
    if name == "__all__":
        return [n for module in _LIBRARY for n in _load(module).__all__]
    if name in _ON_FIRST_USE:
        return _load(name)
    if not name.startswith("__"):
        for module in _ON_FIRST_USE:
            if name in _load(module).__all__:
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__getattr__("__all__"))
