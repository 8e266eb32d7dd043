"""k-gamma-family special functions with a self-verifying identity harness.

The package evaluates the k-deformed gamma/digamma family, the Nielsen
k-beta function and the Hadamard k-gamma function, and ships a registry
of identities, expansions and inequalities that is run numerically
against independent oracles, including constant-factor diagnosis of
misprinted formulas.

``import kspecfun`` loads only the evaluators (``errors``, ``scalar``,
``kcore``, ``beta``, ``hadamard``).  The cross-check modules
(``oracles``, ``routes``, ``furdui``), the paper's numerical
``studies`` (the alpha_0 solver and the open-problem scanner) and the
identity ``registry`` load on first access to one of their names
(PEP 562); a name loads its own module and what that module imports.
"""

__version__ = "0.1.0"

# Each public name is declared in its module's __all__.
from .errors import *
from .scalar import *
from .kcore import *
from .beta import *
from .hadamard import *

_EVALUATORS = ("errors", "scalar", "kcore", "beta", "hadamard")
# module loaded on first use -> its __all__, listed here so that a name is
# found without loading the other modules (test_exports checks the lists agree)
_ON_FIRST_USE = {
    "oracles": ("Estimate", "DiscrepancyFit", "adaptive_quad", "fit_discrepancy"),
    "studies": ("RootResult", "alpha0_solve", "ScanTable", "openproblem_scan"),
    "routes": ("zeta_int", "gauss_2f1", "lerch_alt", "psi_k_series", "psi_k_m_series",
               "beta_k_series", "beta_k_integral", "beta_k_cosh_form", "beta_taylor_54",
               "beta_expansion_55", "recursion_47"),
    "furdui": ("FURDUI_METHODS", "furdui_oracle", "furdui_method", "thm31_series",
               "thm32_series", "thm33_series", "ln_gamma_k_moment", "logsin_moment",
               "thm34_recursion"),
    "registry": ("GridSpec", "IdentityReport", "IdentityEntry", "FitPlan", "FitRecord",
                 "EntrySummary", "RunSummary", "default_grid", "registry_ids", "get_entry",
                 "run_identity", "run_all", "reports_to_json", "reports_to_csv"),
}


def _load(name: str):
    """Import ``kspecfun.<name>`` and copy its ``__all__`` names into the package."""
    import importlib

    module = importlib.import_module(f"{__name__}.{name}")
    globals().update((n, getattr(module, n)) for n in module.__all__)
    return module


def __getattr__(name: str):
    if name == "__all__":
        return [n for module in _EVALUATORS for n in globals()[module].__all__] + [
            n for names in _ON_FIRST_USE.values() for n in names]
    if name in _ON_FIRST_USE:
        return _load(name)
    for module, names in _ON_FIRST_USE.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__getattr__("__all__"))
