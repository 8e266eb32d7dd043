"""k-gamma-family special functions with a self-verifying identity harness.

The package evaluates the k-deformed gamma/digamma family, the Nielsen
k-beta function and the Hadamard k-gamma function, and ships a registry
of identities, expansions and inequalities that is run numerically
against independent oracles, including constant-factor diagnosis of
misprinted formulas.
"""

__version__ = "0.1.0"

from .beta import (
    beta_expansion_55,
    beta_k,
    beta_k_cosh_form,
    beta_k_deriv,
    beta_k_integral,
    beta_k_series,
    beta_taylor_54,
    telescope_51,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    PoleError,
    QuadratureError,
)
from .furdui import (
    furdui_method,
    furdui_oracle,
    logsin_moment,
    thm31_series,
    thm32_series,
    thm33_series,
    thm34_recursion,
)
from .hadamard import (
    RootResult,
    alpha0_solve,
    functional_eq_41,
    hadamard_k,
    lerch_identity_410,
    recursion_47,
    representation_48,
    superadditivity_43,
)
from .kcore import (
    gamma_k,
    ln_gamma_k,
    psi_k,
    psi_k_duplication_rhs,
    psi_k_m,
    psi_k_m_series,
    psi_k_series,
    rgamma_k,
)
from .oracles import (
    CmProbeResult,
    DiscrepancyFit,
    QuadratureResult,
    adaptive_quad,
    cm_probe,
    finite_diff,
    fit_discrepancy,
)
from .registry import (
    GridSpec,
    IdentityEntry,
    IdentityReport,
    RunSummary,
    default_grid,
    openproblem_scan,
    registry_ids,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_identity,
)
from .scalar import (
    CONSTANTS,
    Constants,
    SeriesValue,
    digamma,
    gauss_2f1,
    lerch_alt,
    lerch_one_diff,
    ln_gamma,
    polygamma,
    rgamma,
    zeta_int,
)
