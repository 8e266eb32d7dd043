"""k-gamma-family special functions with a self-verifying identity harness.

The package evaluates the k-deformed gamma/digamma family, the Nielsen
k-beta function and the Hadamard k-gamma function, and ships a registry
of identities, expansions and inequalities that is run numerically
against independent oracles, including constant-factor diagnosis of
misprinted formulas.
"""

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
from .errors import *
from .scalar import *
from .oracles import *
from .kcore import *
from .beta import *
from .hadamard import *
from .furdui import *
from .registry import *
