"""Seeded point generator and mpmath reference values for the eval workloads.

Inputs depend only on the workload and the seed.  References are computed
at 40 digits with mpmath in the benchmark's own process, never in the
process that is timed, so neither the timed region nor the set-up time
pays for them.
"""

from __future__ import annotations

import math
import random

import mpmath

# u = x/k ranges; u sets the cost (recurrence shifts, H_k walk length)
U_RANGES = {"eval-near": (-5.0, 10.0), "eval-far": (10.0, 150.0)}
K_RANGE = (0.01, 10.0)  # k is log-uniform on this range
CANDIDATES = {"eval-near": 320, "eval-far": 200}  # points before the domain rule
POLE_RADIUS = 1e-3  # in units of u: points this close to u = 0, -1, -2, ... are dropped
PSI_M_ORDERS = range(1, 7)

# binary64 normal range: a true value outside it has no binary64 result to check
_TINY = 2.2250738585072014e-308
_HUGE = 1.7976931348623157e308

# |got - ref| <= REL_TOL * max(|ref|, floor); the floor covers psi_k and
# beta_k, whose psi-difference forms cancel near their zeros
REL_TOL = 1e-11


def _representable(v) -> bool:
    a = abs(v)
    return _TINY <= a <= _HUGE


def _near_pole(u: float) -> bool:
    n = round(u)
    return n <= 0 and abs(u - n) < POLE_RADIUS


def _references(k: float, x: float):
    """(name, args, reference, floor) for every call issued at (k, x)."""
    K = mpmath.mpf(k)
    X = mpmath.mpf(x)
    U = X / K
    lnk = mpmath.log(K)
    scale = K ** (U - 1)
    gamma = scale * mpmath.gamma(U)
    if not _representable(gamma):
        return []
    # H_k(x) = k^(u-1) rgamma(1-u) (psi(1-u/2) - psi((1-u)/2)) / 2
    hadamard = scale * mpmath.rgamma(1 - U) * (
        mpmath.digamma(1 - U / 2) - mpmath.digamma((1 - U) / 2)) / 2
    out = [("gamma_k", (k, x), gamma, 0.0), ("hadamard_k", (k, x), hadamard, 0.0)]
    if x > 0.0:
        psi_u = mpmath.digamma(U)
        floor = float((abs(lnk) + abs(psi_u)) / K)
        out.append(("psi_k", (k, x), (lnk + psi_u) / K, floor))
        half = (mpmath.digamma((U + 1) / 2) - mpmath.digamma(U / 2)) / 2
        out.append(("beta_k", (k, x), half / K, floor))
        for m in PSI_M_ORDERS:
            out.append(("psi_k_m", (k, m, x), mpmath.polygamma(m, U) / K ** (m + 1), 0.0))
    return [(name, args, float(ref), fl) for name, args, ref, fl in out if _representable(ref)]


def generate(workload: str, seed: int):
    """Return the workload's fixed call list as (name, args, reference, floor) tuples.

    Candidates are a Latin hypercube in (u, log k): each of the n strata of
    u and of log k holds one candidate, so the cost mix of the list, and
    with it the throughput, varies little from seed to seed.
    """
    u_lo, u_hi = U_RANGES[workload]
    log_lo, log_hi = math.log(K_RANGE[0]), math.log(K_RANGE[1])
    rng = random.Random(f"{workload}:{seed}")
    n = CANDIDATES[workload]
    k_strata = list(range(n))
    rng.shuffle(k_strata)
    calls = []
    with mpmath.workdps(40):
        for i, j in enumerate(k_strata):
            u = u_lo + (i + rng.random()) / n * (u_hi - u_lo)
            k = math.exp(log_lo + (j + rng.random()) / n * (log_hi - log_lo))
            x = u * k
            if not _near_pole(x / k):
                calls.extend(_references(k, x))
    return calls


def mismatch(got, ref: float, floor: float) -> bool:
    """True when an evaluator result fails its check (nan, inf and errors fail)."""
    if not isinstance(got, float) or not math.isfinite(got):
        return True
    return abs(got - ref) > REL_TOL * max(abs(ref), floor)
