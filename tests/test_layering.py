"""The package's import layering, read from each module's source with ``ast``.

L0 ``scalar`` (over ``errors``), L1 ``kcore`` and the route-agnostic
``oracles``, L2 ``beta``/``hadamard``, the cross-check ``routes`` and
``furdui`` and the ``studies`` built on the evaluators, L3 ``registry``,
L4 ``cli``.  A lower layer that imports a higher one would let an
evaluator depend on the harness that checks it, and a route that
imported an evaluator kernel would check it against itself.
"""

import ast
import inspect
from pathlib import Path

import pytest

import kspecfun

SRC = Path(kspecfun.__file__).resolve().parent

# module -> the only package modules it may import
ONLY = {
    "errors": set(),
    "scalar": {"errors"},
    "oracles": {"errors", "scalar"},
    "kcore": {"errors", "scalar"},
}
# module -> package modules it must not import
NEVER = {name: {"registry", "cli", "reports"} for name in ("beta", "hadamard", "routes", "furdui")}
# the paper's numerical studies sit on the evaluators alone: no cross-check
# machinery is compiled to solve for alpha_0 or to scan the open problem
NEVER["studies"] = {"routes", "furdui", "oracles", "registry", "cli"}
# the evaluators and the oracles they may be checked with never load a cross-check route
EVALUATOR_MODULES = ("scalar", "kcore", "beta", "hadamard", "oracles")
# the evaluator kernels and their public wrappers
KERNELS = {
    "_polygamma_edge",
    "_ln_gamma_k", "_gamma_k_pow", "_beta", "_beta_unit",
    "digamma", "psi_k", "lerch_one_diff", "polygamma", "psi_k_m", "rgamma", "gamma_k",
    "ln_gamma_k", "rgamma_k", "beta_k", "beta_k_deriv", "hadamard_k",
}
# recursion_47 walks the functional equation H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x)
# from hadamard_k at a base point, by design: the overlap that ROADMAP direction 2
# lists for EQ4.7 and EQ4.8-corrected
ROUTE_KERNELS_ALLOWED = {"hadamard_k", "rgamma_k"}


def _relative_imports(name):
    """Names of the package modules that ``kspecfun.<name>`` imports."""
    tree = ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .x import y
                found.add(node.module.partition(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("name", sorted(ONLY))
def test_lower_layers_import_only_the_layers_below(name):
    assert _relative_imports(name) <= ONLY[name]


@pytest.mark.parametrize("name", sorted(NEVER))
def test_derived_functions_import_no_registry_or_cli(name):
    assert not _relative_imports(name) & NEVER[name]


@pytest.mark.parametrize("name", EVALUATOR_MODULES)
def test_no_evaluator_imports_the_routes(name):
    assert "routes" not in _relative_imports(name)


def test_routes_import_no_evaluator_kernel():
    # every package import of routes names what it takes (no ``from . import
    # module``), so the names below are all it can reach
    tree = ast.parse((SRC / "routes.py").read_text(), filename="routes.py")
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert all(node.module for node in imports)
    names = {alias.name for node in imports for alias in node.names}
    assert names & KERNELS == ROUTE_KERNELS_ALLOWED


def test_import_table_reads_the_imports():
    # the parser sees both import forms the package uses
    assert {"beta", "furdui", "hadamard", "kcore", "scalar", "errors", "oracles"} \
        <= _relative_imports("registry")


def test_the_binary64_overflow_message_is_written_once():
    # scalar's helper writes it for rgamma and polygamma, and for
    # the whole Gamma_k family above it
    counts = {path.stem: path.read_text().count("overflows binary64") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"scalar": 1}


def _top_level_users(name, predicate):
    """Names of the top-level definitions of ``kspecfun.<name>`` with a node that matches."""
    tree = ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")
    return {getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top) if predicate(node)}


def _is_power_of(var):
    return lambda node: (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                         and isinstance(node.left, ast.Name) and node.left.id == var)


def _is_name(var):
    return lambda node: isinstance(node, ast.Name) and node.id == var


def test_series_routes_scale_by_k_once():
    # the Furdui series sum their k = 1 forms and scale once; only the
    # scale step and the quadrature oracle raise k to a power
    assert _top_level_users("furdui", _is_power_of("k")) <= {"_scaled", "_oracle_cached"}
    assert not _top_level_users("furdui", _is_name("km"))
    # beta_k and the scan sum in u = x/k and carry no power of k
    assert not _top_level_users("beta", _is_power_of("k"))
    assert not _top_level_users("beta", _is_name("kp"))
    scan = {"openproblem_scan", "_x_beta_k_derivs"}
    assert scan <= _top_level_users("studies", lambda node: True)
    assert not _top_level_users("studies", _is_power_of("k")) & scan
    assert not _top_level_users("studies", _is_name("kp")) & scan
    # nor do the beta_k expansions, which sit with the routes
    expansions = {"beta_taylor_54", "_taylor_coeffs", "beta_expansion_55", "_expansion_coeffs"}
    assert expansions <= _top_level_users("routes", lambda node: True)
    assert not _top_level_users("routes", _is_power_of("k")) & expansions
    assert not _top_level_users("routes", _is_name("kp")) & expansions
    # psi_k_series' Euler-Maclaurin tail, whose k**3 and k**5 overflowed from k = 1e100 up
    assert "psi_k_series" not in _top_level_users("routes", _is_power_of("k"))


def _calls_one_of(names):
    def predicate(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names
    return predicate


# module -> functions that check their arguments on entry, or take checked ones
CHECKED_ONCE = {
    "kcore": {"gamma_k", "rgamma_k", "psi_k", "psi_k_m"},
    "beta": {"beta_k", "_beta", "_beta_unit", "beta_k_deriv"},
    "hadamard": {"_h_base", "_h_far"},
}


@pytest.mark.parametrize("name", sorted(CHECKED_ONCE))
def test_evaluators_check_their_arguments_once(name):
    # past the entry check they call the private kernels, never a public
    # function that checks the same arguments again
    public = {"rgamma", "digamma", "polygamma", "psi_k_m", "beta_k"}
    assert not _top_level_users(name, _calls_one_of(public)) & CHECKED_ONCE[name]


def test_call_table_reads_the_calls():
    # the kernels the checked-once functions reach, seen through the same reader
    # one kernel forms c Gamma_k(x)^(+-1), and only it takes the log form
    # for the Gamma_k family and H_k
    assert _top_level_users("kcore", _calls_one_of({"_gamma_k_pow"})) == {"gamma_k", "rgamma_k"}
    assert _top_level_users("hadamard", _calls_one_of({"_gamma_k_pow"})) == {"_h_base", "_h_far"}
    assert _top_level_users("kcore", _calls_one_of({"_ln_gamma_k"})) \
        == {"ln_gamma_k", "_gamma_k_pow"}
    assert not _top_level_users("hadamard", _calls_one_of({"_ln_gamma_k", "exp", "gamma"}))
    assert _top_level_users("kcore", _calls_one_of({"gamma", "exp"})) == {"_gamma_k_pow"}
    # beta_k_deriv sums the alternating series itself and reaches no polygamma kernel
    assert not _top_level_users("beta", _calls_one_of({"psi_k_m", "_polygamma_plan"}))
    # psi_k_m holds the one shift and Bernoulli tail; the edge reruns it at a
    # rescaled (k, x) and keeps no second copy of its sums
    assert _top_level_users("kcore", _calls_one_of({"_polygamma_edge"})) == {"psi_k_m"}
    assert _top_level_users("kcore", _calls_one_of({"_polygamma_plan"})) == {"psi_k_m"}
    assert _top_level_users("kcore", _is_name("c10")) == {"psi_k_m"}
    assert _top_level_users("kcore", _calls_one_of({"_times_powers"})) == {"_polygamma_edge"}
    assert not _top_level_users("scalar", _calls_one_of({"_times_powers", "psi_k_m"}))
    assert _top_level_users("hadamard", _calls_one_of({"_beta_unit"})) == {"_h_base", "_h_far"}
    assert _top_level_users("beta", _calls_one_of({"_beta"})) == {"beta_k", "beta_k_deriv"}
    # the classical 1/Gamma, psi and psi^(m) are the k-functions at k = 1, and the
    # digamma difference is two calls of psi_k
    assert _top_level_users("kcore", _calls_one_of({"rgamma_k"})) == {"rgamma"}
    assert _top_level_users("kcore", _calls_one_of({"psi_k"})) == {"digamma", "lerch_one_diff"}
    assert _top_level_users("kcore", _calls_one_of({"psi_k_m"})) == {"polygamma", "_polygamma_edge"}
    assert not {"rgamma", "digamma", "polygamma"} & _top_level_users("scalar", lambda node: True)
    # valid input skips one helper frame: beta_k reaches the one-pass kernel
    # itself, and gamma_k tests x > POLE_GUARD k before it calls the pole check
    assert _top_level_users("beta", _calls_one_of({"_beta_unit"})) == {"beta_k", "_beta"}
    assert _top_level_users("kcore", _calls_one_of({"_check_pole"})) == {"gamma_k"}
    # route independence: beta's one-pass psi difference reaches no digamma kernel
    assert not _top_level_users("beta", _calls_one_of({"psi_k", "digamma"}))


def test_only_kcore_calls_libm_gamma():
    # one Gamma kernel: the evaluators reach math.gamma and math.lgamma only through kcore
    libm_gamma = _calls_one_of({"gamma", "lgamma"})
    assert {name for name in ("scalar", "kcore", "beta", "hadamard")
            if _top_level_users(name, libm_gamma)} == {"kcore"}


def test_beta_holds_no_continuation_below_zero():
    # beta_k is taken for x > 0 only; beta_k(z) = 1/z - beta_k(z + k) continued
    # to z <= 0 would meet the Gamma_k poles, and beta names none of them
    assert not _top_level_users("beta", lambda node: isinstance(node, ast.Name)
                                and node.id in ("_check_pole", "PoleError"))


def test_scalar_holds_no_evaluator():
    # scalar keeps constants, argument rules and the polygamma kernel; no function
    # there is public, and none takes the psi tail (_T1 .. _T7)
    assert kspecfun.scalar.__all__ == ["CONSTANTS", "Constants"]
    tail = {f"_T{i}" for i in range(1, 8)}
    assert not _top_level_users("scalar", lambda node: isinstance(node, ast.Name)
                                and node.id in tail) - {"<module>"}


def _is_shift_to_ten(node):
    # the upward psi shift: a while loop that runs until its argument reaches 10
    return isinstance(node, ast.While) and any(
        isinstance(c, ast.Constant) and c.value == 10.0 for c in ast.walk(node.test))


def test_only_psi_k_holds_the_psi_shift():
    # one psi body: digamma and lerch_one_diff take psi from psi_k at k = 1
    users = {name: _top_level_users(name, _is_shift_to_ten)
             for name in ("scalar", "kcore", "beta", "hadamard", "routes", "furdui", "studies")}
    assert {name: found for name, found in users.items() if found} == {"kcore": {"psi_k"}}


@pytest.mark.parametrize("name", ("scalar", "kcore", "beta"))
def test_no_function_loops_over_the_psi_tail(name):
    # the seven-term tail is written out over _T1 .. _T7 wherever it is taken
    assert _top_level_users(name, _is_name("_DIGAMMA_TAIL")) <= {"<module>"}


def _public_functions_taking(parameter):
    # dir() lists every exported name, loaded on first use or not
    return {name for name in dir(kspecfun) if inspect.isfunction(value := getattr(kspecfun, name))
            and parameter in inspect.signature(value).parameters}


def test_only_the_general_tools_take_an_accuracy_knob():
    # the cross-check routes run at one fixed accuracy; a tol is left only
    # where callers use more than one value or a user sets it
    assert _public_functions_taking("tol") == {"adaptive_quad", "gauss_2f1"}
    assert _public_functions_taking("n_max") == {"openproblem_scan"}
