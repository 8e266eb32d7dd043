"""Every name a kspecfun module lists in ``__all__`` exists and star-imports,
and the package reaches each of them while loading only the evaluators
on import."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kspecfun

MODULES = sorted(info.name for info in pkgutil.iter_modules(kspecfun.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kspecfun.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from kspecfun.{name} import *", namespace)
    assert set(exported) <= set(namespace)


LIBRARY = ("errors", "scalar", "oracles", "kcore", "beta", "hadamard", "routes", "furdui",
           "studies", "registry")


def _fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter, so that no earlier import
    in this process decides what the package namespace holds."""
    src = os.path.dirname(os.path.dirname(kspecfun.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_exports_exactly_the_module_all_lists():
    out = _fresh(f"""
        import importlib, kspecfun
        modules = [importlib.import_module("kspecfun." + name) for name in {LIBRARY!r}]
        declared = sorted(n for m in modules for n in m.__all__)
        star = {{}}
        exec("from kspecfun import *", star)
        star.pop("__builtins__")
        print(dir(kspecfun) == declared, sorted(kspecfun.__all__) == declared,
              sorted(star) == declared,
              all(star[n] is getattr(m, n) is getattr(kspecfun, n)
                  for m in modules for n in m.__all__),
              isinstance(kspecfun.__version__, str))
    """)
    assert out.split() == ["True"] * 5


def _loaded_by(code: str) -> list[str]:
    """The package's modules that a fresh interpreter holds after ``import
    kspecfun`` and ``code``."""
    out = _fresh("import sys, kspecfun\n" + textwrap.dedent(code) + "\nprint(*sorted("
                 "m.partition('.')[2] for m in sys.modules if m.startswith('kspecfun.')))")
    return out.split()


EVALUATORS = ["beta", "errors", "hadamard", "kcore", "scalar"]


def test_import_loads_only_the_evaluators():
    # one call of each evaluator loads no other module
    assert _loaded_by("""
        kspecfun.gamma_k(1.0, 2.5), kspecfun.ln_gamma_k(1.0, 2.5), kspecfun.rgamma_k(1.0, 2.5)
        kspecfun.psi_k(1.0, 2.5), kspecfun.psi_k_m(1.0, 2, 2.5)
        kspecfun.digamma(2.5), kspecfun.polygamma(2, 2.5)
        kspecfun.beta_k(1.0, 2.5), kspecfun.beta_k_deriv(1.0, 2, 2.5)
        kspecfun.hadamard_k(1.0, 0.5), kspecfun.hadamard_k(1.0, 2.5)
    """) == EVALUATORS
    # a name loads its module and what that module imports: the studies no
    # oracle, route or registry; Estimate nothing else; a route the oracles
    # it integrates with, not the Furdui routes or the registry
    for name, loads in (("alpha0_solve", ["studies"]), ("openproblem_scan", ["studies"]),
                        ("Estimate", ["oracles"]), ("gauss_2f1", ["oracles", "routes"]),
                        ("run_all", ["furdui", "oracles", "registry", "routes", "studies"])):
        assert _loaded_by(f"kspecfun.{name}") == sorted(EVALUATORS + loads), name


# public names that no module of the package uses, each kept on purpose
UNUSED_BY_THE_PACKAGE = {
    # the library's JSON writer; the streamed ``ksf verify`` report must equal its bytes
    "reports_to_json",
    # the classical 1/Gamma, rgamma_k at k = 1; the evaluators call rgamma_k itself
    "rgamma",
}


def _names_used_by_the_package():
    """Every name a module of the package loads or reads as an attribute,
    outside the top-level definition of that name itself."""
    used = set()
    for path in Path(kspecfun.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(), filename=path.name).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            names.discard(getattr(top, "name", None))
            used |= names
    return used


def test_every_public_name_is_used_by_the_package():
    public = {n for name in MODULES
              for n in getattr(importlib.import_module(f"kspecfun.{name}"), "__all__", ())}
    assert public - _names_used_by_the_package() == UNUSED_BY_THE_PACKAGE
