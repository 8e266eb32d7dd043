"""Every name a kspecfun module lists in ``__all__`` exists and star-imports."""

import importlib
import pkgutil
import types

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


LIBRARY = ("errors", "scalar", "oracles", "kcore", "beta", "hadamard", "furdui", "registry")


def test_package_exports_exactly_the_module_all_lists():
    declared = set()
    for name in LIBRARY:
        declared.update(importlib.import_module(f"kspecfun.{name}").__all__)
    public = {n for n in vars(kspecfun) if not n.startswith("_")}
    submodules = {n for n in public if isinstance(getattr(kspecfun, n), types.ModuleType)}
    assert submodules <= set(MODULES)
    assert public - submodules == declared
    assert isinstance(kspecfun.__version__, str)
