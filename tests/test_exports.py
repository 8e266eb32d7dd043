"""Every name a kspecfun module lists in ``__all__`` exists and star-imports."""

import importlib
import pkgutil

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
