"""Every name that the package and its modules list in __all__ resolves,
so a removed function cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import sarlab

MODULES = ["sarlab", *sorted(m.name for m in pkgutil.iter_modules(sarlab.__path__, "sarlab."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
