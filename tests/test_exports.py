"""Every name in the package's and each module's ``__all__`` resolves, so a
deleted name cannot linger in an export list."""
import importlib
import pkgutil

import pytest

import needlet_whittle

MODULES = ["needlet_whittle"] + [
    f"needlet_whittle.{m.name}" for m in pkgutil.iter_modules(needlet_whittle.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
