"""Every exported name resolves, so a deleted function leaves no stale export."""

import importlib
import pkgutil

import pytest

import fbmax

MODULES = ["fbmax"] + [f"fbmax.{info.name}" for info in pkgutil.iter_modules(fbmax.__path__)]

EXPORTS = [
    (module, name)
    for module in MODULES
    for name in getattr(importlib.import_module(module), "__all__", ())
]


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
