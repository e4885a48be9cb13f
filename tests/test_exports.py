"""Every exported name resolves, has one import path (the module defining
it), and is used by the package's own code."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import fbmax

MODULES = [f"fbmax.{info.name}" for info in pkgutil.iter_modules(fbmax.__path__)]

EXPORTS = [
    (module, name)
    for module in MODULES
    for name in getattr(importlib.import_module(module), "__all__", ())
]
IDS = [f"{m}.{n}" for m, n in EXPORTS]


@pytest.mark.parametrize("module,name", EXPORTS, ids=IDS)
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module,name", EXPORTS, ids=IDS)
def test_exported_name_is_defined_there(module, name):
    # a class or function exported from a module other than its own would
    # give the name a second import path
    obj = getattr(importlib.import_module(module), name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == module


def test_package_exports_nothing_but_its_version():
    names = {name for name, value in vars(fbmax).items()
             if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert names == set()
    assert not hasattr(fbmax, "__all__")
    assert fbmax.__version__ == "0.1.0"


def _names_loaded(path):
    """Names a module's code reads: ``Name`` loads and attribute names.
    Imports and docstrings are neither, so they do not count."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    return loaded


def test_every_export_is_used_by_the_package():
    # a name only the tests call is a parallel API, not code that runs
    package = Path(fbmax.__file__).parent
    used = set().union(*(_names_loaded(path) for path in package.glob("*.py")))
    unused = [f"{m}.{n}" for m, n in EXPORTS if n not in used]
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    # fbm._synthesise_pairs is the one exception: the benchmark's span layer
    # patches it by that name in montecarlo
    allowed = {("montecarlo", "fbm", "_synthesise_pairs")}
    package = Path(fbmax.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fbmax")):
                source = (node.module or "").rpartition(".")[2]
                private += [(path.stem, source, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert set(private) <= allowed, private
