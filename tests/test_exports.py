"""Each module's __all__ lists exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import chernlab

MODULES = [m.name for m in pkgutil.iter_modules(chernlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"chernlab.{name}")
    public = {key for key, obj in vars(mod).items()
              if not key.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate entry"
    assert set(mod.__all__) == public
