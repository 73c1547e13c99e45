"""Each module's __all__ lists exactly its public functions and classes,
and every public probe backs a command."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import chernlab
from chernlab import cli, probes

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


def test_every_public_probe_is_reached_from_the_cli():
    # a public probe function must be called from cli.py, or from a
    # probes.py function that is itself reached; anything else is
    # library surface that no command can exercise
    def names(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    defs = {node.name: node for node in ast.parse(inspect.getsource(probes)).body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), names(ast.parse(inspect.getsource(cli))) & defs.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (names(defs[name]) & defs.keys()) - reached
    public = {name for name in probes.__all__ if inspect.isfunction(getattr(probes, name))}
    assert public - reached == set()
