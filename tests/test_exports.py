"""Each module's __all__ lists exactly its public functions and classes,
and every public name backs a command or is read by a named test."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import chernlab

MODULES = [m.name for m in pkgutil.iter_modules(chernlab.__path__)]

# public names no command reaches, each with the test module that reads it:
# test oracles that reached code is compared against, and bounds that
# tests check against samples
TEST_ONLY = {
    ("bloch", "bloch_matrix"): "test_finite_volume",
    ("finite_volume", "green_function"): "test_finite_volume",
    ("topology", "chern_marker_triple"): "test_acceptance",
    ("model", "check_magnetic_periodicity"): "test_model",
    ("bounds", "combes_thomas_rate"): "test_bounds",
    ("bounds", "GapGeometry"): "test_bounds",
    ("bounds", "lambda_zero"): "test_bounds",
    ("bounds", "weak_disorder_upper"): "test_bounds",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"chernlab.{name}")
    public = {key for key, obj in vars(mod).items()
              if not key.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate entry"
    assert set(mod.__all__) == public


def _unreached() -> set[tuple[str, str]]:
    """(module, name) of every public name no statement of cli.py reaches.

    A name in a module's code stands for the function or class that the
    module defines under it or imports under it by ``from .x import y``;
    reaching one walks its whole body, so a class brings its methods.
    """
    trees = {name: ast.parse(Path(chernlab.__path__[0], f"{name}.py").read_text())
             for name in MODULES}
    defs, scope = {}, {}
    for name, tree in trees.items():
        scope[name] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[name, node.name] = node
                scope[name][node.name] = (name, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    scope[name][alias.asname or alias.name] = (node.module, alias.name)

    def refs(module: str, node: ast.AST) -> set[tuple[str, str]]:
        return {scope[module][n.id] for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id in scope[module]}

    reached, todo = set(), refs("cli", trees["cli"])
    while todo:
        key = todo.pop()
        reached.add(key)
        if key in defs:
            todo |= refs(key[0], defs[key]) - reached
    public = {(name, key) for name in MODULES
              for key in importlib.import_module(f"chernlab.{name}").__all__}
    return public - reached


def test_every_public_name_is_reached_from_the_cli_or_a_named_test():
    # a public name must be reached from cli.py, or be listed above with
    # a test module that reads it; a name that gets wired into a command
    # must leave the list, and a new test-only name must enter it
    assert _unreached() == set(TEST_ONLY)
    for (module, name), test in TEST_ONLY.items():
        source = Path(__file__).with_name(f"{test}.py").read_text()
        assert name in source, f"{test} does not read {module}.{name}"
