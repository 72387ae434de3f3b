import ast
import importlib
import pkgutil
from pathlib import Path

import varmatern


def test_every_exported_name_resolves():
    # a refactor that deletes a name must take it out of __all__ too
    checked = 0
    for info in pkgutil.iter_modules(varmatern.__path__):
        module = importlib.import_module(f"varmatern.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        checked += len(getattr(module, "__all__", ()))
    assert checked > 0


# Top-level names that no package code uses: the benchmark reads matrices
# back with fileio.read_matrix, and sampler.empirical_covariance is the
# public sample-covariance helper.
UNREFERENCED_ALLOWED = {"fileio.read_matrix", "sampler.empirical_covariance"}


def test_every_package_function_is_referenced_from_package_code():
    # the package holds only what a command runs: a function or class that no
    # package code names (a re-export from __init__ does not count) belongs
    # beside the tests that use it, in tests/oracles.py
    defined, referenced = {}, set()
    for path in sorted(Path(varmatern.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    unreferenced = {key for key, name in defined.items() if name not in referenced}
    assert unreferenced == UNREFERENCED_ALLOWED
