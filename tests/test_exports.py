import importlib
import pkgutil

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
