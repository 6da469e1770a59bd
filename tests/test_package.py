import importlib
import pkgutil

import quadclass


def test_every_all_entry_exists():
    # A name deleted from a module but left in its __all__ breaks `import *`.
    names = [info.name for info in pkgutil.iter_modules(quadclass.__path__)]
    assert {"arith", "classnum", "discriminant", "expansion", "verify"} <= set(names)
    for name in names:
        module = importlib.import_module(f"quadclass.{name}")
        for entry in getattr(module, "__all__", ()):
            assert hasattr(module, entry), f"quadclass.{name}.__all__ names missing {entry}"
