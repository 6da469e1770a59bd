import ast
import importlib
import pathlib
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


# Names a module imports only so that they can be imported from it, as its comments say.
RE_EXPORTS = {"classnum": {"MAX_BASE", "all_cycles", "expand"}}


def test_every_import_is_used():
    # A name a module imports but never reads is left over from deleted code.
    for path in pathlib.Path(quadclass.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = set(getattr(importlib.import_module(f"quadclass.{path.stem}"), "__all__", ()))
        unused = imported - used - kept - RE_EXPORTS.get(path.stem, set())
        assert not unused, f"quadclass.{path.stem} imports {sorted(unused)} and never uses them"
