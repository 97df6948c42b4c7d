"""The public API is what ``src/gridroots/__init__.py`` imports from its
submodules; this reads those imports instead of restating the names."""
import ast
import importlib
from pathlib import Path

import gridroots


def public_imports():
    """``(module, name, bound_as)`` for every ``from .module import name``
    statement of the package's ``__init__.py``."""
    tree = ast.parse(Path(gridroots.__file__).read_text())
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_a_star_import_binds_each_public_name_to_its_modules_object():
    imports = public_imports()
    assert imports
    star = {}
    exec("from gridroots import *", star)
    for module, name, bound_as in imports:
        source = importlib.import_module(f"gridroots.{module}")
        assert star[bound_as] is getattr(source, name), f"{module}.{name}"
        # with no __all__, a star import also binds the submodules
        assert star[module] is source
