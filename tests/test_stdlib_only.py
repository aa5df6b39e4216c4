"""The library imports nothing outside the Python standard library.

Every absolute import in ``src/rbtbench/*.py`` must name a top-level module
in ``sys.stdlib_module_names``; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rbtbench"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_from_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    outside = {
        (path.name, name)
        for path in files
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside
