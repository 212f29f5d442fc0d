"""No module imports a name it never uses.

An AST scan of every module in src/winset, tests and demos: each name an
import binds must be read somewhere in the module.  A package's
`__init__.py` imports names to re-export them, so it is left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/winset", "tests", "demos")


def unused_imports(source):
    """The names that `source`'s imports bind and nothing reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - {"*"})


def test_the_scan_finds_an_unused_import():
    source = "import os, sys.path\nfrom a import b as c, d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["c", "sys"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(path.read_text(encoding="utf-8"))
                if names:
                    unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
