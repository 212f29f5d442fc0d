"""No module imports a name it never uses, and no private function or
class of the package goes unread.

An AST scan of every module in src/winset, tests and demos: each name an
import binds must be read somewhere in the module.  A package's
`__init__.py` imports names to re-export them, so it is left out.

A second scan covers src/winset alone: each private (`_`-prefixed)
module-level function or class must be read by some other top-level
statement of the package.  Nothing outside the package may call one, so
one that nothing inside calls either is dead code.
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


def unread_private_names(sources):
    """The private module-level functions and classes defined in `sources`
    (module name -> source text) that no other top-level statement of any
    of them reads, by name or as an attribute, as sorted "module.name"."""
    private, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                private.append((module, node))
            reads.append((node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                          | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}))
    return sorted(f"{module}.{node.name}" for module, node in private
                  if not any(node.name in names for other, names in reads if other is not node))


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "m": "def _a():\n    return _b()\ndef _b(): pass\ndef _c():\n    return _c()\n"
             "class _D: pass\nx = _D\ndef __getattr__(name): pass\n",
        "n": "import m\nm._e()\n",
        "o": "def _e(): pass\n",
    }
    assert unread_private_names(sources) == ["m._a", "m._c"]


def test_every_private_function_and_class_of_the_package_is_read():
    package = ROOT / "src" / "winset"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []
