"""Every imported name is used, and no private definition of the package is dead.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the
module.  The package's modules, the tests and the benchmark's modules
are read; the package's __init__.py is exempt, since its imports are its
public re-exports, as are `from __future__` imports.  Each private
module-level function, class and constant of the package must be read
somewhere in those modules, as a name, an attribute or an imported name.
Importing the command line loads no module beyond the ones the package's
import statements name and the package's own.
"""

import ast
from functools import cache
from pathlib import Path

import pytest
from conftest import run_qswitch

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/qswitch", "tests", "bench")
                 for path in (ROOT / folder).glob("*.py"))
PACKAGE = [path for path in MODULES if path.parent.name == "qswitch"]


def unused_imports(source):
    """(line, name) of each import of `source` whose name is never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import math\nimport mpmath as mp\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == [(2, "mp"), (3, "path")]


def private_definitions(source):
    """(line, name) of each private function, class and constant `source`
    defines at module level; dunder names are not private."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        found += [(node.lineno, name) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(source):
    """Each name `source` reads, as a name, an attribute or an imported name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


@cache
def read_anywhere():
    return set().union(*(names_read(path.read_text()) for path in MODULES))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_definition_is_read(path):
    unread = [(line, name) for line, name in private_definitions(path.read_text())
              if name not in read_anywhere()]
    assert unread == []


def test_finds_an_unread_private_definition():
    source = ("_LIMIT = 2\n_SPARE: int = 3\n__all__ = []\n"
              "def _used():\n    return _LIMIT\n"
              "def _max_wavenumber():\n    pass\n"
              "class _Record:\n    pass\n"
              "print(_used())\n")
    assert private_definitions(source) == [(1, "_LIMIT"), (2, "_SPARE"), (4, "_used"),
                                           (6, "_max_wavenumber"), (8, "_Record")]
    read = names_read(source + "import qswitch\nqswitch._Record\n")
    assert {"_LIMIT", "_used", "_Record"} <= read
    assert not {"_SPARE", "_max_wavenumber"} & read


def imported_modules(source):
    """The absolute module names that the import statements of `source` name."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            named.add(node.module)
    return named


def test_cli_import_loads_only_named_modules():
    # start-up time is the benchmark's setup_s: a module that only comes along
    # with another, such as a numpy submodule numpy loads lazily, shows here
    named = sorted(set().union(*(imported_modules(path.read_text()) for path in PACKAGE)))
    code = (f"import importlib, sys\nfor name in {named!r}:\n    importlib.import_module(name)\n"
            "before = set(sys.modules)\nimport qswitch.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    result = run_qswitch(child=code, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "qswitch.cli" in added
    assert [name for name in added if name.partition(".")[0] != "qswitch"] == []
