"""Every imported name is used by the module that imports it.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the
module.  The package's modules, the tests and the benchmark's modules
are read; the package's __init__.py is exempt, since its imports are its
public re-exports, as are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/qswitch", "tests", "bench")
                 for path in (ROOT / folder).glob("*.py"))


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
