"""Static checks on the source and test trees, with the standard library's ast only.

- No assert statement in the package: its checks must survive python -O.
- No unused module-level import in the package (whose __init__ re-exports
  by design) or in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oepartitions"
TESTS = ROOT / "tests"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree):
    """Names bound by a top-level import and never read as a name."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines} is stripped by python -O"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_module_imports(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_an_unused_and_a_used_import():
    tree = ast.parse("import os\nimport sys\nfrom a.b import c as d\nsys.exit(d)\n")
    assert _unused_imports(tree) == {"os": 1}
