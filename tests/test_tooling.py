"""Guards on the repository's own sources."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def imported_modules(source: str, filename: str = "<source>") -> list[str]:
    """Every absolute module name that an import statement in ``source`` names."""
    names = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize(
    "source", ["import scipy", "import numpy, scipy.special as sp", "from scipy.special import jv", "def f():\n    import scipy\n"]
)
def test_scipy_imports_are_found(source):
    assert "scipy" in {name.split(".")[0] for name in imported_modules(source)}


def test_no_scipy_import():
    # scipy is installed on some hosts but is not a declared dependency, and
    # CI does not install it
    assert SOURCES
    offenders = [
        f"{path.relative_to(ROOT)}: import {name}"
        for path in SOURCES
        for name in imported_modules(path.read_text(encoding="utf-8"), str(path))
        if name.split(".")[0] == "scipy"
    ]
    assert offenders == []
