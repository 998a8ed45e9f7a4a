"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy and the package itself.  Test-only
dependencies (pytest, and any oracle a test extra adds) stay out of src/."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wulff_tvl1"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wulff_tvl1"}


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(_imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_the_guard_sees_a_foreign_import():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    tree = ast.parse("import numpy\nfrom scipy import sparse\nfrom . import grid\n")
    assert set(_imported_roots(tree)) - ALLOWED == {"scipy"}
