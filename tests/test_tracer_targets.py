"""The benchmark's tracer (perfbench/tracing.py) patches module attributes
of the program by name; a rename or a dropped import in src/ would break
`perfbench/run.py --trace 1` without failing any other test here."""

import ast
import importlib.util
from pathlib import Path

import pytest

from wulff_tvl1 import certificate, cli, solver
from wulff_tvl1.gauge import Gauge

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("owner, targets", [
    (cli, "CLI_TARGETS"),
    (solver, "SOLVER_TARGETS"),
    (certificate, "CERTIFICATE_TARGETS"),
    (Gauge, "GAUGE_TARGETS"),
])
def test_every_tracer_target_resolves(owner, targets):
    names = [attr for attr, _ in getattr(_load_tracing(), targets)]
    assert names
    missing = [attr for attr in names if not callable(getattr(owner, attr, None))]
    assert not missing, f"{targets}: {missing}"


PACKAGE = TRACING.parents[1] / "src" / "wulff_tvl1"
MODULE_TARGETS = {"cli": "CLI_TARGETS", "solver": "SOLVER_TARGETS",
                  "certificate": "CERTIFICATE_TARGETS"}


def _unused_imports(source: str) -> set:
    """Names a module imports and never reads, nor lists in __all__."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_kept_only_for_the_tracer(path):
    # src/ keeps an import it never calls only so that the tracer can patch
    # it by name; once a target is dropped, this names the import that can go
    name = MODULE_TARGETS.get(path.stem)
    targets = {attr for attr, _ in getattr(_load_tracing(), name)} if name else set()
    unused = _unused_imports(path.read_text())
    assert unused <= targets, f"{path.name}: unused imports {sorted(unused - targets)}"


def test_the_guard_sees_an_unused_import():
    source = "import math\nfrom .grid import tv_phi, reflect\nx = reflect\n"
    assert _unused_imports(source) == {"math", "tv_phi"}
