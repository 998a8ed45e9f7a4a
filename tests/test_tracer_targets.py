"""The benchmark's tracer (perfbench/tracing.py) patches module attributes
of the program by name; a rename or a dropped import in src/ would break
`perfbench/run.py --trace 1` without failing any other test here."""

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
