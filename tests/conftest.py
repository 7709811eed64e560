"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "gate.py"


@pytest.fixture
def gate():
    """``benchmarks/gate.py`` as a module (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location("gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
