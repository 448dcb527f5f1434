"""The traced benchmark pass wraps functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("layer, names", sorted(_layer_functions().items()))
def test_traced_layer_functions_resolve(layer, names):
    home = importlib.import_module(f"spheretile.{layer}")
    for name in names:
        owner = home
        for part in name.split("."):
            assert hasattr(owner, part), f"spheretile.{layer} has no {name}"
            owner = getattr(owner, part)
        assert callable(owner), f"spheretile.{layer}.{name} is not callable"
