"""The benchmark's tracer names package functions; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, module_name, names", [(k, *v) for k, v in tracing_layers().items()])
def test_traced_names_resolve(layer, module_name, names):
    module = importlib.import_module(module_name)
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{layer}: {module_name} has no {missing}"
