"""The traced benchmark wraps deepref functions by module and name; a rename
or removal in the package must not silently drop a span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, _ in module.TARGETS]


@pytest.mark.parametrize("module,name", load_targets())
def test_trace_target_resolves_to_a_deepref_function(module, name):
    assert callable(getattr(importlib.import_module(f"deepref.{module}"), name, None))
