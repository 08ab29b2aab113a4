"""
The benchmark's tracer patches klimm functions and methods by name; a
rename in the package must fail here rather than in a benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

from klimm.klpoly import KLCache

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_package():
    spans = _load_spans()
    for module, attr in spans.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"klimm.{module}"),
                                attr, None)), f"klimm.{module}.{attr}"
    for method in spans.TRACED_METHODS:
        assert callable(getattr(KLCache, method, None)), f"KLCache.{method}"
