"""The benchmark tracer wraps package names by string; each must still resolve."""

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve_in_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, fname in tracing.FUNCTIONS:
        assert inspect.isfunction(getattr(tracing.MODULES[mod], fname, None)), f"{mod}.{fname}"
    for mod, cls_name, meth in tracing.METHODS:
        cls = getattr(tracing.MODULES[mod], cls_name, None)
        assert cls is not None and inspect.isfunction(cls.__dict__.get(meth)), (
            f"{mod}.{cls_name}.{meth}"
        )
