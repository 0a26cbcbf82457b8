"""The benchmark tracer patches package functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _ in (*tracing.SPANNED, *tracing.COUNTED)]
    assert names
    missing = [f"domicert.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"domicert.{module}"), attr)]
    assert missing == []
