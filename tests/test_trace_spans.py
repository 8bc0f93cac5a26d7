"""The benchmark's tracer wraps mfbsde functions by (module, name); a rename
that drops one would only surface when a traced benchmark run installs it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        f"mfbsde.{mod}.{fn}"
        for mod, fn in tracing.SPANS
        if not callable(getattr(importlib.import_module(f"mfbsde.{mod}"), fn, None))
    ]
    assert missing == []
