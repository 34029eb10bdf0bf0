"""The benchmark's tracer wraps module bindings by name; keep them resolvable.

``perfbench/tracing.py`` lists every attribute it swaps in during a traced
run. A refactor that renames or drops one of them would otherwise only
surface as a ``KeyError`` from ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, path, *_ in tracing.TARGETS:
        try:
            owner, attr = tracing._resolve(module, path)
            vars(owner)[attr]  # the tracer swaps exactly this binding
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
    assert len(tracing.TARGETS) > 40
    assert missing == []
