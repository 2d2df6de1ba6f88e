"""The benchmark's tracer names only functions that exist.

A traced name that no longer resolves is left untraced, and its per-layer
metrics read 0 without an error, so a rename must fail here instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        name for name, owner, attr, _ in tracing.LAYERS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
