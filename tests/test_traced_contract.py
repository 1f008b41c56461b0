"""The traced benchmark's hold on the package: every name that
``perfbench/spans.py`` wraps must exist in the shape its mode needs."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_every_traced_target_resolves_in_its_mode():
    # outer wraps an lru_cache object and reads its cache_info; inner
    # rebuilds the cache around __wrapped__, so dropping either cache breaks
    # the traced run
    assert spans.TRACED
    for name, (module, attr, kind) in spans.TRACED.items():
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), name
        if kind == "outer":
            assert hasattr(target, "cache_info"), name
        elif kind == "inner":
            assert hasattr(target, "__wrapped__"), name
        else:
            assert kind == "plain", name
