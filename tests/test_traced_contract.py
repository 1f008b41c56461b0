"""The traced benchmark's hold on the package: every name that
``perfbench/spans.py`` wraps must exist in the shape its mode needs, and each
workload's commands must call every span it expects."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / "perfbench" / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


spans = _load("perfbench_spans", "spans.py")


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


def test_every_workload_calls_every_expected_span(monkeypatch, capsys, tmp_path):
    # the traced run fails on an expected span with no calls; run each
    # workload's commands in-process under the same tracer, with the
    # engine's caches cleared as in a fresh interpreter, and check every
    # span it expects: a change to verify's rows can starve the morphisms
    # spans, and a change to star's tiers closure.realizable
    run = _load("perfbench_run", "run.py")
    originals = {id(getattr(importlib.import_module(module), attr)) for module, attr, _ in spans.TRACED.values()}
    namespaces = [m for k, m in sys.modules.items() if k == "orlov_kit" or k.startswith("orlov_kit.")]
    cli = sys.modules["orlov_kit.cli"]
    for name, workload in run.WORKLOADS.items():
        for ns in namespaces:  # monkeypatch undoes what install() patches
            for key, value in list(vars(ns).items()):
                if id(value) in originals:
                    monkeypatch.setattr(ns, key, value)
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        tracer = spans.Tracer()
        tracer.install()
        for command in workload.build(1, tmp_path):
            assert cli.main(list(command.argv)) == cli.EXIT_OK, (name, command.label)
        capsys.readouterr()
        summary = tracer.summary()
        assert [span for span in sorted(workload.spans) if summary[span]["calls"] == 0] == [], name
        monkeypatch.undo()
