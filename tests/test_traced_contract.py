"""The traced benchmark's hold on the package: every name that
``perfbench/spans.py`` wraps must exist in the shape its mode needs, and the
``verify_battery`` commands must call every ``morphisms`` span it expects."""

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


def test_verify_battery_calls_every_morphisms_span(monkeypatch, capsys):
    # the traced verify_battery run fails on an expected span with no calls;
    # run the workload's commands in-process under the same tracer and check
    # the morphisms spans, the ones a change to verify's rows can starve
    run = _load("perfbench_run", "run.py")
    expected = sorted(name for name in run.WORKLOADS["verify_battery"].spans if name.startswith("morphisms."))
    assert expected
    originals = {id(getattr(importlib.import_module(module), attr)) for module, attr, _ in spans.TRACED.values()}
    namespaces = [m for k, m in sys.modules.items() if k == "orlov_kit" or k.startswith("orlov_kit.")]
    for ns in namespaces:  # monkeypatch undoes what install() patches
        for key, value in list(vars(ns).items()):
            if id(value) in originals:
                monkeypatch.setattr(ns, key, value)
    tracer = spans.Tracer()
    tracer.install()
    cli = sys.modules["orlov_kit.cli"]
    assert cli.main(["verify", "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["coghost-lemma", "--algebra", cli._fixture_path("linear4.json")]) == cli.EXIT_OK
    capsys.readouterr()
    summary = tracer.summary()
    assert [name for name in expected if summary[name]["calls"] == 0] == []
