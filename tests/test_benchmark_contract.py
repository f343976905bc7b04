"""The names the benchmark's tracer wraps and reads must exist.

``perfbench/tracing.py`` reports every metric that depends on a traced
name that no longer resolves as ``null``, so a renamed function or
cache would turn the benchmark's result line invalid without failing
any other test."""

import importlib.util
from pathlib import Path

import orthogal.lfunc

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    missing = [name for name, (module, path) in tracing.SPANS.items()
               if tracing._resolve(module, path) is None]
    assert not missing, f"traced names that no longer resolve: {missing}"
    not_dicts = [name for name in tracing.CACHES
                 if not isinstance(getattr(orthogal.lfunc, name, None), dict)]
    assert not not_dicts, f"lfunc caches that are not dicts: {not_dicts}"


def test_every_metric_is_present_once_installed():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert sorted(name for name, v in metrics.items() if v is None) == []
