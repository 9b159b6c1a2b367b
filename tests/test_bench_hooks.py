"""Every hook of the benchmark's traced run still names a library function.

A hook whose target is gone turns its per-layer metrics to null, so a
deletion in the library would silently blind the benchmark.
"""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{hook.module}.{hook.attr}" for hook in tracing.HOOKS if tracing.resolve(hook) is None]
    assert missing == []
    assert len(tracing.HOOKS) > 0
