"""Every hook of the benchmark's traced run still names a library function.

A hook whose target is gone turns its per-layer metrics to null, so a
deletion in the library would silently blind the benchmark.  An import
that only a hook needs says so (``# noqa ... hooks <module>.<attr>``), and
must name a hook that still exists.
"""

import importlib.util
import os
import re
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
LIBRARY = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hypermdp")
HOOK_ONLY = re.compile(r"#\s*noqa\b.*\bhooks\s+(\w+)\.([\w.]+)")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves(tracing):
    missing = [f"{hook.module}.{hook.attr}" for hook in tracing.HOOKS if tracing.resolve(hook) is None]
    assert missing == []
    assert len(tracing.HOOKS) > 0


def test_every_hook_only_import_names_a_hook(tracing):
    hooks = {(hook.module, hook.attr) for hook in tracing.HOOKS}
    named = []
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
                for line in fh:
                    match = HOOK_ONLY.search(line)
                    if match:
                        module, attr = match.groups()
                        assert module == name[:-3], line  # a hook on the importing module itself
                        named.append((f"hypermdp.{module}", attr))
    assert len(named) >= 2  # smt.enumerate_schedulers and enumcheck.self_compose
    assert [hook for hook in named if hook not in hooks] == []
