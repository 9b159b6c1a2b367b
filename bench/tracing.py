"""Span tracer for the benchmark's traced run.

Library functions are wrapped at the module attribute their caller looks
up, so no file of the library changes.  Each call records a span (name,
start, end, parent, op id) in memory; counts are taken at the same
boundaries.  A layer's self time is its busy time minus the time its
child spans cover.  A hook whose target no longer exists is reported as
missing and the metrics that depend on it as null.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _encode_counts(args, result):
    cs, _polarity = result
    return {"smt.encode.variables": cs.variable_count(), "smt.encode.constraints": cs.constraint_count()}


def _unknowns(args, result):
    s_zero, s_yes = result
    return {"analysis.until.unknowns": len(args[0].states) - len(s_zero) - len(s_yes)}


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # may be dotted, e.g. 'VectorEvaluator._bounded'
    span: str
    count: Optional[Callable] = None  # (args, result) -> {counter: increment}
    recursive: bool = False  # only the outermost call is recorded
    generator: bool = False  # counts yielded items instead of timing


HOOKS: Tuple[Hook, ...] = (
    Hook("hypermdp", "load_mdp", "model.load"),
    Hook("hypermdp", "parse_formula", "formula.parse"),
    Hook("hypermdp", "check", "enumcheck.check"),
    Hook("hypermdp", "solve_eager", "smt.solve_eager"),
    Hook("hypermdp", "encode_main", "smt.encode", count=_encode_counts),
    Hook("hypermdp", "emit_smtlib2", "constraints.emit",
         count=lambda args, res: {"constraints.smt2_bytes": len(res.encode("utf-8"))}),
    Hook("hypermdp.enumcheck", "build_composition", "enumcheck.combo"),
    Hook("hypermdp.smt", "build_composition", "smt.combo"),
    Hook("hypermdp.enumcheck", "induce_dtmc", "model.induce"),
    Hook("hypermdp.enumcheck", "self_compose", "model.compose",
         count=lambda args, res: {"model.compose.states": len(res.states)}),
    Hook("hypermdp.enumcheck", "enumerate_schedulers", "model.schedulers", generator=True),
    Hook("hypermdp.smt", "enumerate_schedulers", "model.schedulers", generator=True),
    Hook("hypermdp.analysis", "until_probs", "analysis.until",
         count=lambda args, res: {"analysis.until.states": len(args[0].states)}),
    Hook("hypermdp.analysis", "qualitative_sets", "analysis.qualitative", count=_unknowns),
    Hook("hypermdp.analysis", "bounded_until_probs", "analysis.bounded", recursive=True),
    Hook("hypermdp.smt", "VectorEvaluator._bounded", "analysis.bounded", recursive=True),
    Hook("hypermdp.smt", "truth_eval", "smt.truth_eval"),
    Hook("hypermdp.smt", "decode_witness", "smt.decode"),
)


def resolve(hook: Hook):
    """(owner, attribute name, current value), or None if the hook point is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, name, None)
    if not callable(target):
        return None
    return owner, name, target


class Tracer:
    """Installs the hooks, records spans and counters, restores the originals."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: List[tuple] = []  # (name, start, end, parent index or -1, op id)
        self.counters: Dict[str, int] = defaultdict(int)
        self.missing = sorted({h.span for h in hooks if resolve(h) is None})
        self.op_id = None
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._saved: List[tuple] = []

    def install(self) -> None:
        for hook in self.hooks:
            resolved = resolve(hook)
            if resolved is None:
                continue
            owner, name, original = resolved
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, hook: Hook, original):
        if hook.generator:
            counter = hook.span + ".yielded"

            @functools.wraps(original)
            def counting(*args, **kwargs):
                for item in original(*args, **kwargs):
                    self.counters[counter] += 1
                    yield item

            return counting

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if hook.recursive and self._active[hook.span]:
                return original(*args, **kwargs)
            self._active[hook.span] += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[hook.span] -= 1
                self.spans[index] = (hook.span, start, end, parent, self.op_id)
            self.counters[hook.span + ".calls"] += 1
            if hook.count is not None:
                for key, value in hook.count(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent, _op), cover in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - cover
        return out

    def span_records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op} for n, s, e, p, op in self.spans
        ]


def per_layer_metrics(tracer: Tracer, passes: int, space: Dict[str, int],
                      overhead_ratio: Optional[float]) -> Dict[str, dict]:
    """The per-layer metrics, per traced pass, as {name: {"value", "unit"}}.

    ``space`` maps 'enumcheck' and 'smt' to the summed scheduler-space
    sizes (``|schedulers| ** m``) of the traced ops of that engine.
    """
    layers = tracer.layers()
    counters = tracer.counters
    per = 1.0 / max(passes, 1)

    def calls(span):
        return counters.get(span + ".calls", 0) * per

    def busy(span):
        return layers.get(span, {}).get("busy_s", 0.0) * per

    def self_s(span):
        return layers.get(span, {}).get("self_s", 0.0) * per

    def count(key):
        return counters.get(key, 0) * per

    def ratio(engine):
        tried = counters.get(engine + ".combo.calls", 0)
        return tried / space[engine] if space.get(engine) else 0.0

    metrics = {
        "analysis.until.calls": (calls("analysis.until"), "count", ("analysis.until",)),
        "analysis.until.states": (count("analysis.until.states"), "count", ("analysis.until",)),
        "analysis.until.unknowns": (count("analysis.until.unknowns"), "count", ("analysis.qualitative",)),
        "analysis.until.self_s": (self_s("analysis.until"), "s", ("analysis.until", "analysis.qualitative")),
        "analysis.qualitative_s": (busy("analysis.qualitative"), "s", ("analysis.qualitative",)),
        "analysis.bounded.calls": (calls("analysis.bounded"), "count", ("analysis.bounded",)),
        "analysis.bounded_s": (busy("analysis.bounded"), "s", ("analysis.bounded",)),
        "model.compose.calls": (calls("model.compose"), "count", ("model.compose",)),
        "model.compose.states": (count("model.compose.states"), "count", ("model.compose",)),
        "model.compose_s": (busy("model.compose"), "s", ("model.compose",)),
        "model.induce_s": (busy("model.induce"), "s", ("model.induce",)),
        "model.schedulers_enumerated": (count("model.schedulers.yielded"), "count", ("model.schedulers",)),
        "enumcheck.combos_tried": (calls("enumcheck.combo"), "count", ("enumcheck.combo",)),
        "enumcheck.combos_ratio": (ratio("enumcheck"), "ratio", ("enumcheck.combo",)),
        "smt.combos_tried": (calls("smt.combo"), "count", ("smt.combo",)),
        "smt.combos_ratio": (ratio("smt"), "ratio", ("smt.combo",)),
        "enumcheck.self_s": (self_s("enumcheck.check"), "s", ("enumcheck.check",)),
        "smt.solve_eager.self_s": (self_s("smt.solve_eager"), "s", ("smt.solve_eager",)),
        "smt.truth_eval_s": (busy("smt.truth_eval"), "s", ("smt.truth_eval",)),
        "smt.decode_s": (busy("smt.decode"), "s", ("smt.decode",)),
        "smt.encode_s": (busy("smt.encode"), "s", ("smt.encode",)),
        "smt.encode.variables": (count("smt.encode.variables"), "count", ("smt.encode",)),
        "smt.encode.constraints": (count("smt.encode.constraints"), "count", ("smt.encode",)),
        "constraints.emit_s": (busy("constraints.emit"), "s", ("constraints.emit",)),
        "constraints.smt2_bytes": (count("constraints.smt2_bytes"), "bytes", ("constraints.emit",)),
        "formula.parse_s": (busy("formula.parse"), "s", ("formula.parse",)),
        "model.load_s": (busy("model.load"), "s", ("model.load",)),
    }
    missing = set(tracer.missing)
    out = {
        name: {"value": None if missing.intersection(needs) else value, "unit": unit}
        for name, (value, unit, needs) in metrics.items()
    }
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return out
