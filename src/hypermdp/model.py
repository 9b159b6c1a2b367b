"""Explicit-state probabilistic models over exact rationals.

Markov decision processes, memoryless non-probabilistic schedulers, induced
chains and n-ary self-composition.  All probabilities are `fractions.Fraction`;
no floating point enters probability state anywhere.

Model text format (``.mdpx``, line oriented, ``#`` comments)::

    states: s0 s1 s2
    labels: s0: init; s1: a
    action s0 alpha: s0 1/2, s1 1/2
    action s0 beta: s2 1
    action s1 tau: s1 1
    action s2 tau: s2 1
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import (
    ArityZero,
    DanglingReference,
    IncompatibleScheduler,
    ModelSyntaxError,
    NoEnabledAction,
    RowSumError,
)
from .record import Frozen, Record

StateId = str
ComposedState = Tuple[StateId, ...]

_ONE = Fraction(1)
_ZERO = Fraction(0)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:=[A-Za-z0-9_]+)?$")
_PROB_RE = re.compile(r"(\d+)(?:/(\d+))?$")


class Dtmc(Frozen):
    """Discrete-time Markov chain; every row sums to exactly 1."""

    __slots__ = _fields = ("states", "trans", "ap", "labels")

    def transition_count(self) -> int:
        return sum(len(row) for row in self.trans.values())


class Mdp(Frozen):
    """Markov decision process with per-state nonempty enabled action sets."""

    __slots__ = _fields = ("states", "actions", "enabled", "trans", "ap", "labels")

    def transition_count(self) -> int:
        return sum(len(row) for row in self.trans.values())

    def scheduler_space_size(self) -> int:
        size = 1
        for s in self.states:
            size *= len(self.enabled[s])
        return size


class SchedulerAssignment(Frozen):
    """Total map state -> enabled action (memoryless, non-probabilistic)."""

    __slots__ = _fields = ("states", "actions")

    def choice(self, s: StateId) -> str:
        return self.actions[self.states.index(s)]

    def as_dict(self) -> Dict[StateId, str]:
        return dict(zip(self.states, self.actions))


class RawModel(Record):
    """Parsed but unvalidated model description."""

    __slots__ = _fields = ("states", "labels", "rows", "row_lines")
    _defaults = {"states": [], "labels": {}, "rows": {}, "row_lines": {}}
    states: List[StateId]
    labels: Dict[StateId, List[str]]
    # (state, action) -> list of (target, prob), in declaration order
    rows: Dict[Tuple[StateId, str], List[Tuple[StateId, Fraction]]]
    # line number of each action row, for error reporting
    row_lines: Dict[Tuple[StateId, str], int]


def _parse_prob(text: str, lineno: int) -> Fraction:
    m = _PROB_RE.match(text)
    if not m:
        raise ModelSyntaxError(f"bad probability {text!r}", lineno)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ModelSyntaxError(f"zero denominator in {text!r}", lineno)
    return Fraction(num, den)


def parse_model_text(text: str) -> RawModel:
    """Parse ``.mdpx`` text into a raw description (no validation).

    State, action and proposition names are interned, so every load of a
    model shares one copy of each name with the others and with whatever
    they leave behind (verdicts, schedulers)."""
    raw = RawModel()
    seen_states_line = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            if seen_states_line:
                raise ModelSyntaxError("duplicate states: line", lineno)
            seen_states_line = True
            names = line[len("states:"):].split()
            for name in map(sys.intern, names):
                if not _NAME_RE.match(name):
                    raise ModelSyntaxError(f"bad state id {name!r}", lineno)
                if name in raw.states:
                    raise ModelSyntaxError(f"duplicate state {name!r}", lineno)
                raw.states.append(name)
        elif line.startswith("labels:"):
            body = line[len("labels:"):]
            for entry in body.split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                if ":" not in entry:
                    raise ModelSyntaxError(f"bad label entry {entry!r}", lineno)
                state, props = entry.split(":", 1)
                state = sys.intern(state.strip())
                raw.labels.setdefault(state, [])
                for prop in map(sys.intern, props.split()):
                    if not _NAME_RE.match(prop):
                        raise ModelSyntaxError(f"bad proposition {prop!r}", lineno)
                    if prop not in raw.labels[state]:
                        raw.labels[state].append(prop)
        elif line.startswith("action "):
            head, _, tail = line.partition(":")
            parts = head.split()
            if len(parts) != 3:
                raise ModelSyntaxError(f"bad action header {head!r}", lineno)
            _, state, action = map(sys.intern, parts)
            if not _NAME_RE.match(action):
                raise ModelSyntaxError(f"bad action name {action!r}", lineno)
            key = (state, action)
            if key in raw.rows:
                raise ModelSyntaxError(f"duplicate row for {state} {action}", lineno)
            entries = []
            targets = set()
            for item in tail.split(","):
                item = item.strip()
                if not item:
                    continue
                pieces = item.split()
                if len(pieces) != 2:
                    raise ModelSyntaxError(f"bad transition entry {item!r}", lineno)
                target, prob = sys.intern(pieces[0]), pieces[1]
                if target in targets:
                    raise ModelSyntaxError(f"duplicate target {target!r} in row", lineno)
                targets.add(target)
                p = _parse_prob(prob, lineno)
                if p > 0:  # zero-probability edges are dropped at parse time
                    entries.append((target, p))
            raw.rows[key] = entries
            raw.row_lines[key] = lineno
        else:
            raise ModelSyntaxError(f"unrecognized line {line!r}", lineno)
    if not seen_states_line:
        raise ModelSyntaxError("missing states: line", 1)
    return raw


def validate_mdp(raw: RawModel) -> Mdp:
    """Check a raw description against the MDP invariants and freeze it.

    An action is enabled in a state iff its row sums to exactly 1; rows
    summing to anything else but 0 are rejected.
    """
    declared = set(raw.states)
    for state, props in raw.labels.items():
        if state not in declared:
            raise DanglingReference(f"label for undeclared state {state!r}")
    for (state, action), entries in raw.rows.items():
        lineno = raw.row_lines.get((state, action))
        if state not in declared:
            raise DanglingReference(f"action row for undeclared state {state!r}", lineno)
        for target, _ in entries:
            if target not in declared:
                raise DanglingReference(f"undeclared target state {target!r}", lineno)

    actions: List[str] = []
    enabled: Dict[StateId, List[str]] = {s: [] for s in raw.states}
    trans: Dict[Tuple[StateId, str], Tuple[Tuple[StateId, Fraction], ...]] = {}
    for (state, action), entries in raw.rows.items():
        total = sum((p for _, p in entries), _ZERO)
        if total == _ONE:
            if action not in actions:
                actions.append(action)
            enabled[state].append(action)
            trans[(state, action)] = tuple(entries)
        elif total != _ZERO:
            raise RowSumError(
                f"row {state} {action} sums to {total}, expected 0 or 1",
                raw.row_lines.get((state, action)),
            )

    for state in raw.states:
        if not enabled[state]:
            raise NoEnabledAction(f"state {state!r} has no enabled action")

    ap: List[str] = []
    labels: Dict[StateId, frozenset] = {}
    for state in raw.states:
        props = raw.labels.get(state, [])
        for prop in props:
            if prop not in ap:
                ap.append(prop)
        labels[state] = frozenset(props)

    return Mdp(
        states=tuple(raw.states),
        actions=tuple(actions),
        enabled={s: tuple(a) for s, a in enabled.items()},
        trans=trans,
        ap=tuple(ap),
        labels=labels,
    )


def parse_mdp(text: str) -> Mdp:
    return validate_mdp(parse_model_text(text))


def load_mdp(path) -> Mdp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mdp(fh.read())


def format_mdp(mdp: Mdp) -> str:
    """Render an Mdp back to canonical ``.mdpx`` text."""
    lines = ["states: " + " ".join(mdp.states)]
    label_entries = [
        f"{s}: {' '.join(sorted(mdp.labels[s]))}" for s in mdp.states if mdp.labels[s]
    ]
    if label_entries:
        lines.append("labels: " + "; ".join(label_entries))
    for s in mdp.states:
        for a in mdp.enabled[s]:
            row = ", ".join(f"{t} {p}" for t, p in mdp.trans[(s, a)])
            lines.append(f"action {s} {a}: {row}")
    return "\n".join(lines) + "\n"


def induce_dtmc(mdp: Mdp, sched: SchedulerAssignment) -> Dtmc:
    """Fix a scheduler: each state keeps only its chosen action's row."""
    choice = sched.as_dict()
    trans = {}
    for s in mdp.states:
        a = choice.get(s)
        if a is None or a not in mdp.enabled[s]:
            raise IncompatibleScheduler(f"choice {a!r} not enabled in state {s!r}")
        trans[s] = mdp.trans[(s, a)]
    return Dtmc(states=mdp.states, trans=trans, ap=mdp.ap, labels=mdp.labels)


def dtmc_as_mdp(d: Dtmc, action: str = "tau") -> Mdp:
    """Lift a chain to a one-action-per-state MDP."""
    return Mdp(
        states=d.states,
        actions=(action,),
        enabled={s: (action,) for s in d.states},
        trans={(s, action): d.trans[s] for s in d.states},
        ap=d.ap,
        labels=d.labels,
    )


def self_compose(dtmcs: Sequence[Dtmc]) -> Dtmc:
    """n-ary product chain with component propositions renamed ``a@i``.

    Component i's proposition a becomes ``a@i`` (i is 1-based); an edge's
    probability is the product of the component edge probabilities.
    """
    n = len(dtmcs)
    if n == 0:
        raise ArityZero("self-composition needs at least one chain")
    base = dtmcs[0].states
    for d in dtmcs[1:]:
        if d.states != base:
            raise ArityZero("all composed chains must share one state space")

    states = tuple(itertools.product(*(d.states for d in dtmcs)))
    ap = tuple(f"{a}@{i}" for i, d in enumerate(dtmcs, start=1) for a in d.ap)
    labels = {}
    trans = {}
    for joint in states:
        labels[joint] = frozenset(
            f"{a}@{i}" for i, (d, s) in enumerate(zip(dtmcs, joint), start=1) for a in d.labels[s]
        )
        row = []
        for combo in itertools.product(*(d.trans[s] for d, s in zip(dtmcs, joint))):
            prob = _ONE
            for _, p in combo:
                prob *= p
            row.append((tuple(t for t, _ in combo), prob))
        trans[joint] = tuple(row)
    return Dtmc(states=states, trans=trans, ap=ap, labels=labels)


def enumerate_schedulers(mdp: Mdp) -> Iterator[SchedulerAssignment]:
    """Stream all memoryless non-probabilistic schedulers.

    Yields exactly prod_s |enabled(s)| assignments, lexicographic over the
    declared state and action orders.
    """
    for combo in itertools.product(*(mdp.enabled[s] for s in mdp.states)):
        yield SchedulerAssignment(mdp.states, combo)
