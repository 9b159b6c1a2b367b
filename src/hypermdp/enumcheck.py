"""Reference semantics: decide formulas by direct quantifier instantiation.

``decide`` is the one quantifier walk: scheduler quantifiers range over
the memoryless non-probabilistic assignments, and under each combination
``truth_eval`` walks the state quantifiers over their domains
(``state_domains``): all states, or, where the body's guards make every
other state unable to decide the quantifier, the states that carry the
guards.  The quantifier-free body is evaluated at the composed tuples the
state quantifiers visit, each path formula on the chains of only the
components it mentions and only at the states reachable from where it is
read.  ``check``, ``replay`` and the eager engine (``smt.solve_eager``,
on the encoded formula) are thin front ends to it; the encoder and the
decoder read the same domains.  Mixed scheduler prefixes are supported
here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from . import analysis
from .errors import (
    CapExceeded,
    IllFormed,
    QuantifierOrderViolation,
    UnboundSchedulerVariable,
    UnboundStateVariable,
    UnknownProposition,
)
from .formula import (
    ARITH_OPS,
    And,
    Const,
    Formula,
    Less,
    Next,
    NotF,
    ProbOf,
    Prop,
    SchedQuant,
    StateQuant,
    TrueF,
    Until,
    body_propositions,
    check_well_formed,
    count_quantifiers,
    rename_vars,
    state_var_index,
    subformula_supports,
)
from .model import Dtmc, Mdp, SchedulerAssignment, enumerate_schedulers, induce_dtmc, self_compose
from .record import Frozen, Record


_ONE = Fraction(1)


class Verdict(Record):
    """Truth value plus witness or counterexample instantiations.

    Values are recorded for the maximal leading same-kind quantifier
    chain: a true exists-led formula carries a witness, a false
    forall-led formula a counterexample.  ``mode`` is 'witness',
    'counterexample' or 'none'.
    """

    __slots__ = _fields = ("truth", "mode", "schedulers", "states")
    _defaults = {"mode": "none", "schedulers": {}, "states": {}}


class Composition(Frozen):
    """One scheduler combination of a formula: the assignment that each
    component of the self-composition (one per state variable) runs under."""

    __slots__ = _fields = ("mdp", "assignments")

    def full(self) -> Dtmc:
        """The whole n-fold self-composition; components that run under one
        assignment share its induced chain.  Only the tests build it, as
        the reference for the per-support values."""
        if not self.assignments:
            unit = ()  # zero components: a single anonymous state with a self-loop
            return Dtmc(states=(unit,), trans={unit: ((unit, _ONE),)}, ap=(), labels={unit: frozenset()})
        induced = {a: induce_dtmc(self.mdp, a) for a in dict.fromkeys(self.assignments)}
        return self_compose([induced[a] for a in self.assignments])


def build_composition(mdp: Mdp, f: Formula, chosen: Dict[str, SchedulerAssignment]) -> Composition:
    """Bind each state variable's component to its scheduler's assignment."""
    return Composition(mdp, tuple(chosen[q.sched] for q in f.prefix if isinstance(q, StateQuant)))


class JointRows(dict):
    """Rows of the product of the chains whose rows are ``components``, each
    built on first read, in ``self_compose``'s order and with its products
    formed from the second component on."""

    def __init__(self, components: Tuple[Mapping, ...]):
        super().__init__()
        self.components = components

    def __missing__(self, point: tuple):
        row = [((), _ONE)]
        for rows, s in zip(self.components, point):
            row = [(joint + (t,), p * q if joint else q) for joint, p in row for t, q in rows[s]]
        row = self[point] = tuple(row)
        return row


def _walk(rows: Mapping, point, stop: Mapping) -> list:
    """``point`` and the points reachable from it without entering ``stop``."""
    points, seen = [point], {point}
    for q in points:  # breadth first: the loop reaches what it appends
        for t, _ in rows[q]:
            if t not in seen and t not in stop:
                seen.add(t)
                points.append(t)
    return points


class Evaluator:
    """Evaluates a formula's body at composed tuples, one scheduler
    combination (``bind``) at a time.

    A path formula is solved on the chain of only the components its state
    variables map to, its support K: one component's induced chain, or
    ``JointRows`` over several, never the whole product.  Its vector is
    filled lazily at K-local points: a read that misses at p solves the
    points reachable from p.  Until stops at points solved before, the
    solve's known boundary, so each point is solved once; next reads p's row
    only; bounded until solves the whole chain on its first miss, since its
    windows at solved points do not cover the steps still to go.
    Rows and vectors are cached by the assignments of K and the path renamed
    to positions in K, so ``P(F a(x))`` and ``P(F a(y))`` under one scheduler
    share a vector; the caches keep only entries whose assignments are bound.
    """

    def __init__(self, mdp: Mdp, f: Formula):
        self.mdp = mdp
        self.var_index = state_var_index(f)
        self.supports = subformula_supports(f.body, self.var_index)
        self.assignments: Tuple[SchedulerAssignment, ...] = ()
        self.cache = {}  # (assignments of K, renamed path, or None for K's rows) -> vector or rows
        self.closures = {}  # (assignments of K, point) -> the points reachable from it
        self._stamp = 0  # counts binds; a reader refetches its vector when it moves
        self._fns = {}
        self._top = tuple(range(len(self.var_index)))
        self._body = self._compile(f.body, self._top)

    def bind(self, composition: Composition) -> None:
        """Evaluate under ``composition`` from now on; drop cache entries
        whose assignments it does not bind."""
        bound = self.assignments = composition.assignments
        self._stamp += 1
        keep = lambda cache: {key: v for key, v in cache.items() if all(a in bound for a in key[0])}
        self.cache, self.closures = keep(self.cache), keep(self.closures)

    def holds(self, at: tuple) -> bool:
        """The body at composed tuple ``at``."""
        return self._body(at)

    def value(self, node, at: tuple):
        """A body or probability expression over the formula's state
        variables, at composed tuple ``at``."""
        return self.reader(node, self._top)(at)

    def reader(self, node, support: Tuple[int, ...]):
        """``node`` under the bound combination, as a function of the
        points of ``support``: tuples of states of those components."""
        if node not in self.supports:
            self.supports.update(subformula_supports(node, self.var_index))
        return self._compile(node, support)

    def _compile(self, node, frame):
        """``node`` as a function of tuples over the components ``frame``, or,
        for an int frame, of that component's bare states (faster to hash).
        One call per level of ``node``, which ``parse_formula`` bounds."""
        fn = self._fns.get((node, frame))
        if fn is not None:
            return fn
        if isinstance(node, (TrueF, Const)):
            value = True if isinstance(node, TrueF) else node.value
            fn = lambda t: value
        elif isinstance(node, Prop):
            name, labels = node.name, self.mdp.labels
            if isinstance(frame, int):
                fn = lambda s: name in labels[s]
            else:
                pos = frame.index(self.var_index[node.var] - 1)
                fn = lambda t: name in labels[t[pos]]
        elif isinstance(node, NotF):
            inner = self._compile(node.operand, frame)
            fn = lambda t: not inner(t)
        elif isinstance(node, ProbOf):
            fn = self._reader(node, frame)
        else:
            left, right = self._compile(node.left, frame), self._compile(node.right, frame)
            if isinstance(node, And):
                fn = lambda t: left(t) and right(t)
            elif isinstance(node, Less):
                fn = lambda t: left(t) < right(t)
            else:
                op = ARITH_OPS[node.op]
                fn = lambda t: op(left(t), right(t))
        self._fns[node, frame] = fn
        return fn

    def _reader(self, node: ProbOf, frame):
        support = self.supports[node]
        names = {v: support.index(i - 1) for v, i in self.var_index.items() if i - 1 in support}
        renamed = rename_vars(node.path, names)
        held = [None, None]  # (stamp, vector) of the last bind

        def read(point):
            if held[0] != self._stamp:
                key = (tuple(self.assignments[c] for c in support), renamed)
                held[0], held[1] = self._stamp, self.cache.setdefault(key, {})
            value = held[1].get(point)
            if value is None:
                self._solve(node.path, support, held[1], point)
                value = held[1][point]
            return value

        if isinstance(frame, int):  # the support is (frame,) or ()
            return read if support else (lambda s: read(()))
        pos = tuple(frame.index(c) for c in support)
        if len(pos) == 1:
            (p,) = pos
            return lambda t: read(t[p])
        return lambda t: read(tuple(t[p] for p in pos))

    def _solve(self, path, support, vec: dict, point) -> None:
        """Add to ``vec`` the values of ``path`` at ``point`` and at the
        points its value there depends on."""
        rows = self.rows(support)
        frame = support[0] if len(support) == 1 else support
        if isinstance(path, Next):
            holds = self._compile(path.operand, frame)
            d = Dtmc(states=(point,), trans=rows, ap=(), labels={})
            vec.update(analysis.next_probs(d, {t: holds(t) for t, _ in rows[point]}))
            return
        if not isinstance(path, Until):  # windows at solved points do not cover the steps still to go
            states = self.mdp.states
            points = list(states if isinstance(frame, int) else itertools.product(states, repeat=len(frame)))
        elif not vec:  # a first miss: the closure of point, shared by the vectors on these rows
            key = (tuple(self.assignments[c] for c in support), point)
            points = self.closures[key] = self.closures.get(key) or _walk(rows, point, {})
        else:
            points = _walk(rows, point, vec)
        fn1, fn2 = self._compile(path.left, frame), self._compile(path.right, frame)
        phi1, phi2 = {q: fn1(q) for q in points}, {q: fn2(q) for q in points}
        d = Dtmc(states=tuple(points), trans=rows, ap=(), labels={})
        if isinstance(path, Until):
            vec.update(analysis.until_probs(d, phi1, phi2, vec))
        else:
            vec.update(analysis.bounded_until_probs(d, phi1, phi2, path.k1, path.k2))

    def rows(self, support: Tuple[int, ...]):
        """``support``'s rows under the bound combination: ``JointRows`` unless one component."""
        key = (tuple(self.assignments[c] for c in support), None)
        rows = self.cache.get(key)
        if rows is None:
            if len(support) == 1:
                rows = induce_dtmc(self.mdp, key[0][0]).trans
            else:
                rows = JointRows(tuple(self.rows((c,)) for c in support))
            self.cache[key] = rows
        return rows


def validate_inputs(mdp: Mdp, f: Formula, max_sched_vars: int, max_state_vars: int) -> None:
    """Shared entry checks: well-formedness, quantifier caps, alphabet."""
    try:
        check_well_formed(f)
    except (UnboundStateVariable, UnboundSchedulerVariable, QuantifierOrderViolation) as exc:
        raise IllFormed(str(exc)) from exc
    m, n = count_quantifiers(f)
    if m > max_sched_vars:
        raise CapExceeded(f"{m} scheduler variables exceed the cap of {max_sched_vars}")
    if n > max_state_vars:
        raise CapExceeded(f"{n} state variables exceed the cap of {max_state_vars}")
    unknown = body_propositions(f.body) - set(mdp.ap)
    if unknown:
        raise UnknownProposition(f"propositions not in the model alphabet: {sorted(unknown)}")


def state_domains(mdp: Mdp, f: Formula) -> Tuple[Tuple[str, ...], ...]:
    """Per state quantifier of ``f``, the states it ranges over, in model order.

    A guard of v is a proposition on v conjoined below the body's leading
    negations (double negations seen through).  Off a guard the body is false
    under an even count, so no such state decides an ``exists`` v, and true
    under an odd one (an antecedent), deciding no ``forall`` v: that
    quantifier takes only the states with all of v's guards, the rest all.
    """
    body, negations = f.body, 0
    while isinstance(body, NotF):
        body, negations = body.operand, negations + 1
    guards: Dict[str, set] = {}
    conjuncts = [body]
    while conjuncts:
        node = conjuncts.pop()
        if isinstance(node, And):
            conjuncts += (node.left, node.right)
        elif isinstance(node, NotF) and isinstance(node.operand, NotF):
            conjuncts.append(node.operand.operand)
        elif isinstance(node, Prop):
            guards.setdefault(node.var, set()).add(node.name)
    restricted = negations % 2 == 0  # the quantifier kind a guard restricts
    return tuple(
        tuple(s for s in mdp.states if q.exists != restricted or guards.get(q.name, set()) <= mdp.labels[s])
        for q in f.prefix if isinstance(q, StateQuant)
    )


def truth_eval(state_quants, domains, holds) -> Tuple[bool, dict]:
    """The state quantifiers over ``domains``, each left to right, on the
    body's truth ``holds`` at composed tuples, short-circuiting on
    exists-success and forall-failure.

    Returns the truth and, keyed by depth, the states on the deciding branch.
    """
    def level(depth: int, at: tuple):
        if depth == len(state_quants):
            return holds(at), {}
        q = state_quants[depth]
        for s in domains[depth]:
            truth, picks = level(depth + 1, at + (s,))
            if truth == q.exists:
                return truth, {depth: s, **picks}
        return not q.exists, {}

    return level(0, ())


def decide(mdp: Mdp, f: Formula, pinned: Optional[Mapping[int, object]] = None) -> Tuple[bool, dict]:
    """The truth of ``f`` and the values on its deciding branch.

    Scheduler quantifiers take every assignment in lexicographic order,
    then, under one ``bind`` per combination, ``truth_eval`` walks the
    state quantifiers over ``state_domains``.  The quantifier at prefix
    position i takes only ``pinned[i]`` if given.  Values are keyed by
    prefix position, so a scheduler and a state variable may share a name.
    """
    pinned = pinned or {}
    evaluator = Evaluator(mdp, f)
    m, _ = count_quantifiers(f)
    state_quants = f.prefix[m:]
    domains = tuple((pinned[m + d],) if m + d in pinned else states
                    for d, states in enumerate(state_domains(mdp, f)))
    chosen: Dict[str, SchedulerAssignment] = {}

    def walk(i: int):
        if i == m:  # reached once per scheduler combination
            evaluator.bind(build_composition(mdp, f, chosen))
            truth, picks = truth_eval(state_quants, domains, evaluator.holds)
            return truth, {m + depth: s for depth, s in picks.items()}
        q = f.prefix[i]
        for v in (pinned[i],) if i in pinned else enumerate_schedulers(mdp):
            chosen[q.name] = v
            truth, trace = walk(i + 1)
            if truth == q.exists:
                return truth, {i: v, **trace}
        return not q.exists, {}

    return walk(0)


def check(mdp: Mdp, f: Formula, max_sched_vars: int = 3, max_state_vars: int = 3) -> Verdict:
    """Evaluate a formula by enumerating schedulers and states (``decide``)."""
    validate_inputs(mdp, f, max_sched_vars, max_state_vars)
    return assemble_verdict(f, *decide(mdp, f))


def replay(mdp: Mdp, f: Formula, verdict: Verdict) -> bool:
    """Re-evaluate the formula with the verdict's instantiations pinned.

    Quantifiers named in the verdict are fixed to the recorded values;
    the remaining ones are evaluated per their kind.  A valid witness
    yields True, a valid counterexample False.
    """
    pinned = {}
    for i, q in enumerate(f.prefix):
        values = verdict.schedulers if isinstance(q, SchedQuant) else verdict.states
        if q.name in values:
            pinned[i] = values[q.name]
    return decide(mdp, f, pinned)[0]


def assemble_verdict(f: Formula, truth: bool, trace: Mapping[int, object]) -> Verdict:
    """The verdict of ``f`` from its truth and ``decide``'s values."""
    verdict = Verdict(truth=truth)
    if not f.prefix:
        return verdict
    lead = f.prefix[0].exists
    if truth and lead:
        verdict.mode = "witness"
    elif not truth and not lead:
        verdict.mode = "counterexample"
    else:
        return verdict
    for i, q in enumerate(f.prefix):
        if q.exists != lead or i not in trace:
            break
        values = verdict.schedulers if isinstance(q, SchedQuant) else verdict.states
        values[q.name] = trace[i]
    return verdict
