"""Reference semantics: check formulas by direct quantifier instantiation.

Scheduler quantifiers range over the memoryless non-probabilistic
assignments, state quantifiers over all states; the quantifier-free body
is evaluated at the composed tuples the state quantifiers visit, each path
formula on the chains of only the components it mentions.
Serves as the oracle for the constraint-encoding engine and as a
standalone checker.  Mixed scheduler prefixes are supported here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

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


@dataclass
class Verdict:
    """Truth value plus witness or counterexample instantiations.

    Values are recorded for the maximal leading same-kind quantifier
    chain: a true exists-led formula carries a witness, a false
    forall-led formula a counterexample.
    """

    truth: bool
    mode: str = "none"  # 'witness' | 'counterexample' | 'none'
    schedulers: Dict[str, SchedulerAssignment] = field(default_factory=dict)
    states: Dict[str, str] = field(default_factory=dict)


def _unit_composition() -> Dtmc:
    # zero components: a single anonymous state with a self-loop
    unit = ()
    return Dtmc(states=(unit,), trans={unit: ((unit, Fraction(1)),)}, ap=(), labels={unit: frozenset()})


@dataclass(frozen=True)
class Composition:
    """One scheduler combination of a formula: the assignment that each
    component of the self-composition (one per state variable) runs under."""

    mdp: Mdp
    assignments: Tuple[SchedulerAssignment, ...]

    def full(self) -> Dtmc:
        """The whole n-fold self-composition; components that run under one
        assignment share its induced chain."""
        if not self.assignments:
            return _unit_composition()
        induced = {a: induce_dtmc(self.mdp, a) for a in dict.fromkeys(self.assignments)}
        return self_compose([induced[a] for a in self.assignments])


def build_composition(mdp: Mdp, f: Formula, chosen: Dict[str, SchedulerAssignment]) -> Composition:
    """Bind each state variable's component to its scheduler's assignment."""
    return Composition(mdp, tuple(chosen[q.sched] for q in f.prefix if isinstance(q, StateQuant)))


class Evaluator:
    """Evaluates a formula's body at composed tuples, one scheduler
    combination (``bind``) at a time.

    A path formula is solved on the composition of only the components its
    state variables map to, its support K: for one component that is the
    induced chain itself.  Its operands are evaluated on K-local tuples, and
    its value at a composed tuple is read at the tuple's projection onto K.
    Chains and vectors are cached by the assignments of K's components and
    by the path formula with its variables renamed to positions in K, so
    ``P(F a(x))`` and ``P(F a(y))`` under one scheduler share a solve, and a
    vector survives every combination that keeps its assignments.  The
    cache keeps only entries whose assignments are bound.
    """

    def __init__(self, mdp: Mdp, f: Formula):
        self.mdp = mdp
        self.var_index = state_var_index(f)
        self.supports = subformula_supports(f.body, self.var_index)
        self.assignments: Tuple[SchedulerAssignment, ...] = ()
        self.cache = {}  # (assignments of K, renamed path, or None for K's chain) -> vector or chain
        self._stamp = 0  # counts binds; a reader refetches its vector when it moves
        self._fns = {}
        self._top = tuple(range(len(self.var_index)))
        self._body = self._compile(f.body, self._top)

    def bind(self, composition: Composition) -> None:
        """Evaluate under ``composition`` from now on; drop cache entries
        whose assignments it does not bind."""
        bound = self.assignments = composition.assignments
        self._stamp += 1
        self.cache = {key: v for key, v in self.cache.items() if all(a in bound for a in key[0])}

    def holds(self, at: tuple) -> bool:
        """The body at composed tuple ``at``."""
        return self._body(at)

    def value(self, node, at: tuple):
        """A body or probability expression over the formula's state
        variables, at composed tuple ``at``."""
        self.supports.update(subformula_supports(node, self.var_index))
        return self._compile(node, self._top)(at)

    def _compile(self, node, frame: Tuple[int, ...]):
        """``node`` as a function of tuples over the components ``frame``."""
        fn = self._fns.get((node, frame))
        if fn is None:
            fn = self._fns[node, frame] = self._build(node, frame)
        return fn

    def _build(self, node, frame):
        if isinstance(node, (TrueF, Const)):
            value = True if isinstance(node, TrueF) else node.value
            return lambda t: value
        if isinstance(node, Prop):
            name, labels = node.name, self.mdp.labels
            pos = frame.index(self.var_index[node.var] - 1)
            return lambda t: name in labels[t[pos]]
        if isinstance(node, NotF):
            inner = self._compile(node.operand, frame)
            return lambda t: not inner(t)
        if isinstance(node, ProbOf):
            return self._reader(node, frame)
        left, right = self._compile(node.left, frame), self._compile(node.right, frame)
        if isinstance(node, And):
            return lambda t: left(t) and right(t)
        if isinstance(node, Less):
            return lambda t: left(t) < right(t)
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[node.op]
        return lambda t: op(left(t), right(t))

    def _reader(self, node: ProbOf, frame):
        support = self.supports[node]
        pos = tuple(frame.index(c) for c in support)
        names = {v: support.index(i - 1) for v, i in self.var_index.items() if i - 1 in support}
        renamed = rename_vars(node.path, names)
        held = [None, None]  # (stamp, vector) of the last bind

        def vector():
            if held[0] != self._stamp:
                key = (tuple(self.assignments[c] for c in support), renamed)
                vec = self.cache.get(key)
                if vec is None:
                    vec = self.cache[key] = self._solve(node.path, support)
                held[0], held[1] = self._stamp, vec
            return held[1]

        if len(pos) == 1:
            (p,) = pos
            return lambda t: vector()[t[p]]
        return lambda t: vector()[tuple(t[p] for p in pos)]

    def _solve(self, path, support):
        d = self.chain(support)
        points = [(s,) for s in d.states] if len(support) == 1 else d.states

        def pred(body):
            fn = self._compile(body, support)
            return {s: fn(p) for s, p in zip(d.states, points)}

        if isinstance(path, Next):
            return analysis.next_probs(d, pred(path.operand))
        if isinstance(path, Until):
            return analysis.until_probs(d, pred(path.left), pred(path.right))
        return analysis.bounded_until_probs(d, pred(path.left), pred(path.right), path.k1, path.k2)

    def chain(self, support: Tuple[int, ...]) -> Dtmc:
        """The composition of ``support``'s induced chains under the bound
        combination: one component's chain itself, none the unit chain."""
        key = (tuple(self.assignments[c] for c in support), None)
        d = self.cache.get(key)
        if d is None:
            if not support:
                d = _unit_composition()
            elif len(support) == 1:
                d = induce_dtmc(self.mdp, key[0][0])
            else:
                d = self_compose([self.chain((c,)) for c in support])
            self.cache[key] = d
        return d


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


def check(
    mdp: Mdp,
    f: Formula,
    max_sched_vars: int = 3,
    max_state_vars: int = 3,
) -> Verdict:
    """Evaluate a formula by enumerating schedulers and states.

    Schedulers are tried outermost in lexicographic order, then state
    quantifiers left to right, short-circuiting on exists-success and
    forall-failure.
    """
    validate_inputs(mdp, f, max_sched_vars, max_state_vars)

    sched_quants = [q for q in f.prefix if isinstance(q, SchedQuant)]
    state_quants = [q for q in f.prefix if isinstance(q, StateQuant)]
    evaluator = Evaluator(mdp, f)

    def eval_states(idx: int, partial: tuple):
        if idx == len(state_quants):
            return evaluator.holds(partial), {}
        q = state_quants[idx]
        for s in mdp.states:
            truth, trace = eval_states(idx + 1, partial + (s,))
            if q.exists and truth:
                return True, {q.name: s, **trace}
            if not q.exists and not truth:
                return False, {q.name: s, **trace}
        return (not q.exists), {}

    def eval_scheds(idx: int, chosen: Dict[str, SchedulerAssignment]):
        if idx == len(sched_quants):
            evaluator.bind(build_composition(mdp, f, chosen))
            return eval_states(0, ())
        q = sched_quants[idx]
        for assignment in enumerate_schedulers(mdp):
            truth, trace = eval_scheds(idx + 1, {**chosen, q.name: assignment})
            if q.exists and truth:
                return True, {q.name: assignment, **trace}
            if not q.exists and not truth:
                return False, {q.name: assignment, **trace}
        return (not q.exists), {}

    truth, trace = eval_scheds(0, {})
    return assemble_verdict(f, truth, trace)


def replay(mdp: Mdp, f: Formula, verdict: Verdict) -> bool:
    """Re-evaluate the formula with the verdict's instantiations pinned.

    Quantifiers named in the verdict are fixed to the recorded values;
    the remaining ones are evaluated per their kind.  A valid witness
    yields True, a valid counterexample False.
    """
    sched_quants = [q for q in f.prefix if isinstance(q, SchedQuant)]
    state_quants = [q for q in f.prefix if isinstance(q, StateQuant)]
    evaluator = Evaluator(mdp, f)

    def eval_states(idx: int, partial: tuple) -> bool:
        if idx == len(state_quants):
            return evaluator.holds(partial)
        q = state_quants[idx]
        if q.name in verdict.states:
            return eval_states(idx + 1, partial + (verdict.states[q.name],))
        results = (eval_states(idx + 1, partial + (s,)) for s in mdp.states)
        return any(results) if q.exists else all(results)

    def eval_scheds(idx: int, chosen: dict) -> bool:
        if idx == len(sched_quants):
            evaluator.bind(build_composition(mdp, f, chosen))
            return eval_states(0, ())
        q = sched_quants[idx]
        if q.name in verdict.schedulers:
            return eval_scheds(idx + 1, {**chosen, q.name: verdict.schedulers[q.name]})
        results = (
            eval_scheds(idx + 1, {**chosen, q.name: a}) for a in enumerate_schedulers(mdp)
        )
        return any(results) if q.exists else all(results)

    return eval_scheds(0, {})


def assemble_verdict(f: Formula, truth: bool, trace: dict) -> Verdict:
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
    for q in f.prefix:
        if q.exists != lead or q.name not in trace:
            break
        if isinstance(q, SchedQuant):
            verdict.schedulers[q.name] = trace[q.name]
        else:
            verdict.states[q.name] = trace[q.name]
    return verdict
