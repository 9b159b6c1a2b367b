"""Reference semantics: decide formulas by direct quantifier instantiation.

``decide`` is the one quantifier walk: scheduler quantifiers range over
the memoryless non-probabilistic assignments, and under each combination,
the tuple of assignments its components run under (``build_composition``),
``truth_eval`` walks the state quantifiers over their domains
(``state_domains``): all states, or, where the body's guards make every
other state unable to decide the quantifier, the states that carry them.
As the components move independently, each coupled ``P(X ...)``, and each
coupled reachability over closed targets, is first made the product of
its marginals (``factor_joint``).  The body is evaluated at the composed
tuples the state quantifiers visit, each path formula on the rows of only
the components it mentions, read from the MDP on first use (a pinned
assignment is checked where it enters ``decide``), each product of rows
built once per evaluator, and only at the states reachable from where it
is read.  A value or truth at a point depends only on the point's
signature: per component, the actions its assignment takes at the choice
states (two or more actions) that the MDP may reach from the point's
state (``choice_getters``).  That is the one reuse key, and ``Evaluator``
its one owner: a value is reused under every later combination with the
same signature, a point keeping at most 4·m^|K| (m scheduler quantifiers,
K the components the path mentions), and so is the body's truth per
composed tuple, K all n components.  Where swapping two scheduler
quantifiers, with their state variables, leaves the body the same up to
operand order (``swappable``), each unordered pair of their assignments is
tried once, as in symmetry reduction (Emerson & Sistla, FMSD 1996).
``check``, ``replay`` and ``smt.solve_eager`` (on the encoded formula) are
thin front ends to it, and it supports mixed scheduler prefixes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from typing import Collection, Dict, Mapping, Optional, Tuple

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
    Arith,
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
    check_well_formed,
    count_quantifiers,
    interned_key,
    state_var_index,
    subformula_supports,
    subformulas,
    substitute,
)
from .model import Dtmc, JointRows, Mdp, SchedulerAssignment, enumerate_schedulers, induce_dtmc
from .model import self_compose  # noqa: F401  bench/tracing.py hooks enumcheck.self_compose
from .record import Record


class Verdict(Record):
    """Truth value plus witness or counterexample instantiations.

    Values are recorded for the maximal leading same-kind quantifier
    chain: a true exists-led formula carries a witness, a false
    forall-led formula a counterexample.  ``mode`` is 'witness',
    'counterexample' or 'none'.
    """

    __slots__ = _fields = ("truth", "mode", "schedulers", "states")
    _defaults = {"mode": "none", "schedulers": {}, "states": {}}


def build_composition(f: Formula, chosen: Dict[str, SchedulerAssignment]) -> Tuple[SchedulerAssignment, ...]:
    """One scheduler combination of ``f``: the assignment that each
    component of the self-composition (one per state variable) runs under."""
    return tuple(chosen[q.sched] for q in f.prefix if isinstance(q, StateQuant))


def _is_equality(node) -> bool:
    """Whether ``node`` is ``!(a < b) & !(b < a)``: ``a = b``."""
    if not (isinstance(node, And) and isinstance(node.left, NotF) and isinstance(node.right, NotF)):
        return False
    left, right = node.left.operand, node.right.operand
    return (isinstance(left, Less) and isinstance(right, Less)
            and left.left == right.right and left.right == right.left)


def _walk(rows: Mapping, starts, stop: Mapping, reuse=None) -> list:
    """``starts`` and the points reachable from them without entering
    ``stop``, nor a point that ``reuse`` puts into ``stop``."""
    points, seen = list(starts), set(starts)
    for q in points:  # breadth first: the loop reaches what it appends
        for t, _ in rows[q]:
            if t not in seen and t not in stop:
                seen.add(t)
                if reuse is None or not reuse(t):
                    points.append(t)
    return points


def _actions(states: tuple, assignment: SchedulerAssignment) -> tuple:
    """``assignment``'s actions in the model's state order ``states``."""
    return assignment.actions if assignment.states == states else tuple(map(assignment.as_dict().get, states))


class _Lazy(dict):
    """A dict that fills a missing key ``k`` with ``fn(k)``."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _evict(row: dict, limit: int) -> None:
    """Drop ``row``'s oldest signature if it holds more than ``limit``."""
    if len(row) > limit:
        del row[next(iter(row))]


def choice_getters(mdp: Mdp) -> dict:
    """Per state s, the getter of s's signature: of an assignment's actions
    in model order, those at the choice states (two or more actions) that
    the MDP may reach from s under any actions.  One backward search per
    choice state, so O(|C|·|E|) for C the choice states: few wherever the
    2^|C| or more assignments can be enumerated."""
    preds = {s: [] for s in mdp.states}
    for (s, _), row in mdp.trans.items():
        for t, _ in row:
            preds[t].append(s)
    reach = {s: [] for s in mdp.states}  # state -> the positions of the choice states it may reach, ascending
    for i, c in enumerate(mdp.states):
        if len(mdp.enabled[c]) > 1:
            reach[c].append(i)
            frontier = [c]
            for t in frontier:  # the loop reaches what it appends
                for s in preds[t]:
                    if not reach[s] or reach[s][-1] != i:
                        reach[s].append(i)
                        frontier.append(s)
    made = {}  # one getter per set of positions; of none, the empty slice
    for positions in map(tuple, reach.values()):
        if positions not in made:
            made[positions] = operator.itemgetter(*positions or (slice(0),))
    return {s: made[tuple(positions)] for s, positions in reach.items()}


class Evaluator:
    """Evaluates a formula's body at composed tuples, one scheduler
    combination (``bind``) at a time.

    A path formula is solved on the rows of only the components its state
    variables map to, its support K: one component's, read from
    ``mdp.trans`` under its assignment's actions on first use, or
    ``model.JointRows`` over several, never the whole product, whose
    products ``joint`` keeps for life: at most R^|K|, R the model's rows.
    Its vector is filled lazily at K-local points: a read that misses at p
    solves the points reachable from p.  Until stops at points solved
    before, the solve's known boundary, so each point is solved once, and
    read in the body its first miss under a bind also solves from every
    point of K that the quantifier walk may read (``domains``).  Next reads
    p's row only; bounded until solves the whole chain on its first miss,
    since its windows at solved points do not cover the steps still to go
    (in steps that stop where they settle: ``analysis.bounded_until_probs``).

    Values are kept per path renamed to positions in K, up to the operand
    order of ``&``, ``+`` and ``*`` (``formula.interned_key``), so
    ``P(F a(x))`` and ``P(F a(y))`` under one scheduler share them.  A
    vector per assignments of K, keyed by their actions so equal
    assignments share it, holds what the bound combination reads, and
    stays while they stay bound, as K's rows do.  A value at p depends
    only on p's signature: per component, the actions its assignment takes
    at the choice states the MDP may reach (under any action) from p's
    state of that component (``choice_getters``); nested ``P(...)``
    operands have supports inside K and reach no further.  So each path
    also keeps a table, point -> {signature: value}: a read that misses its
    vector takes the value from there where the point's signature is held,
    and an until's walk stops at such points as at solved ones.  The values
    solved under one bind enter the table at the next, so an evaluator
    bound once signs nothing.  A point keeps at most 4·m^|K| signatures, m
    the number of scheduler quantifiers, dropping its oldest: memory set by
    the model and formula, which one combination, reading at most m^|K|
    assignments of K, cannot empty.  The body's truth at a composed tuple
    is kept likewise, in ``truths``, K all n components; a combination
    whose tuples all hit there reads no row and solves nothing.  The
    first bind builds no getters and keeps no truth, so a formula decided
    under its first combination pays nothing for reuse.
    """

    def __init__(self, mdp: Mdp, f: Formula, domains: Optional[tuple] = None, supports: Optional[dict] = None):
        self.mdp = mdp
        self.domains = domains  # per state variable, the states the quantifier walk reads
        self.var_index = state_var_index(f)
        self.supports = subformula_supports(f.body, self.var_index) if supports is None else supports
        self.assignments: Tuple[SchedulerAssignment, ...] = ()
        self.actions: Tuple[tuple, ...] = ()  # per component, its assignment's actions in model order
        self.vectors = {}  # (renamed path, actions of K) -> vector
        self.chains = {}  # actions of K -> K's rows
        self.keys = {}  # support K -> the actions of K under the bound combination, built on first use
        self.joint = {}  # identities of component rows (``mdp.trans``'s) -> their joint row, kept for life
        self._positions = {s: i for i, s in enumerate(mdp.states)}
        self.table = {}  # renamed path -> {point: {signature: value}}, oldest first
        self._keys = {}  # ``interned_key``'s table: a renamed path is its key through it
        self._solved = []  # (renamed path, actions of K, values, probed signatures) of this bind, signed next
        self.truths = {}  # composed tuple -> {signature: the body's truth}, oldest first
        self._schedulers = count_quantifiers(f)[0]
        self._getters = None  # ``choice_getters``, built at the second bind
        self._stamp = [0]  # counts binds; a reader refetches its vector when it moves
        self._fns = {}
        self._top = tuple(range(len(self.var_index)))
        self._body = self._compile(f.body, self._top)

    def bind(self, assignments: Tuple[SchedulerAssignment, ...]) -> None:
        """Evaluate under ``assignments`` (``build_composition``) from now on;
        drop the vectors and rows of assignments it does not bind (tested
        by the identity of their actions, so no assignment is compared by
        value), and sign the values solved under the previous bind into the
        table."""
        states = self.mdp.states
        self.assignments = assignments
        actions = self.actions = tuple(_actions(states, a) for a in assignments)
        self.keys = _Lazy(lambda support: tuple([actions[c] for c in support]))
        self._stamp[0] += 1
        if self._getters is None and self._stamp[0] > 1:
            self._getters = choice_getters(self.mdp)
        solved, self._solved = self._solved, []
        for entry in solved:  # the previous bind's values enter the table
            self._sign(*entry)
        bound = set(map(id, actions)).issuperset
        self.chains = {key: rows for key, rows in self.chains.items() if bound(map(id, key))}
        self.vectors = {key: vec for key, vec in self.vectors.items() if bound(map(id, key[1]))}

    def holds(self, at: tuple) -> bool:
        """The body at composed tuple ``at``, kept in ``truths`` from the second bind on."""
        getters = self._getters
        if getters is None:  # the first bind keeps no truth
            return self._body(at)
        row = self.truths.get(at)
        if row is None:
            row = self.truths[at] = {}
        signature = tuple([getters[s](actions) for s, actions in zip(at, self.actions)])
        truth = row.get(signature)
        if truth is None:
            truth = row[signature] = self._body(at)
            _evict(row, 4 * self._schedulers ** len(at))
        return truth

    def value(self, node, at: tuple):
        """A body or probability expression over the formula's state
        variables, at composed tuple ``at``."""
        return self.reader(node, self._top)(at)

    def reader(self, node, support: Tuple[int, ...]):
        """``node`` under the bound combination, as a function of the
        points of ``support``: tuples of states of those components.  It
        holds the evaluator weakly, so it is read while the evaluator lives."""
        if node not in self.supports:
            self.supports.update(subformula_supports(node, self.var_index))
        return self._compile(node, support)

    def _compile(self, node, frame):
        """``node`` as a function of tuples over the components ``frame``, or,
        for an int frame, of that component's bare states (faster to hash).
        One call per level of ``node``, which ``parse_formula`` bounds.

        ``!!φ`` is φ, and ``!(a < b) & !(b < a)``, which ``formula.cmp_eq``
        builds for ``=``, is ``a == b``: exact on ``Fraction``s, and each
        operand is read once, not twice."""
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
            if isinstance(node.operand, NotF):
                fn = self._compile(node.operand.operand, frame)
            else:
                inner = self._compile(node.operand, frame)
                fn = lambda t: not inner(t)
        elif isinstance(node, ProbOf):
            fn = self._reader(node, frame)
        elif _is_equality(node):
            left, right = self._compile(node.left.operand.left, frame), self._compile(node.left.operand.right, frame)
            fn = lambda t: left(t) == right(t)
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

    def renamed(self, node, support: Tuple[int, ...]) -> int:
        """``node``'s ``interned_key`` with each state variable read as its
        component's position in ``support``: equal for the same formula on
        different variables, which the same actions give the same values."""
        names = {v: support.index(i - 1) for v, i in self.var_index.items() if i - 1 in support}
        return interned_key(node, names, self._keys)

    def _reader(self, node: ProbOf, frame):
        support = self.supports[node]
        renamed = self.renamed(node.path, support)
        held = [None, None, True]  # stamp of the last bind, vector, whether no read under it missed
        seeds = ()  # the points of K that the quantifier walk may read here
        if self.domains is not None and frame is self._top and isinstance(node.path, Until):
            domains = [self.domains[c] for c in support]
            seeds = domains[0] if len(support) == 1 else tuple(itertools.product(*domains))
        # kept in ``_fns``, a reader that held the evaluator itself would form
        # a reference cycle, left to the cyclic garbage collector
        stamp, this = self._stamp, weakref.ref(self)

        def read(point):
            if held[0] != stamp[0]:
                ev = this()
                held[:] = stamp[0], ev.vectors.setdefault((renamed, ev.keys[support]), {}), True
            value = held[1].get(point)
            if value is None:  # the first miss under this bind solves from every seed
                this()._solve(node.path, support, renamed, held[1], point, seeds if held[2] else ())
                held[2] = False
                value = held[1][point]
            return value

        if isinstance(frame, int):  # the support is (frame,) or ()
            return read if support else (lambda s: read(()))
        pos = tuple(frame.index(c) for c in support)
        if len(pos) == 1:
            (p,) = pos
            return lambda t: read(t[p])
        return lambda t: read(tuple(t[p] for p in pos))

    def _signer(self, key: tuple):
        """A point's signature under ``key``, the actions of its support's
        assignments."""
        getters = self._getters
        if len(key) == 1:
            (actions,) = key
            return lambda p: getters[p](actions)
        return lambda p: tuple([getters[s](actions) for s, actions in zip(p, key)])

    def _sign(self, renamed, key: tuple, values: Mapping, signed: Mapping) -> None:
        """Enter ``values`` of the path ``renamed``, solved under ``key``, into
        its table, each point dropping its oldest signature when full; a
        point's signature is taken from ``signed`` where the solve's reuse
        probe computed it."""
        table, sign, limit = self.table.setdefault(renamed, {}), self._signer(key), 4 * self._schedulers ** len(key)
        for p, value in values.items():
            row, signature = table.setdefault(p, {}), signed[p] if p in signed else sign(p)
            if signature not in row:
                row[signature] = value
                _evict(row, limit)

    def _solve(self, path, support, renamed, vec: dict, point, seeds=()) -> None:
        """Add to ``vec`` the values of ``path`` at ``point``, at those of
        ``seeds`` that it lacks, and at the points their values depend on,
        taking from the table those whose signature it holds; the values
        solved are signed at the next bind, with the signatures it computed."""
        key = self.keys[support]
        table, reuse, signed = self.table.get(renamed), None, {}
        if table:
            sign = self._signer(key)

            def reuse(p) -> bool:
                row = table.get(p)
                value = row and row.get(signed.setdefault(p, sign(p)))
                if value is not None:
                    vec[p] = value
                return value is not None

        starts = [p for p in dict.fromkeys((point, *seeds)) if p not in vec and not (reuse and reuse(p))]
        if not starts:
            return
        rows = self.rows(support)
        frame = support[0] if len(support) == 1 else support
        if isinstance(path, Next):
            holds = self._compile(path.operand, frame)
            d = Dtmc((point,), rows, (), {})
            values = analysis.next_probs(d, {t: holds(t) for t, _ in rows[point]})
        else:
            if isinstance(path, Until):
                points = _walk(rows, starts, vec, reuse)
            else:  # windows at solved points do not cover the steps still to go
                states = self.mdp.states
                points = list(states if isinstance(frame, int) else itertools.product(states, repeat=len(frame)))
            fn1, fn2 = self._compile(path.left, frame), self._compile(path.right, frame)
            phi1, phi2 = {q: fn1(q) for q in points}, {q: fn2(q) for q in points}
            d = Dtmc(tuple(points), rows, (), {})
            if isinstance(path, Until):
                values = analysis.until_probs(d, phi1, phi2, vec)
            else:
                values = analysis.bounded_until_probs(d, phi1, phi2, path.k1, path.k2)
        vec.update(values)
        self._solved.append((renamed, key, values, signed))

    def rows(self, support: Tuple[int, ...]):
        """``support``'s rows under the bound combination, unchecked: an
        assignment that picks a disabled action raises ``KeyError``."""
        key = self.keys[support]
        rows = self.chains.get(key)
        if rows is None:
            if len(support) == 1:
                (actions,), trans, positions = key, self.mdp.trans, self._positions
                rows = _Lazy(lambda s: trans[s, actions[positions[s]]])
            else:
                rows = JointRows(tuple(self.rows((c,)) for c in support), self.joint)
            self.chains[key] = rows
        return rows


def validate_inputs(mdp: Mdp, f: Formula, max_sched_vars: int, max_state_vars: int) -> None:
    """Shared entry checks, from one walk of the body: well-formedness, quantifier caps, alphabet."""
    try:
        props = check_well_formed(f)
    except (UnboundStateVariable, UnboundSchedulerVariable, QuantifierOrderViolation) as exc:
        raise IllFormed(str(exc)) from exc
    m, n = count_quantifiers(f)
    if m > max_sched_vars:
        raise CapExceeded(f"{m} scheduler variables exceed the cap of {max_sched_vars}")
    if n > max_state_vars:
        raise CapExceeded(f"{n} state variables exceed the cap of {max_state_vars}")
    unknown = {node.name for node in props} - set(mdp.ap)
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


def _holds(node, labels) -> bool:
    """A Boolean combination of propositions at a state labelled ``labels``."""
    if isinstance(node, NotF):
        return not _holds(node.operand, labels)
    if isinstance(node, And):
        return _holds(node.left, labels) and _holds(node.right, labels)
    return isinstance(node, TrueF) or node.name in labels


def factor_joint(mdp: Mdp, f: Formula, supports: Mapping) -> Formula:
    """``f`` with each ``P(X φ)``, ``P(F φ)``, ``P(F<=k φ)``, ``P(F[k1,k2] φ)`` in
    ``supports`` whose φ conjoins Boolean combinations of propositions of two
    or more components made the product of one ``P(...)`` per component, in
    component order: the next step always, reachability where each one's
    states are closed, left by no action, so reaching all is reaching each.
    A marginal equal to a node of ``supports`` is that node (by identity)."""

    def closed(target) -> bool:
        inside = {s for s in mdp.states if _holds(target, mdp.labels[s])}
        return all(t in inside for s in inside for a in mdp.enabled[s] for t, _ in mdp.trans[s, a])

    rewrites, own = {}, None  # own: each node of ``supports`` by itself, once a node factors
    for node in [node for node, support in supports.items() if len(support) > 1 and isinstance(node, ProbOf)
                 and (isinstance(node.path, Next) or isinstance(node.path.left, TrueF))]:
        path, target = node.path, node.path.operand if isinstance(node.path, Next) else node.path.right
        groups, conjuncts = {}, [target]  # support of one component -> its conjuncts, in operand order
        while conjuncts:
            c = conjuncts.pop()
            if isinstance(c, And) and len(supports[c]) > 1:
                conjuncts += (c.right, c.left)
            else:
                groups[supports[c]] = And(groups[supports[c]], c) if supports[c] in groups else c
        kinds = {type(n) for g in groups.values() for n in subformulas(g)}
        if all(len(k) == 1 for k in groups) and kinds <= {TrueF, Prop, And, NotF} and (
                isinstance(path, Next) or all(map(closed, groups.values()))):
            if own is None:
                own = dict(zip(supports, supports))
            marginals = [ProbOf(type(path)(*[groups[k] if v is target else v for v in path._values]))
                         for k in sorted(groups)]
            rewrites[node] = functools.reduce(lambda a, b: Arith("*", a, b), [own.get(m, m) for m in marginals])
    return Formula(f.prefix, substitute(f.body, rewrites)) if rewrites else f


def truth_eval(state_quants, domains, holds, depth: int = 0, at: tuple = ()) -> Tuple[bool, dict]:
    """The state quantifiers from ``depth`` on over ``domains``, each left to
    right, below the states ``at`` chosen above, on the body's truth
    ``holds`` at composed tuples, short-circuiting on exists-success and
    forall-failure.

    Returns the truth and, keyed by depth, the states on the deciding branch.
    A plain recursive function: a nested one would form a reference cycle
    per call, left to the cyclic garbage collector.
    """
    if depth == len(state_quants):
        return holds(at), {}
    q = state_quants[depth]
    for s in domains[depth]:
        truth, picks = truth_eval(state_quants, domains, holds, depth + 1, at + (s,))
        if truth == q.exists:
            return truth, {depth: s, **picks}
    return not q.exists, {}


def swappable(f: Formula, pinned: Collection[int] = ()) -> frozenset:
    """The scheduler positions i such that swapping the quantifiers at i and
    i+1, with their state variables, leaves ``f``'s truth the same under
    every combination: the truth under (a, b) there is the truth under
    (b, a).

    That holds when neither of the two, nor a state variable of theirs, is
    ``pinned``; both are of one kind; each binds as many state variables,
    and the state quantifiers from the first of those to the last are of one
    kind, so the swap only reorders adjacent quantifiers of one kind; and
    the body with those variables swapped (paired in prefix order) equals
    the body up to the operand order of ``&``, ``+`` and ``*``
    (``formula.interned_key``).  Its guards are then the same for paired
    variables, and so are their ``state_domains``."""
    m, _ = count_quantifiers(f)
    binds: Dict[str, list] = {}  # scheduler name -> prefix positions of its state quantifiers
    for k in range(m, len(f.prefix)):
        binds.setdefault(f.prefix[k].sched, []).append(k)
    table, found, plain = {}, set(), None
    for i in range(m - 1):
        a, b = f.prefix[i:i + 2]
        xs, ys = binds.get(a.name, []), binds.get(b.name, [])
        bound = xs + ys
        span = f.prefix[min(bound):max(bound) + 1] if bound else ()
        if (a.exists != b.exists or len(xs) != len(ys) or any(k in pinned for k in (i, i + 1, *bound))
                or len({q.exists for q in span}) > 1):
            continue
        names = {}
        for x, y in zip(xs, ys):
            names[f.prefix[x].name], names[f.prefix[y].name] = f.prefix[y].name, f.prefix[x].name
        if plain is None:
            plain = interned_key(f.body, {}, table)
        if interned_key(f.body, names, table) == plain:
            found.add(i)
    return frozenset(found)


def decide(mdp: Mdp, f: Formula, pinned: Optional[Mapping[int, object]] = None) -> Tuple[bool, dict]:
    """The truth of ``f`` and the values on its deciding branch.

    Scheduler quantifiers take the assignments in lexicographic order,
    then, under each combination, ``truth_eval`` walks the state
    quantifiers over ``state_domains``.  The quantifier at prefix
    position i takes only ``pinned[i]`` if given.  Values are keyed by
    prefix position, so a scheduler and a state variable may share a name.

    The body is rewritten once (``factor_joint``, from the support table
    that the evaluator takes if nothing changed: a body with no coupled
    ``P(...)`` costs a scan of it).  The evaluator is bound to every
    combination tried; from the second on it reads the body's truth at a
    tuple from its table (``Evaluator.holds``), at most 4·m^n per tuple (m
    and n the scheduler and state quantifiers), so the first pays nothing.

    Where the quantifiers at i and i+1 are ``swappable``, the one at i+1
    starts at the assignment chosen at i, so a true ``forall s1. forall
    s2`` sweep over |S| assignments tries |S|(|S|+1)/2 combinations, not
    |S|².  A skipped combination (a, b), b before a, has the truth of its
    mirror (b, a), which comes before it.  The values found stay the same,
    so ``check``, ``smt.solve_eager`` and ``replay`` report the witnesses
    and counterexamples they would without the skip: a run of quantifiers
    of one kind takes the lexicographically first combination under which
    the rest decides, and in it a ≤ b at every swappable pair; were b
    before a, the mirror would decide too and come first.  Detection runs
    once, when an outer scheduler quantifier first moves past its first
    assignment: until then every loop starts at the first assignment
    anyway, so a formula decided under it pays nothing.
    """
    pinned = pinned or {}
    m, _ = count_quantifiers(f)
    for i in pinned.keys() & range(m):  # the evaluator reads rows unchecked: a disabled choice raises here
        induce_dtmc(mdp, pinned[i])
    state_quants = f.prefix[m:]
    domains = tuple((pinned[m + d],) if m + d in pinned else states
                    for d, states in enumerate(state_domains(mdp, f)))
    supports = subformula_supports(f.body, state_var_index(f))
    f, unfactored = factor_joint(mdp, f, supports), f
    evaluator = Evaluator(mdp, f, domains, supports if f is unfactored else None)
    chosen: Dict[str, SchedulerAssignment] = {}
    mirrored = None  # ``swappable`` positions, once an outer loop moves on

    def walk(i: int):
        nonlocal mirrored
        if i == m:  # reached once per scheduler combination
            evaluator.bind(build_composition(f, chosen))
            truth, picks = truth_eval(state_quants, domains, evaluator.holds)
            return truth, {m + depth: s for depth, s in picks.items()}
        q = f.prefix[i]
        if i in pinned:
            values = (pinned[i],)
        else:
            start = chosen[f.prefix[i - 1].name] if mirrored and i - 1 in mirrored else None
            values = enumerate_schedulers(mdp, start)
        for n, v in enumerate(values):
            if n == 1 and mirrored is None and i < m - 1:
                mirrored = swappable(f, pinned)
            chosen[q.name] = v
            truth, trace = walk(i + 1)
            if truth == q.exists:
                return truth, {i: v, **trace}
        return not q.exists, {}

    try:
        return walk(0)
    finally:
        del walk  # empties the cell through which walk calls itself: no reference cycle


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
