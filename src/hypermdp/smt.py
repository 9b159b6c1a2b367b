"""Constraint encoding of formulas and the eager internal decision procedure.

The encoding builds, per subformula, Boolean truth variables, real
probability variables, pseudo-Boolean step indicators and ordering-only
distance variables; scheduler choices become enumerated variables guarded
into the probability equations.  Each subformula is encoded over the
states of the components it mentions (its support), not over every
composed state, since the components of a self-composition move
independently.  The truth term nests its disjunctions and conjunctions
over the state quantifiers' domains (``enumcheck.state_domains``), and
``decode_witness`` walks the solver's model there.  The plan
(``plan_encoding``) numbers every subformula once (``EncodingMeta.index``,
its one node-keyed map), with every reduced-bound window of a bounded
until (``encoding_supports``: only this encoding has windows, each built
once), resolves each one's operand reads (``formula.operands`` above the
``P``s) into positions once (``resolve_operands``, kept as
``EncodingMeta.reads``: the one operand relation, which every table, the
encoder and ``full_assignment`` read), and fixes three tables, each kept
per position, before any constraint:

- ``point_table``: where a rule may read each subformula.  A node read at
  successors (an until, the operand of a ``P(X ...)``, an inner window)
  and what it reads take each tuple reachable from the domains, projected
  onto the support; the Boolean and arithmetic layer above the ``P``s,
  with the ``P``s it reads directly, only the truth term's tuples.
- ``fixed_table``: the values there that no scheduler can change:
  propositions and constants, the Prob0 and target points of an until on
  the "may" graph (``analysis.step_distances``), the windows too far from
  a target, the next probabilities that every successor agrees on, and
  the Boolean and arithmetic nodes these decide.
- ``encoded_points``: the points that are not fixed and that a rule
  reads from the truth term's open tuples down.

The encoder makes one pass over the subformula table, with one rule per
node kind (an until and a bounded until's windows share the reachability
rule) and no recursion, declares variables only at the encoded points
and folds the fixed values into the terms and linear sums that read them.
A universal scheduler block is encoded as the existential
encoding of the negated body with flipped state quantifiers and the final
verdict inverted.

Solving is eager: under a fixed scheduler-choice assignment the guarded
equations collapse to the exact linear systems of the analysis module, so
``solve_eager`` hands the encoded formula to the quantifier walk
``enumcheck.decide``, which enumerates the assignments in lexicographic
order and solves those systems per support; its deciding branch is the
witness or counterexample.  The encoding itself is built only for SMT-LIB
export, the external solver (whose model ``decode_witness`` reads) and
the ``full_assignment`` oracle, which reads the exact value of each
declared variable from one ``enumcheck.Evaluator`` on its subformula's
support: no path here builds the whole n-fold product.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from . import analysis
from .constraints import (
    AndT,
    BoolRef,
    ChoiceIs,
    Cmp,
    ConstraintSystem,
    Lin,
    MulEq,
    NotT,
    OrT,
    Term,
    XorT,
    choice_sym,
    const,
    eq,
    lin_add,
    t_and,
    t_implies,
    t_not,
    t_or,
    var,
)
from .enumcheck import (Evaluator, Verdict, assemble_verdict, build_composition, decide, state_domains, truth_eval,
                        validate_inputs)
from .errors import IncompleteModel, MixedSchedulerBlock
from .formula import (
    ARITH_OPS,
    BODY_KINDS,
    And,
    Arith,
    BoundedUntil,
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
    format_node,
    operands,
    state_var_index,
    subformula_supports,
)
from .model import Dtmc, JointRows, Mdp, SchedulerAssignment, joint_row
from .model import enumerate_schedulers  # noqa: F401  bench/tracing.py hooks smt.enumerate_schedulers
from .record import Record

ZERO = Fraction(0)
ONE = Fraction(1)

Support = Tuple[int, ...]  # sorted 0-based composition components


# -- formula-level transformation (main algorithm) ------------------------------


def transform_for_encoding(f: Formula) -> Tuple[Formula, str]:
    """A universal scheduler block encodes the negation with flipped state
    quantifiers; a block that mixes exists and forall raises."""
    kinds = {q.exists for q in f.prefix if isinstance(q, SchedQuant)}
    if len(kinds) > 1:
        raise MixedSchedulerBlock("scheduler quantifiers mix exists and forall; use the enum engine")
    if kinds != {False}:
        return f, "direct"
    prefix = tuple(SchedQuant(True, q.name) if isinstance(q, SchedQuant)
                   else StateQuant(not q.exists, q.name, q.sched) for q in f.prefix)
    return Formula(prefix=prefix, body=NotF(f.body)), "negated"


class EncodingMeta(Record):
    """Everything needed to decode a model back into a verdict.  ``index``
    numbers the subformulas and is the one node-keyed map; every other
    table is per position."""

    __slots__ = _fields = ("polarity", "original", "encoded", "sched_names", "state_quants", "domains",
                           "fam_of_component", "index", "states", "tuples", "supports", "fixed", "points",
                           "reads")
    polarity: str
    original: Formula
    encoded: Formula
    sched_names: Tuple[str, ...]
    state_quants: Tuple[StateQuant, ...]
    domains: Tuple[Tuple[str, ...], ...]  # per state quantifier, from ``state_domains``
    fam_of_component: Tuple[int, ...]
    index: Dict[object, int]  # the plan's numbering: subformula -> position, in position order
    states: Tuple[str, ...]
    tuples: Tuple[Tuple[str, ...], ...]
    supports: Tuple[Support, ...]  # per position, the body first, as are the three tables below
    fixed: List[Dict[tuple, object]]
    points: List[Tuple[tuple, ...]]
    reads: List[tuple]


def may_successors(mdp: Mdp) -> Dict[str, Tuple[str, ...]]:
    """Each state's successors under any of its actions."""
    return {s: tuple(sorted({t for a in mdp.enabled[s] for t, _ in mdp.trans[(s, a)]})) for s in mdp.states}


def reachable_tuples(states, succ, n: int, starts) -> Tuple[Tuple[str, ...], ...]:
    """Composed states reachable from ``starts`` under any action tuple,
    given each state's successors ``succ`` (``may_successors``)."""
    # per-component successor union is exact for product reachability
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        r = frontier.pop()
        for nxt in itertools.product(*(succ[s] for s in r)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(r for r in itertools.product(states, repeat=n) if r in seen)


def projector(positions):
    """``p -> tuple(p[i] for i in positions)`` on a tuple ``p``, in C: an
    ``operator.itemgetter``, of a one-item slice for one position, since
    an item alone would come back bare."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return operator.itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def projected_domain(tuples, support: Support) -> Tuple[tuple, ...]:
    """The projection of ``tuples`` onto ``support``, deduplicated in tuple
    order.  A projection of a successor-closed set is closed under
    successors again, since the other components always move."""
    return tuple(dict.fromkeys(map(projector(support), tuples)))


def reduced_windows(node: ProbOf):
    """The reduced-bound windows below a bounded until ``[k1,k2]``, which
    its encoding steps through, outermost first:
    ``[max(k1-1,0), k2-1]``, ..., ``[0,0]``."""
    path = node.path
    k1, k2 = path.k1, path.k2
    while k2 > 0:
        k1, k2 = max(k1 - 1, 0), k2 - 1
        yield ProbOf(BoundedUntil(path.left, path.right, k1, k2))


def window(path) -> Tuple[int, float]:
    """A bounded until's ``(k1, k2)``; an until is the window [0, inf]."""
    return (path.k1, path.k2) if isinstance(path, BoundedUntil) else (0, math.inf)


def encoding_supports(body, var_index: Dict[str, int]) -> Dict[object, Support]:
    """The encoder's subformula table: ``formula.subformula_supports``, with
    each bounded until's ``reduced_windows`` right after it, on its
    support, up to the first one already listed.  A subformula's position
    is its index in the encoding; the windows built here are the only ones
    an encoding builds."""
    table = {}
    for node, support in subformula_supports(body, var_index).items():
        table[node] = support  # a window listed already keeps its place
        if isinstance(node, ProbOf) and isinstance(node.path, BoundedUntil):
            for window in reduced_windows(node):
                if window in table:
                    break  # and so are the windows below it
                table[window] = support
    return table


def fixed_table(mdp: Mdp, succ, nodes, supports, reads, tuples, points) -> List[Dict[tuple, object]]:
    """Each subformula's values that no scheduler choice can change, at its
    ``points`` (``point_table``): a truth value, or an exact probability or
    arithmetic value.  Every table is per position, and a node reads its
    operands through its ``reads`` entries (``resolve_operands``), as the
    encoder does.

    The graph is the "may" graph on the points of a support that
    ``tuples`` reach: a point's successors are the union over all of its
    action tuples, from each state's ``succ``.  Propositions, ``true`` and
    constants are fixed everywhere, and Boolean and arithmetic nodes
    wherever their operands fix them (a conjunction by one false operand, a
    product by one zero factor).  A path formula is fixed where its
    operands' fixed values decide it under every scheduler, an operand
    counting as possibly true wherever it is not fixed to false:

    - ``P(X φ)`` is 0 where no successor may satisfy φ, and 1 where every
      successor is fixed to satisfy it;
    - an unbounded until is 1 where its target is fixed true, and 0 on the
      Prob0 set of the may graph: where no step distance to a target
      through phi1 exists (one ``analysis.step_distances`` search per
      support and pair of operands, shared with the bounded untils on
      them);
    - a bounded-until window ``[0,0]`` is its target's fixed value, and a
      wider ``[k1', k2']`` is 1 where its target is fixed true and
      ``k1' = 0``, and 0 where the fewest steps to a target through phi1
      exceed ``k2'`` or where phi1 is fixed false and ``k1' > 0``.

    Nothing else is fixed to 1 (no Prob1 over the may graph).  Nodes go by
    ``Node.height``: operands are lower, and a window reads only its path's.
    """
    domain = functools.cache(lambda support: projected_domain(tuples, support))

    @functools.cache
    def graph(support: Support) -> Dtmc:
        trans = {p: tuple((t, 1) for t in itertools.product(*(succ[s] for s in p))) for p in domain(support)}
        return Dtmc(states=domain(support), trans=trans, ap=(), labels={})

    def reader(ref):
        """An entry's operand's fixed value (None where it is not fixed) at a point of the reader's support."""
        table, get = fixed[ref[0]], ref[2]
        return lambda p: table.get(get(p))

    @functools.cache
    def distances(left, right, support: Support) -> dict:
        source, target = reader(left), reader(right)
        return analysis.step_distances(graph(support), {p: source(p) is not False for p in domain(support)},
                                       {p: target(p) is not False for p in domain(support)})

    fixed: List[Dict[tuple, object]] = [None] * len(nodes)
    for i in sorted(range(len(nodes)), key=[node.height for node in nodes].__getitem__):  # operands first
        node, support, at, refs = nodes[i], supports[i], points[i], reads[i]
        values = {}
        if isinstance(node, TrueF):
            values = dict.fromkeys(at, True)
        elif isinstance(node, Prop):
            values = {p: node.name in mdp.labels[p[0]] for p in at}
        elif isinstance(node, Const):
            values = dict.fromkeys(at, node.value)
        elif isinstance(node, NotF):
            operand = reader(refs[0])
            values = {p: not v for p in at if (v := operand(p)) is not None}
        elif isinstance(node, (And, Less, Arith)):
            left, right = reader(refs[0]), reader(refs[1])
            if isinstance(node, And):
                op, absorbing = operator.and_, False  # one false conjunct decides
            elif isinstance(node, Less):
                op, absorbing = operator.lt, None
            else:
                op, absorbing = ARITH_OPS[node.op], ZERO if node.op == "*" else None  # so does a zero factor
            for p in at:
                pair = left(p), right(p)
                if None not in pair:
                    values[p] = op(*pair)
                elif absorbing is not None and absorbing in pair:
                    values[p] = absorbing
        elif isinstance(node.path, Next):
            operand, trans = reader(refs[0]), graph(support).trans
            for p in at:
                after = {operand(t) for t, _ in trans[p]}
                if after == {False} or after == {True}:
                    values[p] = ONE if True in after else ZERO
        elif isinstance(node.path, BoundedUntil) and node.path.k2 == 0:  # reads its target alone
            target = reader(refs[0])
            values = {p: ONE if v else ZERO for p in at if (v := target(p)) is not None}
        else:
            k1, k2 = window(node.path)
            source, target, dist = reader(refs[0]), reader(refs[1]), distances(*refs[:2], support)
            for p in at:
                if k1 == 0 and target(p):
                    values[p] = ONE
                elif p not in dist or dist[p] > k2 or (k1 and source(p) is False):
                    values[p] = ZERO
        fixed[i] = values
    return fixed


def read_operands(node, windows) -> tuple:
    """``(operand, read at successors)`` for each node whose variables
    ``node``'s encoding rule reads: a node other than a ``P(...)`` its
    ``formula.operands``, an unbounded until its target at the point and at
    its successors, and itself at the successors, a bounded until its next
    window down, which ``windows`` holds by its ``(left, right, k1, k2)``,
    and a ``[0,0]`` window only its target.  ``resolve_operands`` calls
    this once per node of a plan, so that the windows ``encoding_supports``
    built are the only ones."""
    if not isinstance(node, ProbOf):
        return tuple((o, False) for o in operands(node))
    path = node.path
    if isinstance(path, Next):
        return ((path.operand, True),)
    if isinstance(path, Until):
        return (path.left, False), (path.right, False), (path.right, True), (node, True)
    if path.k2 == 0:
        return ((path.right, False),)
    below = windows[path.left, path.right, max(path.k1 - 1, 0), path.k2 - 1]
    return (path.left, False), (path.right, False), (below, True)


def resolve_operands(index: Dict[object, int], supports) -> List[tuple]:
    """Per position of the plan's numbering ``index``, its node's
    ``read_operands`` as entries ``(operand position, read at successors,
    projector from the node's support onto the operand's)``: the plan's one
    operand relation, which every table, the encoder and ``full_assignment``
    read.  An operand is looked up in ``index``, which also finds an equal
    copy that desugaring left; after this no node is hashed, compared or
    built again."""
    windows = {(node.path.left, node.path.right, node.path.k1, node.path.k2): node for node in index
               if isinstance(node, ProbOf) and isinstance(node.path, BoundedUntil)}
    onto = functools.cache(lambda outer, inner: projector([outer.index(c) for c in inner]))
    reads = []
    for i, node in enumerate(index):
        entries = [(index[operand], at_successors) for operand, at_successors in read_operands(node, windows)]
        reads.append(tuple((j, at_successors, onto(supports[i], supports[j])) for j, at_successors in entries))
    return reads


def point_table(supports, reads, tuples, truth_tuples) -> List[Tuple[tuple, ...]]:
    """Each position's points before folding: where a rule may read it.

    A node read at successors, and every node it reads, keeps the
    projection of the reachable ``tuples`` (closed under successors): the
    operand of a ``P(X ...)``, an unbounded until and a bounded until's
    inner windows.  The other nodes, the Boolean and arithmetic layer with
    the ``P``s it reads directly, are read only at the truth term's
    ``truth_tuples`` and keep that projection.  A node no rule reads
    (``reads``, from ``resolve_operands``) gets no points; the body is
    position 0.
    """
    everywhere = {}  # position -> read (transitively) at successors
    stack = [(0, False)]
    while stack:
        i, below = stack.pop()
        if i not in everywhere or below > everywhere[i]:  # revisit only to move it everywhere
            everywhere[i] = below
            stack.extend((j, below or at_successors) for j, at_successors, _ in reads[i])
    onto = functools.cache(lambda below, s: projected_domain(tuples if below else truth_tuples, s))
    return [onto(everywhere[i], s) if i in everywhere else () for i, s in enumerate(supports)]


def encoded_points(succ, reads, points, fixed) -> List[Tuple[tuple, ...]]:
    """Each position's points where the encoding declares and constrains
    it: the body's ``points`` that ``fixed`` leaves open, and every open
    point that a rule reads (``reads``) from an encoded point, in
    ``points`` order.  A point where the reader is fixed reads nothing."""
    after = functools.cache(lambda p: tuple(itertools.product(*(succ[s] for s in p))))
    needed = [set() for _ in reads]
    # each entry holds its operand's tables by reference, beside its position
    links = [tuple((fixed[j], needed[j], j, at_successors, get) for j, at_successors, get in entries)
             for entries in reads]
    stack = [(0, p) for p in points[0] if p not in fixed[0]]
    while stack:
        i, p = stack.pop()
        if p in needed[i]:
            continue
        needed[i].add(p)
        for operand_fixed, operand_needed, j, at_successors, get in links[i]:
            for t in after(p) if at_successors else (p,):
                q = get(t)
                if q not in operand_fixed and q not in operand_needed:
                    stack.append((j, q))
    return [tuple(p for p in pts if p in need) for pts, need in zip(points, needed)]


def plan_encoding(mdp: Mdp, f: Formula) -> EncodingMeta:
    """What the encoding fixes before any constraint: polarity, scheduler
    families, the state quantifiers' domains, the composed tuples reachable
    from them, every subformula's support, with the reduced-bound windows
    that only the encoding has (``encoding_supports``), each built once,
    its values that no scheduler changes and the points where it is
    encoded (``encoded_points``).  The subformulas are numbered once, in
    ``EncodingMeta.index``, the plan's one node-keyed map; every other
    table is kept per position, as it is computed, beside each position's
    ``resolve_operands`` entries (``EncodingMeta.reads``)."""
    f_enc, polarity = transform_for_encoding(f)
    sched_names = tuple(q.name for q in f_enc.prefix if isinstance(q, SchedQuant))
    state_quants = tuple(q for q in f_enc.prefix if isinstance(q, StateQuant))
    domains = state_domains(mdp, f_enc)
    truth_tuples = tuple(itertools.product(*domains))
    succ = may_successors(mdp)
    tuples = reachable_tuples(mdp.states, succ, len(state_quants), truth_tuples)
    table = encoding_supports(f_enc.body, state_var_index(f_enc))
    index = dict(zip(table, itertools.count()))
    supports = tuple(table.values())
    reads = resolve_operands(index, supports)
    points = point_table(supports, reads, tuples, truth_tuples)
    fixed = fixed_table(mdp, succ, tuple(table), supports, reads, tuples, points)
    return EncodingMeta(
        polarity=polarity,
        original=f,
        encoded=f_enc,
        sched_names=sched_names,
        state_quants=state_quants,
        domains=domains,
        fam_of_component=tuple(sched_names.index(q.sched) for q in state_quants),
        index=index,
        states=mdp.states,
        tuples=tuples,
        supports=supports,
        fixed=fixed,
        points=encoded_points(succ, reads, points, fixed),
        reads=reads,
    )


# -- variable naming shared by encoder, eager solver and decoder -------------------


def symbol(kind: str, point: tuple, idx: int) -> str:
    """``<kind>_<s1.s2...>_<idx>``: subformula ``idx``'s variable at a point of
    its domain.  An index fixes its support, so names cannot collide."""
    return f"{kind}_{'.'.join(point)}_{idx}"


holds_sym = functools.partial(symbol, "h")
prob_sym = functools.partial(symbol, "pr")
toint_sym = functools.partial(symbol, "ti")
dist_sym = functools.partial(symbol, "d")  # indexed by the until node


# -- encoder (semantics, until, bounded until, truth) ----------------------------


class Encoder:
    """Declares and constrains each subformula once per point of its domain.

    ``encode`` walks the plan's subformula table once, by position, from
    the last, so each subformula comes after its operands; the table
    already lists every reduced-bound window of a bounded until, each built
    once.  Each node kind has one rule, an until and every window the one
    reachability rule ``encode_reach``, which constrains the node at every
    point of its domain and reads its operands by name, so the order of the
    nodes does not change what the system means.

    A point is a tuple of states of the subformula's support components;
    a node is constrained at its points in ``meta.points``.  Guards,
    action tuples and joint successors range over the support components
    only, and an operand is read at the point's projection onto the
    operand's support: as its variable, or as the constant that
    ``meta.fixed`` gives there.  Every table is per position, and a rule
    reads its operands through the plan's entries (``meta.reads``), never
    by node.  Constants fold into the terms and linear sums that read them
    (``constraints.t_and`` and the others).
    """

    def __init__(self, mdp: Mdp, meta: EncodingMeta):
        self.mdp = mdp
        self.meta = meta
        self.cs = ConstraintSystem()
        self.step_table: Dict[tuple, list] = {}
        self.nodes, self.fixed = tuple(meta.index), meta.fixed  # by position; ``read`` hits the fixed table most
        # one line per subformula over its operands' indices: the header grows linearly
        index = lambda operand: f"[{meta.index[operand]}]"
        self.cs.subformula_text = [format_node(node, index) for node in self.nodes]

    # naming ---------------------------------------------------------------

    def read(self, kind: str, ref, p):
        """``ref``'s ``kind`` variable at (the projection of) point ``p``, or
        its fixed value there; a ref is a plan entry (``resolve_operands``)."""
        idx, _, get = ref
        point = get(p)
        value = self.fixed[idx].get(point)
        return symbol(kind, point, idx) if value is None else value

    def holds(self, ref, p) -> Term:
        value = self.read("h", ref, p)
        return BoolRef(value) if isinstance(value, str) else value

    def value(self, ref, p) -> Lin:
        value = self.read("pr", ref, p)
        return var(value) if isinstance(value, str) else const(value)

    def declare(self, kind: str, idx: int, p, var_kind: str) -> str:
        return self.cs.declare(symbol(kind, p, idx), var_kind)

    # steps ------------------------------------------------------------------

    def steps(self, support: Support, p) -> list:
        """(guard, joint successors: the ``model.joint_row`` of its rows) per
        action tuple at point ``p`` of ``support``, built once and read by
        every path rule there."""
        table = self.step_table.get((support, p))
        if table is None:
            table = self.step_table[(support, p)] = []
            for alpha in itertools.product(*(self.mdp.enabled[s] for s in p)):
                guard = tuple(dict.fromkeys(
                    ChoiceIs(self.meta.fam_of_component[c], s, a) for c, s, a in zip(support, p, alpha)))
                table.append((guard, joint_row([self.mdp.trans[(s, a)] for s, a in zip(p, alpha)])))
        return table

    def expectation(self, kind: str, ref, succs) -> Lin:
        """The expected value of ``ref``'s ``kind`` variable one step on,
        over the joint successors ``succs``; fixed values fold into the
        constant, and the zero terms drop out."""
        total, terms = ZERO, []
        for succ, q in succs:
            value = self.read(kind, ref, succ)
            if isinstance(value, str):
                terms.append((q, value))
            elif value:
                total += q * value
        return Lin(total, tuple(terms))

    # entry point ---------------------------------------------------------------

    def encode(self) -> ConstraintSystem:
        # scheduler choice: every state picks one enabled action, per family
        for family, _ in enumerate(self.meta.sched_names):
            for s in self.mdp.states:
                self.cs.choice_domains[(family, s)] = self.mdp.enabled[s]
                self.cs.add(OrT(tuple(ChoiceIs(family, s, a) for a in self.mdp.enabled[s])))
        for i in reversed(range(len(self.nodes))):
            points = self.meta.points[i]
            if points:  # true, propositions and constants never have any
                node = self.nodes[i]
                rule = self.RULES[type(node.path) if isinstance(node, ProbOf) else type(node)]
                rule(self, node, self.meta.supports[i], i, points, self.meta.reads[i])
        self.encode_truth()
        self.cs.meta = self.meta
        return self.cs

    # one rule per node kind: constrain ``node``, position ``i``, at ``points``,
    # reading its operands through ``refs``, in ``read_operands`` order --

    def encode_and(self, node, support, i, points, refs):
        left, right = refs
        for p in points:
            h = BoolRef(self.declare("h", i, p, "holds"))
            h1, h2 = self.holds(left, p), self.holds(right, p)
            self.cs.add(t_or((t_and((h, h1, h2)), t_and((NotT(h), t_or((t_not(h1), t_not(h2))))))))

    def encode_not(self, node, support, i, points, refs):
        (operand,) = refs
        for p in points:
            self.cs.add(XorT(BoolRef(self.declare("h", i, p, "holds")), self.holds(operand, p)))

    def encode_less(self, node, support, i, points, refs):
        left, right = refs
        for p in points:
            h = BoolRef(self.declare("h", i, p, "holds"))
            p1, p2 = self.value(left, p), self.value(right, p)
            self.cs.add(OrT((AndT((h, Cmp("<", p1, p2))), AndT((NotT(h), Cmp(">=", p1, p2))))))

    def encode_arith(self, node, support, i, points, refs):
        left, right = refs
        for p in points:
            out = self.declare("pr", i, p, "value")
            p1, p2 = self.value(left, p), self.value(right, p)
            # constant factors stay linear; variable*variable escalates the logic
            if node.op != "*":
                self.cs.add(eq(var(out), lin_add(p1, p2, ONE if node.op == "+" else -ONE)))
            elif not (p1.terms and p2.terms):
                factor, other = (p1, p2) if not p1.terms else (p2, p1)
                self.cs.add(eq(var(out), lin_add(Lin(), other, factor.const)))
            else:
                self.cs.add(MulEq(out, p1.terms[0][1], p2.terms[0][1]))

    def encode_next(self, node, support, i, points, refs):
        """The step indicator ``ti`` of the operand at the operand's points,
        every successor it may be read at; ``pr`` at the node's own."""
        (operand,) = refs  # on the node's support, so its projector keeps a point
        for p in self.meta.points[operand[0]]:
            ti, h = var(self.declare("ti", operand[0], p, "toint")), self.holds(operand, p)
            self.cs.add(OrT((AndT((eq(ti, const(1)), h)), AndT((eq(ti, const(0)), NotT(h))))))
        for p in points:
            pr = var(self.declare("pr", i, p, "prob"))
            for guard, succs in self.steps(support, p):
                self.cs.add(t_implies(t_and(guard), eq(pr, self.expectation("ti", operand, succs))))

    def encode_reach(self, node, support, i, points, refs):
        """An until is the ``window`` [0, inf] that reads itself one step on,
        a wider window of a bounded until the next window down (``refs``'
        last), and [0,0] is the target indicator.  Where a target counts
        (k1 = 0) it forces 1, and a point off both operands is 0; otherwise
        a point off phi1 is.  Only the until adds its distance variable and
        the least fixed point's progress conjunct."""
        until, (k1, k2) = isinstance(node.path, Until), window(node.path)
        left, right, on = (refs[0], refs[1], refs[-1]) if k2 else (None, refs[0], None)
        fixed = self.fixed[i]
        for p in points:
            pr = var(self.declare("pr", i, p, "prob"))
            d_p = var(self.declare("d", i, p, "dist")) if until else None
            h1, h2 = self.holds(left, p) if k2 else False, self.holds(right, p)
            if k1 == 0:  # a target counts
                self.cs.add(t_implies(h2, eq(pr, const(1))))
            # pr is 0 off phi1, where a target counts off phi2 too, and at [0,0], which reads phi2 alone, off phi2
            off = t_not(h1) if k1 else t_and((t_not(h1), t_not(h2))) if k2 else t_not(h2)
            self.cs.add(t_implies(off, eq(pr, const(0))))
            active = (h1,) if k1 else (h1, t_not(h2))
            for guard, succs in self.steps(support, p) if k2 else ():
                step = eq(pr, self.expectation("pr", on, succs))
                if until:
                    # least fixed point: positive probability needs a successor
                    # that is a target or strictly closer to one; one fixed to 0
                    # is neither in the least solution, one fixed to 1 a target
                    progress = t_or(tuple(
                        t_or((self.holds(right, succ), Cmp(">", d_p, var(symbol("d", succ, i)))))
                        if fixed.get(succ) is None else bool(fixed[succ])
                        for succ, _ in succs
                    ))
                    step = t_and((step, t_implies(Cmp(">", pr, const(0)), progress)))
                self.cs.add(t_implies(t_and(active + guard), step))

    RULES = {And: encode_and, NotF: encode_not, Less: encode_less, Arith: encode_arith,
             Next: encode_next, Until: encode_reach, BoundedUntil: encode_reach}

    # truth of the input formula -------------------------------------------------

    def encode_truth(self):
        """The state quantifiers as nested disjunctions and conjunctions over
        their domains, of the body's truth (position 0) at the tuples they
        reach.  A constant that cannot decide its level drops out, and a
        level of constants folds; every open tuple stays read, even beside a
        deciding constant, since ``decode_witness`` walks the quantifiers in
        order."""
        quants, domains = self.meta.state_quants, self.meta.domains
        body_ref = (0, False, projector(self.meta.supports[0]))

        def level(at: tuple) -> Term:
            if len(at) == len(quants):
                return self.holds(body_ref, at)
            exists = quants[len(at)].exists
            items = tuple(level(at + (s,)) for s in domains[len(at)])
            if all(isinstance(t, bool) for t in items):
                return any(items) if exists else all(items)
            items = tuple(t for t in items if t is not (not exists))
            return OrT(items) if exists else AndT(items)

        self.cs.truth = level(())
        del level  # empties the cell through which level calls itself: no reference cycle
        self.cs.add(self.cs.truth)


def encode_main(mdp: Mdp, f: Formula) -> Tuple[ConstraintSystem, str]:
    """Build the full constraint system; polarity says whether the verdict
    must be inverted (universal scheduler block)."""
    meta = plan_encoding(mdp, f)
    return Encoder(mdp, meta).encode(), meta.polarity


# -- vectorized evaluation under a fixed scheduler choice ---------------------------


class VectorEvaluator:
    """Computes, per subformula, its whole vector over the states of a
    composed chain.  No library path uses it: it is the tests' reference on
    the full product for the per-support values, and the benchmark's tracer
    hooks its ``_bounded``.  It moves to ``tests/helpers.py`` once that hook
    no longer names it.
    """

    def __init__(self, composed: Dtmc, var_index: Dict[str, int]):
        self.d = composed
        self.var_index = var_index
        self._holds: Dict[object, dict] = {}
        self._values: Dict[object, dict] = {}

    def holds(self, node) -> dict:
        vec = self._holds.get(node)
        if vec is not None:
            return vec
        if isinstance(node, TrueF):
            vec = {r: True for r in self.d.states}
        elif isinstance(node, Prop):
            tag = f"{node.name}@{self.var_index[node.var]}"
            vec = {r: tag in self.d.labels[r] for r in self.d.states}
        elif isinstance(node, And):
            left, right = self.holds(node.left), self.holds(node.right)
            vec = {r: left[r] and right[r] for r in self.d.states}
        elif isinstance(node, NotF):
            inner = self.holds(node.operand)
            vec = {r: not inner[r] for r in self.d.states}
        elif isinstance(node, Less):
            left, right = self.value(node.left), self.value(node.right)
            vec = {r: left[r] < right[r] for r in self.d.states}
        else:
            raise AssertionError(node)
        self._holds[node] = vec
        return vec

    def value(self, node) -> dict:
        vec = self._values.get(node)
        if vec is not None:
            return vec
        if isinstance(node, Const):
            vec = {r: node.value for r in self.d.states}
        elif isinstance(node, Arith):
            left, right, op = self.value(node.left), self.value(node.right), ARITH_OPS[node.op]
            vec = {r: op(left[r], right[r]) for r in self.d.states}
        elif isinstance(node, ProbOf):
            path = node.path
            if isinstance(path, Next):
                vec = analysis.next_probs(self.d, self.holds(path.operand))
            elif isinstance(path, Until):
                vec = analysis.until_probs(self.d, self.holds(path.left), self.holds(path.right))
            else:
                vec = self._bounded(node)
        else:
            raise AssertionError(node)
        self._values[node] = vec
        return vec

    def _bounded(self, node) -> dict:
        path = node.path
        return analysis.bounded_until_probs(
            self.d, self.holds(path.left), self.holds(path.right), path.k1, path.k2
        )


# -- eager solving -------------------------------------------------------------------


class SmtVerdict(Record):
    """``model`` is the external solver's model, None from ``solve_eager``."""

    __slots__ = _fields = ("sat", "polarity", "model", "decoded")
    _defaults = {"model": None, "decoded": None}


def solve_eager(mdp: Mdp, f: Formula, max_sched_vars: int = 3, max_state_vars: int = 3) -> SmtVerdict:
    """Decide the encoded formula the way the collapsed systems would.

    Under a fixed choice assignment the guarded equations collapse to the
    exact systems that ``enumcheck.decide`` solves per support, so the
    encoded formula (``transform_for_encoding``) is decided by that walk:
    the first satisfying assignment is the lexicographically least, and
    its values on the deciding branch are the witness or counterexample.
    """
    validate_inputs(mdp, f, max_sched_vars, max_state_vars)
    f_enc, polarity = transform_for_encoding(f)
    sat, trace = decide(mdp, f_enc)
    truth = sat if polarity == "direct" else not sat
    return SmtVerdict(sat=sat, polarity=polarity, decoded=assemble_verdict(f, truth, trace))


# -- decoding -----------------------------------------------------------------------


def decode_witness(cs: ConstraintSystem, model: dict, f: Formula) -> Verdict:
    """Extract scheduler assignments and existential state indices from an
    external solver's satisfying model (``smt-external``); inverted
    polarity turns them into a counterexample.  The body's truth comes from
    the plan's fixed table where it is folded, from the model elsewhere."""
    meta: EncodingMeta = cs.meta
    choices = {}
    for (family, state), actions in cs.choice_domains.items():
        picked = [a for a in actions if model.get(choice_sym(family, state, a)) is True]
        if len(picked) != 1:
            raise IncompleteModel(f"choice variable for family {family}, state {state!r} unresolved")
        choices[(family, state)] = picked[0]
    m = len(meta.sched_names)  # a family's index is its prefix position
    trace: Dict[int, object] = {
        family: SchedulerAssignment(meta.states, tuple(choices[(family, s)] for s in meta.states))
        for family in range(m)
    }

    onto_body, body_fixed = projector(meta.supports[0]), meta.fixed[0]  # the body is position 0

    def body_holds(r):
        point = onto_body(r)
        if point in body_fixed:
            return body_fixed[point]
        key = holds_sym(point, 0)
        if key not in model:
            raise IncompleteModel(f"missing truth value {key}")
        return bool(model[key])

    inner_truth, picks = truth_eval(meta.state_quants, meta.domains, body_holds)
    trace.update((m + depth, s) for depth, s in picks.items())
    truth_final = inner_truth if meta.polarity == "direct" else not inner_truth
    return assemble_verdict(f, truth_final, trace)


def full_assignment(cs: ConstraintSystem, mdp: Mdp, chosen: Dict[str, SchedulerAssignment]):
    """Complete variable assignment induced by a choice of schedulers.

    Binds one ``enumcheck.Evaluator`` to ``chosen`` and reads each declared
    variable at its own point, over its subformula's support only, never on
    the whole product; used to cross-check that the emitted constraints are
    satisfied by the exact semantics (soundness of the encoding).  A bounded
    until takes all of its windows from one
    ``analysis.bounded_until_windows`` call, kept as the evaluator keeps a
    path's vectors, by its operands renamed over the support's positions and
    the support's actions, with the support's points and the window's
    bounds, so no window is built again, and each window enters the
    evaluator's vector, from which the layer above reads it; an until its
    distances from one ``analysis.step_distances`` call, each on the
    support's chain over the projection of ``meta.tuples``.  The plan's
    tables are read by position, a ``P(X ...)``'s operand through its entry
    (``meta.reads``).  Raises AssertionError if a value of the plan's fixed
    table differs from the one under ``chosen``, so every run also checks
    the folding.
    """
    meta: EncodingMeta = cs.meta
    ev = Evaluator(mdp, meta.encoded)
    ev.bind(build_composition(meta.encoded, chosen))

    @functools.cache
    def chain(support: Support) -> Dtmc:
        rows = ev.rows(support)
        if len(support) == 1:  # one component's rows take bare states
            rows = JointRows((rows,), ev.joint)
        return Dtmc(states=projected_domain(meta.tuples, support), trans=rows, ap=(), labels={})

    def on_chain(path, support: Support):
        """``support``'s chain, with tuple points, and ``path``'s operands there."""
        d = chain(support)
        left, right = ev.reader(path.left, support), ev.reader(path.right, support)
        return d, {p: left(p) for p in d.states}, {p: right(p) for p in d.states}

    # per position of the plan; ``reduced_windows`` gives a window its until's operands
    windows: Dict[tuple, dict] = {}  # (operands, actions, points, k1, k2) -> the window's vector
    bounded: Dict[int, dict] = {}  # position of a bounded until -> its window's vector
    for idx, (node, support) in enumerate(zip(meta.index, meta.supports)):
        path = node.path if isinstance(node, ProbOf) else None
        if isinstance(path, BoundedUntil):
            solved = (ev.renamed(path.left, support), ev.renamed(path.right, support),
                      ev.keys[support], frozenset(chain(support).states))
            if (*solved, path.k1, path.k2) not in windows:
                for (k1, k2), vec in analysis.bounded_until_windows(*on_chain(path, support), path.k1, path.k2):
                    windows.setdefault((*solved, k1, k2), vec)
            vec = bounded[idx] = windows[(*solved, path.k1, path.k2)]
            ev.vectors.setdefault((ev.renamed(path, support), ev.keys[support]), {}).update(
                ((p[0], value) for p, value in vec.items()) if len(support) == 1 else vec)
    values: Dict[str, object] = {}
    for idx, (node, support) in enumerate(zip(meta.index, meta.supports)):
        kind = "h" if isinstance(node, BODY_KINDS) else "pr"
        path = node.path if isinstance(node, ProbOf) else None
        read = bounded[idx].__getitem__ if idx in bounded else ev.reader(node, support)
        for p, value in meta.fixed[idx].items():
            if read(p) != value:
                raise AssertionError(f"{symbol(kind, p, idx)} is fixed to {value} but is {read(p)} "
                                     "under the chosen schedulers")
        values.update((symbol(kind, p, idx), read(p)) for p in meta.points[idx])
        if meta.points[idx] and isinstance(path, Next):
            holds, ((operand, _, _),) = ev.reader(path.operand, support), meta.reads[idx]
            values.update((toint_sym(p, operand), ONE if holds(p) else ZERO) for p in meta.points[operand])
        elif meta.points[idx] and isinstance(path, Until):
            # where phi2 is out of reach the probability is 0, and no clause needs the distance
            dist = analysis.step_distances(*on_chain(path, support))
            values.update((dist_sym(p, idx), Fraction(dist.get(p, len(meta.tuples)))) for p in meta.points[idx])
    choices = {}
    for (family, state), _ in cs.choice_domains.items():
        choices[(family, state)] = chosen[meta.sched_names[family]].choice(state)
    return {name: values[name] for name in cs.variables}, choices


# -- external solver integration -------------------------------------------------------


def _sexpr_tokens(text: str):
    return re.findall(r"\(|\)|[^\s()]+", text)


def _read_sexprs(tokens: List[str]):
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            top = stack.pop()
            stack[-1].append(top)
        else:
            stack[-1].append(tok)
    return stack[0]


def _sexpr_value(expr):
    if isinstance(expr, list):
        if expr and expr[0] == "/":
            return _sexpr_value(expr[1]) / _sexpr_value(expr[2])
        if expr and expr[0] == "-":
            if len(expr) == 2:
                return -_sexpr_value(expr[1])
            return _sexpr_value(expr[1]) - _sexpr_value(expr[2])
        raise ValueError(f"unsupported model value {expr!r}")
    if expr == "true":
        return True
    if expr == "false":
        return False
    return Fraction(expr)


def parse_solver_model(text: str) -> dict:
    """Pull variable assignments out of ``(get-model)`` output."""
    model = {}
    for expr in _read_sexprs(_sexpr_tokens(text)):
        if not isinstance(expr, list):
            continue
        stack = [expr]
        while stack:
            item = stack.pop()
            if not isinstance(item, list):
                continue
            if len(item) >= 5 and item[0] == "define-fun":
                name = item[1]
                model[name] = _sexpr_value(item[-1])
            else:
                stack.extend(item)
    return model


def run_external_solver(solver_path: str, smt_text: str, timeout: float = 600.0):
    """Run ``solver_path <file.smt2>``; returns ('sat'|'unsat', model).

    The script file is removed afterwards.  A solver still running after
    ``timeout`` seconds is killed, and one that answers neither sat nor
    unsat is reported with the last lines of its stderr; both raise
    IncompleteModel.
    """
    import subprocess  # only this run needs these two: importing the package does not load them
    import tempfile
    fd, path = tempfile.mkstemp(suffix=".smt2")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(smt_text)
        proc = subprocess.run(
            [solver_path, path], capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise IncompleteModel(f"external solver gave no answer within {timeout} s") from exc
    finally:
        os.unlink(path)
    output = proc.stdout.strip()
    first = output.splitlines()[0].strip() if output else "unknown"
    if first not in ("sat", "unsat"):
        reason = " | ".join(proc.stderr.strip().splitlines()[-3:]) or "no stderr output"
        raise IncompleteModel(f"external solver returned neither sat nor unsat ({first!r}; stderr: {reason})")
    if first == "unsat":
        return "unsat", {}
    return "sat", parse_solver_model(output)


def check_external(cs: ConstraintSystem, smt_text: str, solver_path: str, timeout: float = 600.0) -> SmtVerdict:
    """Hand an encoded system (``encode_main``) and its SMT-LIB2 text to an
    external QF_LRA solver, allowed ``timeout`` seconds, and decode its
    model."""
    f, polarity = cs.meta.original, cs.meta.polarity
    answer, model = run_external_solver(solver_path, smt_text, timeout)
    if answer == "unsat":
        truth_final = polarity == "negated"
        return SmtVerdict(sat=False, polarity=polarity,
                          decoded=assemble_verdict(f, truth_final, {}))
    decoded = decode_witness(cs, model, f)
    return SmtVerdict(sat=True, polarity=polarity, model=model, decoded=decoded)
