"""Constraint encoding of formulas and the eager internal decision procedure.

The encoding builds, per subformula, Boolean truth variables, real
probability variables, pseudo-Boolean step indicators and ordering-only
distance variables; scheduler choices become enumerated variables guarded
into the probability equations.  Each subformula is encoded over the
states of the components it mentions (its support), not over every
composed state, since the components of a self-composition move
independently.  The truth term nests its disjunctions and conjunctions
over the state quantifiers' domains (``enumcheck.state_domains``), and
``decode_witness`` walks the solver's model there.  A ``P(...)`` and
every node a path formula reads are encoded at each tuple reachable from
those domains, projected onto the support; the Boolean and arithmetic
layer above the ``P``s only at the truth term's tuples, the one place it
is read (``point_table``).  The plan (``plan_encoding``) lists every
subformula once, with every reduced-bound window of a bounded until, and
the encoder makes one pass over that table, with one rule per node kind
and no recursion.
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
the ``full_assignment`` oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import analysis
from .constraints import (
    AndT,
    BoolRef,
    ChoiceIs,
    Cmp,
    ConstraintSystem,
    ImpliesT,
    Lin,
    MulEq,
    NotT,
    OrT,
    Term,
    XorT,
    choice_sym,
    const,
    eq,
    var,
)
from .enumcheck import (Verdict, assemble_verdict, build_composition, decide, state_domains, truth_eval,
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
    reduced_windows,
    state_var_index,
    subformula_supports,
)
from .model import Dtmc, Mdp, SchedulerAssignment
from .model import enumerate_schedulers  # noqa: F401  bench/tracing.py hooks smt.enumerate_schedulers

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


@dataclass
class EncodingMeta:
    """Everything needed to decode a model back into a verdict."""

    polarity: str
    original: Formula
    encoded: Formula
    sched_names: Tuple[str, ...]
    state_quants: Tuple[StateQuant, ...]
    domains: Tuple[Tuple[str, ...], ...]  # per state quantifier, from ``state_domains``
    fam_of_component: Tuple[int, ...]
    var_index: Dict[str, int]
    states: Tuple[str, ...]
    tuples: Tuple[Tuple[str, ...], ...]
    supports: Dict[object, Support]  # in registration order: index i is the i-th key
    points: Dict[object, Tuple[tuple, ...]]  # per subformula, from ``point_table``


def reachable_tuples(mdp: Mdp, n: int, starts) -> Tuple[Tuple[str, ...], ...]:
    """Composed states reachable from ``starts`` under any action tuple."""
    # per-component successor union is exact for product reachability
    succ = {
        s: sorted({t for a in mdp.enabled[s] for t, _ in mdp.trans[(s, a)]})
        for s in mdp.states
    }
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        r = frontier.pop()
        for nxt in itertools.product(*(succ[s] for s in r)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(r for r in itertools.product(mdp.states, repeat=n) if r in seen)


def project(r: tuple, support: Support) -> tuple:
    """The components of composed tuple ``r`` that ``support`` names."""
    return tuple(r[c] for c in support)


def projected_domain(tuples, support: Support) -> Tuple[tuple, ...]:
    """The projection of ``tuples`` onto ``support``, deduplicated in tuple
    order.  A projection of a successor-closed set is closed under
    successors again, since the other components always move."""
    return tuple(dict.fromkeys(project(r, support) for r in tuples))


def read_operands(node) -> tuple:
    """The operands whose variables ``node``'s encoding rule reads: a
    bounded until also reads its next window down, and a ``[0,0]`` window
    reads only its target."""
    if isinstance(node, NotF):
        return (node.operand,)
    if isinstance(node, (And, Less, Arith)):
        return node.left, node.right
    if not isinstance(node, ProbOf):
        return ()
    path = node.path
    if isinstance(path, Next):
        return (path.operand,)
    if isinstance(path, Until):
        return path.left, path.right
    return (path.right,) if path.k2 == 0 else (path.left, path.right, next(reduced_windows(node)))


def point_table(body, supports, tuples, truth_tuples) -> Dict[object, Tuple[tuple, ...]]:
    """Each subformula's points: where the encoding declares and constrains it.

    A ``P(...)``, and every node a path formula reads, is read at
    successors, so it keeps the projection of the reachable ``tuples``
    (closed under successors).  The Boolean and arithmetic nodes above the
    ``P``s are read only at the truth term's ``truth_tuples``, so they keep
    that projection.  A node no rule reads gets no points.
    """
    below_p = {}  # node -> read (transitively) by a path formula
    stack = [(body, False)]
    while stack:
        node, below = stack.pop()
        below = below or isinstance(node, ProbOf)
        if node not in below_p or below > below_p[node]:  # revisit only to move below a P
            below_p[node] = below
            stack.extend((operand, below) for operand in read_operands(node))
    onto = functools.cache(lambda below, s: projected_domain(tuples if below else truth_tuples, s))
    return {node: onto(below_p[node], s) if node in below_p else () for node, s in supports.items()}


def plan_encoding(mdp: Mdp, f: Formula) -> EncodingMeta:
    """What the encoding fixes before any constraint: polarity, scheduler
    families, the state quantifiers' domains, the composed tuples reachable
    from them, every subformula's support and its points."""
    f_enc, polarity = transform_for_encoding(f)
    sched_names = tuple(q.name for q in f_enc.prefix if isinstance(q, SchedQuant))
    state_quants = tuple(q for q in f_enc.prefix if isinstance(q, StateQuant))
    domains = state_domains(mdp, f_enc)
    var_index = state_var_index(f_enc)
    truth_tuples = tuple(itertools.product(*domains))
    tuples = reachable_tuples(mdp, len(state_quants), truth_tuples)
    supports = subformula_supports(f_enc.body, var_index)
    return EncodingMeta(
        polarity=polarity,
        original=f,
        encoded=f_enc,
        sched_names=sched_names,
        state_quants=state_quants,
        domains=domains,
        fam_of_component=tuple(sched_names.index(q.sched) for q in state_quants),
        var_index=var_index,
        states=mdp.states,
        tuples=tuples,
        supports=supports,
        points=point_table(f_enc.body, supports, tuples, truth_tuples),
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

    ``encode`` walks the plan's subformula table (``meta.supports``) once,
    in reverse registration order, so each subformula comes after its
    operands; the table already lists every reduced-bound window of a
    bounded until.  Each node kind has one rule, which constrains the node
    at every point of its domain and reads its operands by name, so the
    order of the nodes does not change what the system means.

    A point is a tuple of states of the subformula's support components;
    a node is constrained at its points in ``meta.points``.  Guards,
    action tuples and joint successors range over the support components
    only, and an operand is read at the point's projection onto the
    operand's support.
    """

    def __init__(self, mdp: Mdp, meta: EncodingMeta):
        self.mdp = mdp
        self.meta = meta
        self.cs = ConstraintSystem()
        self.support = meta.supports
        self.step_table: Dict[tuple, list] = {}
        # the plan lists each subformula once: its position is its index
        self.cs.subformula_index = {node: idx for idx, node in enumerate(meta.supports)}
        # one line per subformula over its operands' indices: the header grows linearly
        index = lambda operand: f"[{self.cs.subformula_index[operand]}]"
        self.cs.subformula_text = [format_node(node, index) for node in meta.supports]

    # naming ---------------------------------------------------------------

    def ref(self, node, outer: Support):
        """How a point of support ``outer`` names ``node``'s variables:
        (node index, positions of the node's support within ``outer``)."""
        return self.cs.subformula_index[node], tuple(outer.index(c) for c in self.support[node])

    @staticmethod
    def name(kind: str, ref, p) -> str:
        idx, positions = ref
        return symbol(kind, tuple(p[i] for i in positions), idx)

    def holds(self, ref, p) -> BoolRef:
        return BoolRef(self.cs.declare(self.name("h", ref, p), "holds"))

    def declare(self, kind: str, ref, p, var_kind: str) -> Lin:
        return var(self.cs.declare(self.name(kind, ref, p), var_kind))

    # steps ------------------------------------------------------------------

    def steps(self, support: Support, p) -> list:
        """(guard, joint successors with their probabilities) per action
        tuple at point ``p`` of ``support``, built once and read by every
        path rule there."""
        table = self.step_table.get((support, p))
        if table is None:
            table = self.step_table[(support, p)] = []
            for alpha in itertools.product(*(self.mdp.enabled[s] for s in p)):
                guard = AndT(tuple(dict.fromkeys(
                    ChoiceIs(self.meta.fam_of_component[c], s, a) for c, s, a in zip(support, p, alpha))))
                combos = itertools.product(*(self.mdp.trans[(s, a)] for s, a in zip(p, alpha)))
                succs = [(tuple(t for t, _ in combo), math.prod((q for _, q in combo), start=ONE)) for combo in combos]
                table.append((guard, succs))
        return table

    def expectation(self, kind: str, ref, succs) -> Lin:
        """The expected value of ``ref``'s ``kind`` variable one step on,
        over the joint successors ``succs``."""
        return Lin(ZERO, tuple((q, self.name(kind, ref, succ)) for succ, q in succs))

    # entry point ---------------------------------------------------------------

    def encode(self) -> ConstraintSystem:
        # scheduler choice: every state picks one enabled action, per family
        for family, _ in enumerate(self.meta.sched_names):
            for s in self.mdp.states:
                self.cs.choice_domains[(family, s)] = self.mdp.enabled[s]
                self.cs.add(OrT(tuple(ChoiceIs(family, s, a) for a in self.mdp.enabled[s])))
        for node in reversed(self.meta.supports):
            support = self.support[node]
            rule = self.RULES[type(node.path) if isinstance(node, ProbOf) else type(node)]
            rule(self, node, support, self.ref(node, support), self.meta.points[node])
        self.encode_truth()
        self.cs.meta = self.meta
        return self.cs

    # one rule per node kind: constrain ``node``, named by ``own``, at ``points`` --

    def encode_literal(self, node, support, own, points):
        for p in points:
            h = self.holds(own, p)
            self.cs.add(h if isinstance(node, TrueF) or node.name in self.mdp.labels[p[0]] else NotT(h))

    def encode_and(self, node, support, own, points):
        left, right = self.ref(node.left, support), self.ref(node.right, support)
        for p in points:
            h, h1, h2 = self.holds(own, p), self.holds(left, p), self.holds(right, p)
            self.cs.add(OrT((AndT((h, h1, h2)), AndT((NotT(h), OrT((NotT(h1), NotT(h2))))))))

    def encode_not(self, node, support, own, points):
        operand = self.ref(node.operand, support)
        for p in points:
            self.cs.add(XorT(self.holds(own, p), self.holds(operand, p)))

    def encode_less(self, node, support, own, points):
        left, right = self.ref(node.left, support), self.ref(node.right, support)
        for p in points:
            h, p1, p2 = self.holds(own, p), var(self.name("pr", left, p)), var(self.name("pr", right, p))
            self.cs.add(OrT((AndT((h, Cmp("<", p1, p2))), AndT((NotT(h), Cmp(">=", p1, p2))))))

    def encode_const(self, node, support, own, points):
        for p in points:
            self.cs.add(eq(self.declare("pr", own, p, "value"), const(node.value)))

    def encode_arith(self, node, support, own, points):
        left, right = self.ref(node.left, support), self.ref(node.right, support)
        for p in points:
            out = self.declare("pr", own, p, "value")
            p1, p2 = self.name("pr", left, p), self.name("pr", right, p)
            # constant factors stay linear; variable*variable escalates the logic
            if node.op != "*":
                self.cs.add(eq(out, Lin(ZERO, ((ONE, p1), (ONE if node.op == "+" else -ONE, p2)))))
            elif isinstance(node.left, Const):
                self.cs.add(eq(out, Lin(ZERO, ((node.left.value, p2),))))
            elif isinstance(node.right, Const):
                self.cs.add(eq(out, Lin(ZERO, ((node.right.value, p1),))))
            else:
                self.cs.add(MulEq(out.terms[0][1], p1, p2))

    def encode_next(self, node, support, own, points):
        operand = self.ref(node.path.operand, support)
        for p in points:
            ti, h = self.declare("ti", operand, p, "toint"), self.holds(operand, p)
            self.cs.add(OrT((AndT((eq(ti, const(1)), h)), AndT((eq(ti, const(0)), NotT(h))))))
            pr = self.declare("pr", own, p, "prob")
            for guard, succs in self.steps(support, p):
                self.cs.add(ImpliesT(guard, eq(pr, self.expectation("ti", operand, succs))))

    def encode_until(self, node, support, own, points):
        left, right = self.ref(node.path.left, support), self.ref(node.path.right, support)
        for p in points:
            pr, d_p = self.declare("pr", own, p, "prob"), self.declare("d", own, p, "dist")
            h1, h2 = self.holds(left, p), self.holds(right, p)
            self.cs.add(ImpliesT(h2, eq(pr, const(1))))
            self.cs.add(ImpliesT(AndT((NotT(h1), NotT(h2))), eq(pr, const(0))))
            for guard, succs in self.steps(support, p):
                # least fixed point: positive probability needs a successor
                # that is a target or strictly closer to one
                progress = OrT(tuple(
                    OrT((self.holds(right, succ), Cmp(">", d_p, var(self.name("d", own, succ)))))
                    for succ, _ in succs
                ))
                self.cs.add(ImpliesT(
                    AndT((h1, NotT(h2)) + guard.items),
                    AndT((eq(pr, self.expectation("pr", own, succs)),
                          ImpliesT(Cmp(">", pr, const(0)), progress))),
                ))

    def encode_window(self, node, support, own, points):
        """One window of a bounded until: at [0,0] the target indicator,
        otherwise one step to the next window down, ``reduced_windows``'s
        first, which the table lists too."""
        path = node.path
        left, right = self.ref(path.left, support), self.ref(path.right, support)
        child = self.ref(next(reduced_windows(node)), support) if path.k2 else None
        for p in points:
            pr, h2 = self.declare("pr", own, p, "prob"), self.holds(right, p)
            if path.k2 == 0:
                self.cs.add(ImpliesT(h2, eq(pr, const(1))))
                self.cs.add(ImpliesT(NotT(h2), eq(pr, const(0))))
                continue
            h1 = self.holds(left, p)
            if path.k1 == 0:  # windowed step: a target now counts
                self.cs.add(ImpliesT(h2, eq(pr, const(1))))
                self.cs.add(ImpliesT(AndT((NotT(h1), NotT(h2))), eq(pr, const(0))))
                active = (h1, NotT(h2))
            else:
                self.cs.add(ImpliesT(NotT(h1), eq(pr, const(0))))
                active = (h1,)
            for guard, succs in self.steps(support, p):
                self.cs.add(ImpliesT(AndT(active + guard.items), eq(pr, self.expectation("pr", child, succs))))

    RULES = {TrueF: encode_literal, Prop: encode_literal, And: encode_and, NotF: encode_not,
             Less: encode_less, Const: encode_const, Arith: encode_arith,
             Next: encode_next, Until: encode_until, BoundedUntil: encode_window}

    # truth of the input formula -------------------------------------------------

    def encode_truth(self):
        """The state quantifiers as nested disjunctions and conjunctions over
        their domains, of the body's truth at the tuples they reach."""
        quants, domains = self.meta.state_quants, self.meta.domains
        body_ref = self.ref(self.meta.encoded.body, tuple(range(len(quants))))

        def level(at: tuple) -> Term:
            if len(at) == len(quants):
                return self.holds(body_ref, at)
            items = tuple(level(at + (s,)) for s in domains[len(at)])
            return OrT(items) if quants[len(at)].exists else AndT(items)

        self.cs.truth = level(())
        self.cs.add(self.cs.truth)


def encode_main(mdp: Mdp, f: Formula) -> Tuple[ConstraintSystem, str]:
    """Build the full constraint system; polarity says whether the verdict
    must be inverted (universal scheduler block)."""
    meta = plan_encoding(mdp, f)
    return Encoder(mdp, meta).encode(), meta.polarity


# -- vectorized evaluation under a fixed scheduler choice ---------------------------


class VectorEvaluator:
    """Computes, per subformula, its whole vector over composed states.

    This mirrors the encoding: under a fixed choice assignment the guarded
    equations collapse to the exact systems solved by the analysis module.
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

    def windows(self, node):
        """Fill in the vectors of a bounded until and of all its reduced-bound
        windows from one iteration (the encoding declares every window)."""
        if node in self._values:
            return
        path = node.path
        for (k1, k2), vec in analysis.bounded_until_windows(
            self.d, self.holds(path.left), self.holds(path.right), path.k1, path.k2
        ):
            self._values.setdefault(ProbOf(BoundedUntil(path.left, path.right, k1, k2)), vec)

    def distances(self, phi2_node) -> dict:
        """BFS distance (in induced steps) to the nearest phi2 state;
        unreachable composed states get |states| (any value works there:
        their probability is 0 and the ordering clauses are vacuous)."""
        target = self.holds(phi2_node)
        preds: Dict[object, list] = {r: [] for r in self.d.states}
        for r in self.d.states:
            for t, _ in self.d.trans[r]:
                preds[t].append(r)
        dist = {r: len(self.d.states) for r in self.d.states}
        frontier = [r for r in self.d.states if target[r]]
        for r in frontier:
            dist[r] = 0
        level = 0
        while frontier:
            level += 1
            nxt = []
            for t in frontier:
                for r in preds[t]:
                    if dist[r] > level:
                        dist[r] = level
                        nxt.append(r)
            frontier = nxt
        return dist


def _restrict(composed: Dtmc, tuples: Sequence) -> Dtmc:
    keep = tuple(tuples)
    return Dtmc(
        states=keep,
        trans={r: composed.trans[r] for r in keep},
        ap=composed.ap,
        labels={r: composed.labels[r] for r in keep},
    )


# -- eager solving -------------------------------------------------------------------


@dataclass
class SmtVerdict:
    sat: bool
    polarity: str
    model: Optional[dict] = None  # the external solver's model; None from solve_eager
    decoded: Optional[Verdict] = None


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
    polarity turns them into a counterexample."""
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

    body = meta.encoded.body
    body_support, body_index = meta.supports[body], cs.subformula_index[body]

    def body_holds(r):
        key = holds_sym(project(r, body_support), body_index)
        if key not in model:
            raise IncompleteModel(f"missing truth value {key}")
        return bool(model[key])

    inner_truth, picks = truth_eval(meta.state_quants, meta.domains, body_holds)
    trace.update((m + depth, s) for depth, s in picks.items())
    truth_final = inner_truth if meta.polarity == "direct" else not inner_truth
    return assemble_verdict(f, truth_final, trace)


def full_assignment(cs: ConstraintSystem, mdp: Mdp, chosen: Dict[str, SchedulerAssignment]):
    """Complete variable assignment induced by a choice of schedulers.

    Recomputes every encoded subformula's vectors on the composition via
    the analysis module and writes each declared variable's value under its
    projected name; used to cross-check that the emitted constraints are satisfied by the
    exact semantics (soundness of the encoding).  Raises AssertionError
    if two composed tuples with the same projection give one variable
    different values, so every run also checks the projection.
    """
    meta: EncodingMeta = cs.meta
    composed = build_composition(mdp, meta.encoded, chosen).full()
    if len(composed.states) != len(meta.tuples):
        composed = _restrict(composed, meta.tuples)
    ve = VectorEvaluator(composed, meta.var_index)
    values: Dict[str, object] = {}

    def put(sym, idx, support, vec, convert=None):
        for r in meta.tuples:
            value = vec[r] if convert is None else convert(vec[r])
            name = sym(project(r, support), idx)
            if values.setdefault(name, value) != value:
                raise AssertionError(f"{name} depends on components outside its support")

    for node, idx in cs.subformula_index.items():
        support = meta.supports[node]
        if isinstance(node, BODY_KINDS):
            put(holds_sym, idx, support, ve.holds(node))
            continue
        if isinstance(node, ProbOf) and isinstance(node.path, BoundedUntil):
            ve.windows(node)
        put(prob_sym, idx, support, ve.value(node))
        if isinstance(node, ProbOf) and isinstance(node.path, Next):
            operand = node.path.operand
            put(toint_sym, cs.subformula_index[operand], support, ve.holds(operand),
                lambda h: ONE if h else ZERO)
        if isinstance(node, ProbOf) and isinstance(node.path, Until):
            put(dist_sym, idx, support, ve.distances(node.path.right), Fraction)
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
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
        fh.write(smt_text)
        path = fh.name
    try:
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


def check_external(cs: ConstraintSystem, smt_text: str, solver_path: str) -> SmtVerdict:
    """Hand an encoded system (``encode_main``) and its SMT-LIB2 text to an
    external QF_LRA solver, decode its model."""
    f, polarity = cs.meta.original, cs.meta.polarity
    answer, model = run_external_solver(solver_path, smt_text)
    if answer == "unsat":
        truth_final = polarity == "negated"
        return SmtVerdict(sat=False, polarity=polarity,
                          decoded=assemble_verdict(f, truth_final, {}))
    decoded = decode_witness(cs, model, f)
    return SmtVerdict(sat=True, polarity=polarity, model=model, decoded=decoded)
