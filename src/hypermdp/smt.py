"""Constraint encoding of formulas and the eager internal decision procedure.

The encoding builds, per composed state and subformula, Boolean truth
variables, real probability variables, pseudo-Boolean step indicators and
ordering-only distance variables; scheduler choices become enumerated
variables guarded into the probability equations.  A universal scheduler
block is encoded as the existential encoding of the negated body with
flipped state quantifiers and the final verdict inverted.

Solving is eager: scheduler-choice assignments are enumerated; under a
fixed assignment the guarded equations collapse to the exact linear
systems of the analysis module, and the truth constraint is checked by
Boolean evaluation.  The first satisfying assignment (lexicographically
least) is decoded into a witness or counterexample.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
    const,
    emit_smtlib2,
    eq,
    var,
)
from .enumcheck import Verdict, assemble_verdict, build_composition, validate_inputs
from .errors import IncompleteModel, MixedSchedulerBlock
from .formula import (
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
    format_body,
    format_pexpr,
    state_var_index,
)
from .model import Dtmc, Mdp, SchedulerAssignment, enumerate_schedulers

ZERO = Fraction(0)
ONE = Fraction(1)


# -- formula-level transformation (main algorithm) ------------------------------


def scheduler_block(f: Formula):
    """The scheduler quantifier block; raises on exists/forall mixtures."""
    quants = [q for q in f.prefix if isinstance(q, SchedQuant)]
    if not quants:
        return "exists", quants
    kinds = {q.exists for q in quants}
    if len(kinds) > 1:
        raise MixedSchedulerBlock(
            "scheduler quantifiers mix exists and forall; use the enum engine"
        )
    return ("exists" if quants[0].exists else "forall"), quants


def transform_for_encoding(f: Formula) -> Tuple[Formula, str]:
    """A universal block encodes the negation with flipped state quantifiers."""
    kind, quants = scheduler_block(f)
    if kind == "exists":
        return f, "direct"
    prefix = []
    for q in f.prefix:
        if isinstance(q, SchedQuant):
            prefix.append(SchedQuant(True, q.name))
        else:
            prefix.append(StateQuant(not q.exists, q.name, q.sched))
    return Formula(prefix=tuple(prefix), body=NotF(f.body)), "negated"


@dataclass
class EncodingMeta:
    """Everything needed to decode a model back into a verdict."""

    polarity: str
    original: Formula
    encoded: Formula
    sched_names: Tuple[str, ...]
    state_quants: Tuple[StateQuant, ...]
    fam_of_component: Tuple[int, ...]
    var_index: Dict[str, int]
    states: Tuple[str, ...]
    tuples: Tuple[Tuple[str, ...], ...]
    body_index: int


def _tuple_name(r: Tuple[str, ...]) -> str:
    return ".".join(r)


def reachable_tuples(mdp: Mdp, n: int, starts) -> Tuple[Tuple[str, ...], ...]:
    """Composed states reachable from ``starts`` under any action tuple."""
    # per-component successor union is exact for product reachability
    succ = {
        s: sorted({t for a in mdp.enabled[s] for t, _ in mdp.trans[(s, a)]})
        for s in mdp.states
    }
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        r = frontier.pop()
        for nxt in itertools.product(*(succ[s] for s in r)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(r for r in itertools.product(mdp.states, repeat=n) if r in seen)


def _init_tuples(mdp: Mdp, n: int):
    inits = [s for s in mdp.states if "init" in mdp.labels[s]]
    if not inits:
        inits = list(mdp.states)
    return list(itertools.product(inits, repeat=n))


# -- encoder (semantics, until, bounded until, truth) ----------------------------


class Encoder:
    def __init__(self, mdp: Mdp, f_enc: Formula, polarity: str, prune: bool = False):
        self.mdp = mdp
        self.f = f_enc
        self.cs = ConstraintSystem()
        self.var_index = state_var_index(f_enc)
        sched_quants = [q for q in f_enc.prefix if isinstance(q, SchedQuant)]
        self.sched_names = tuple(q.name for q in sched_quants)
        fam = {name: j for j, name in enumerate(self.sched_names)}
        self.state_quants = tuple(q for q in f_enc.prefix if isinstance(q, StateQuant))
        self.fam_of_component = tuple(fam[q.sched] for q in self.state_quants)
        self.n = len(self.state_quants)
        if prune and self.n > 0:
            self.tuples = reachable_tuples(mdp, self.n, _init_tuples(mdp, self.n))
        else:
            self.tuples = tuple(itertools.product(mdp.states, repeat=self.n))
        self.polarity = polarity
        self._done = set()

    # naming ---------------------------------------------------------------

    def holds_name(self, r, node) -> str:
        idx = self.cs.subformula_index[node]
        return f"h_{_tuple_name(r)}_{idx}"

    def prob_name(self, r, node) -> str:
        idx = self.cs.subformula_index[node]
        return f"pr_{_tuple_name(r)}_{idx}"

    def toint_name(self, r, node) -> str:
        idx = self.cs.subformula_index[node]
        return f"ti_{_tuple_name(r)}_{idx}"

    def dist_name(self, r, target_node) -> str:
        idx = self.cs.subformula_index[target_node]
        return f"d_{_tuple_name(r)}_{idx}"

    def holds(self, r, node) -> BoolRef:
        return BoolRef(self.cs.declare(self.holds_name(r, node), "holds"))

    # guards -----------------------------------------------------------------

    def action_tuples(self, r):
        return itertools.product(*(self.mdp.enabled[s] for s in r))

    def guard(self, r, alpha) -> Term:
        atoms = dict.fromkeys(
            ChoiceIs(self.fam_of_component[i], s, a)
            for i, (s, a) in enumerate(zip(r, alpha))
        )
        return AndT(tuple(atoms))

    def joint_successors(self, r, alpha):
        """Support product with joint probabilities."""
        rows = [self.mdp.trans[(s, a)] for s, a in zip(r, alpha)]
        for combo in itertools.product(*rows):
            prob = ONE
            for _, p in combo:
                prob *= p
            yield tuple(t for t, _ in combo), prob

    # entry point ---------------------------------------------------------------

    def encode(self) -> ConstraintSystem:
        # scheduler choice: every state picks one enabled action, per family
        for family, _ in enumerate(self.sched_names):
            for s in self.mdp.states:
                self.cs.choice_domains[(family, s)] = self.mdp.enabled[s]
                self.cs.add(OrT(tuple(ChoiceIs(family, s, a) for a in self.mdp.enabled[s])))
        self.encode_semantics(self.f.body)
        self.encode_truth()
        self.cs.meta = EncodingMeta(
            polarity=self.polarity,
            original=self.f,  # replaced by encode_main
            encoded=self.f,
            sched_names=self.sched_names,
            state_quants=self.state_quants,
            fam_of_component=self.fam_of_component,
            var_index=self.var_index,
            states=self.mdp.states,
            tuples=self.tuples,
            body_index=self.cs.subformula_index[self.f.body],
        )
        return self.cs

    # structural recursion (meaning of the input formula) -------------------------

    def encode_semantics(self, node):
        if node in self._done:
            return
        self._done.add(node)
        if isinstance(node, (TrueF, Prop, And, NotF, Less)):
            self.cs.index_of(node, format_body(node))
            self._encode_boolean(node)
        else:
            self.cs.index_of(node, format_pexpr(node))
            self._encode_prob(node)

    def _encode_boolean(self, node):
        if isinstance(node, TrueF):
            for r in self.tuples:
                self.cs.add(self.holds(r, node))
        elif isinstance(node, Prop):
            component = self.var_index[node.var]
            for r in self.tuples:
                if node.name in self.mdp.labels[r[component - 1]]:
                    self.cs.add(self.holds(r, node))
                else:
                    self.cs.add(NotT(self.holds(r, node)))
        elif isinstance(node, And):
            self.encode_semantics(node.left)
            self.encode_semantics(node.right)
            for r in self.tuples:
                h, h1, h2 = self.holds(r, node), self.holds(r, node.left), self.holds(r, node.right)
                self.cs.add(OrT((AndT((h, h1, h2)), AndT((NotT(h), OrT((NotT(h1), NotT(h2))))))))
        elif isinstance(node, NotF):
            self.encode_semantics(node.operand)
            for r in self.tuples:
                self.cs.add(XorT(self.holds(r, node), self.holds(r, node.operand)))
        elif isinstance(node, Less):
            self.encode_semantics(node.left)
            self.encode_semantics(node.right)
            for r in self.tuples:
                h = self.holds(r, node)
                p1 = var(self.prob_name(r, node.left))
                p2 = var(self.prob_name(r, node.right))
                self.cs.add(OrT((
                    AndT((h, Cmp("<", p1, p2))),
                    AndT((NotT(h), Cmp(">=", p1, p2))),
                )))
        else:
            raise AssertionError(node)

    def _prob_var(self, r, node, kind: str) -> Lin:
        return var(self.cs.declare(self.prob_name(r, node), kind))

    def _encode_prob(self, node):
        if isinstance(node, Const):
            for r in self.tuples:
                self.cs.add(eq(self._prob_var(r, node, "value"), const(node.value)))
        elif isinstance(node, Arith):
            self.encode_semantics(node.left)
            self.encode_semantics(node.right)
            for r in self.tuples:
                out = self._prob_var(r, node, "value")
                left = var(self.prob_name(r, node.left))
                right = var(self.prob_name(r, node.right))
                if node.op == "+":
                    self.cs.add(eq(out, Lin(ZERO, left.terms + right.terms)))
                elif node.op == "-":
                    negated = tuple((-c, name) for c, name in right.terms)
                    self.cs.add(eq(out, Lin(ZERO, left.terms + negated)))
                else:
                    self._encode_product(r, node, out)
        elif isinstance(node, ProbOf):
            path = node.path
            if isinstance(path, Next):
                self.encode_next(node)
            elif isinstance(path, Until):
                self.encode_unbounded_until(node)
            else:
                self.encode_bounded_until(node)
        else:
            raise AssertionError(node)

    def _encode_product(self, r, node, out: Lin):
        # constant factors stay linear; variable*variable escalates the logic
        if isinstance(node.left, Const):
            scaled = tuple((node.left.value * c, name) for c, name in var(self.prob_name(r, node.right)).terms)
            self.cs.add(eq(out, Lin(ZERO, scaled)))
        elif isinstance(node.right, Const):
            scaled = tuple((node.right.value * c, name) for c, name in var(self.prob_name(r, node.left)).terms)
            self.cs.add(eq(out, Lin(ZERO, scaled)))
        else:
            self.cs.add(MulEq(out.terms[0][1], self.prob_name(r, node.left), self.prob_name(r, node.right)))

    def encode_next(self, node):
        operand = node.path.operand
        self.encode_semantics(operand)
        for r in self.tuples:
            ti = var(self.cs.declare(self.toint_name(r, operand), "toint"))
            h = self.holds(r, operand)
            self.cs.add(OrT((
                AndT((eq(ti, const(1)), h)),
                AndT((eq(ti, const(0)), NotT(h))),
            )))
        for r in self.tuples:
            pr = self._prob_var(r, node, "prob")
            for alpha in self.action_tuples(r):
                terms = tuple(
                    (p, self.cs.declare(self.toint_name(rp, operand), "toint"))
                    for rp, p in self.joint_successors(r, alpha)
                )
                self.cs.add(ImpliesT(self.guard(r, alpha), eq(pr, Lin(ZERO, terms))))

    def encode_unbounded_until(self, node):
        phi1, phi2 = node.path.left, node.path.right
        self.encode_semantics(phi1)
        self.encode_semantics(phi2)
        for r in self.tuples:
            pr = self._prob_var(r, node, "prob")
            h1, h2 = self.holds(r, phi1), self.holds(r, phi2)
            self.cs.add(ImpliesT(h2, eq(pr, const(1))))
            self.cs.add(ImpliesT(AndT((NotT(h1), NotT(h2))), eq(pr, const(0))))
            self.cs.declare(self.dist_name(r, phi2), "dist")
        for r in self.tuples:
            pr = var(self.prob_name(r, node))
            h1, h2 = self.holds(r, phi1), self.holds(r, phi2)
            d_r = var(self.dist_name(r, phi2))
            for alpha in self.action_tuples(r):
                succs = list(self.joint_successors(r, alpha))
                step = Lin(ZERO, tuple((p, self.prob_name(rp, node)) for rp, p in succs))
                # least fixed point: positive probability needs a successor
                # that is a target or strictly closer to one
                progress = OrT(tuple(
                    OrT((self.holds(rp, phi2), Cmp(">", d_r, var(self.dist_name(rp, phi2)))))
                    for rp, _ in succs
                ))
                self.cs.add(ImpliesT(
                    AndT((h1, NotT(h2)) + self.guard(r, alpha).items),
                    AndT((eq(pr, step), ImpliesT(Cmp(">", pr, const(0)), progress))),
                ))

    def encode_bounded_until(self, node):
        path = node.path
        k1, k2 = path.k1, path.k2
        phi1, phi2 = path.left, path.right
        if k2 == 0:
            self.encode_semantics(phi1)
            self.encode_semantics(phi2)
            for r in self.tuples:
                pr = self._prob_var(r, node, "prob")
                h2 = self.holds(r, phi2)
                self.cs.add(ImpliesT(h2, eq(pr, const(1))))
                self.cs.add(ImpliesT(NotT(h2), eq(pr, const(0))))
            return
        if k1 == 0:
            child = ProbOf(BoundedUntil(phi1, phi2, 0, k2 - 1))
            self.encode_semantics(child)
            for r in self.tuples:
                pr = self._prob_var(r, node, "prob")
                h1, h2 = self.holds(r, phi1), self.holds(r, phi2)
                self.cs.add(ImpliesT(h2, eq(pr, const(1))))
                self.cs.add(ImpliesT(AndT((NotT(h1), NotT(h2))), eq(pr, const(0))))
                for alpha in self.action_tuples(r):
                    step = Lin(ZERO, tuple(
                        (p, self.prob_name(rp, child)) for rp, p in self.joint_successors(r, alpha)
                    ))
                    self.cs.add(ImpliesT(
                        AndT((h1, NotT(h2)) + self.guard(r, alpha).items),
                        eq(var(self.prob_name(r, node)), step),
                    ))
            return
        child = ProbOf(BoundedUntil(phi1, phi2, k1 - 1, k2 - 1))
        self.encode_semantics(child)
        for r in self.tuples:
            pr = self._prob_var(r, node, "prob")
            h1 = self.holds(r, phi1)
            self.cs.add(ImpliesT(NotT(h1), eq(pr, const(0))))
            for alpha in self.action_tuples(r):
                step = Lin(ZERO, tuple(
                    (p, self.prob_name(rp, child)) for rp, p in self.joint_successors(r, alpha)
                ))
                self.cs.add(ImpliesT(
                    AndT((h1,) + self.guard(r, alpha).items),
                    eq(var(self.prob_name(r, node)), step),
                ))

    # truth of the input formula -------------------------------------------------

    def encode_truth(self):
        body = self.f.body
        if self.n == 0:
            term = self.holds((), body)
        else:
            term = self._truth_level(0, list(self.tuples))
        self.cs.truth = term
        self.cs.add(term)

    def _truth_level(self, depth: int, tuples: List[tuple]) -> Term:
        if depth == self.n:
            assert len(tuples) == 1
            return self.holds(tuples[0], self.f.body)
        groups = {}
        for r in tuples:
            groups.setdefault(r[depth], []).append(r)
        items = tuple(self._truth_level(depth + 1, group) for _, group in sorted(
            groups.items(), key=lambda kv: self.mdp.states.index(kv[0])
        ))
        if self.state_quants[depth].exists:
            return OrT(items)
        return AndT(items)


def encode_main(mdp: Mdp, f: Formula, prune: bool = False) -> Tuple[ConstraintSystem, str]:
    """Build the full constraint system; polarity says whether the verdict
    must be inverted (universal scheduler block)."""
    f_enc, polarity = transform_for_encoding(f)
    encoder = Encoder(mdp, f_enc, polarity, prune=prune)
    cs = encoder.encode()
    cs.meta.original = f
    return cs, polarity


# -- variable naming shared by encoder, eager solver and decoder -------------------


def holds_sym(r, idx: int) -> str:
    return f"h_{_tuple_name(r)}_{idx}"


def prob_sym(r, idx: int) -> str:
    return f"pr_{_tuple_name(r)}_{idx}"


def toint_sym(r, idx: int) -> str:
    return f"ti_{_tuple_name(r)}_{idx}"


def dist_sym(r, idx: int) -> str:
    return f"d_{_tuple_name(r)}_{idx}"


def choice_sym(family: int, state: str, action: str) -> str:
    return f"ch_{family}_{state}_{action}"


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
            left, right = self.value(node.left), self.value(node.right)
            if node.op == "+":
                vec = {r: left[r] + right[r] for r in self.d.states}
            elif node.op == "-":
                vec = {r: left[r] - right[r] for r in self.d.states}
            else:
                vec = {r: left[r] * right[r] for r in self.d.states}
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
    keepset = set(keep)
    return Dtmc(
        states=keep,
        trans={r: composed.trans[r] for r in keep},
        ap=composed.ap,
        labels={r: composed.labels[r] for r in keep},
    )


def truth_eval(state_quants, state_order, tuples, holds_fn):
    """Evaluate the nested state-quantifier structure over body truth values.

    Returns the verdict and, for existential levels on the deciding
    branch, the first satisfying state per quantifier.
    """
    n = len(state_quants)
    if n == 0:
        return holds_fn(()), {}
    order = {s: i for i, s in enumerate(state_order)}

    def level(depth, group):
        if depth == n:
            return holds_fn(group[0]), {}
        q = state_quants[depth]
        buckets: Dict[str, list] = {}
        for r in group:
            buckets.setdefault(r[depth], []).append(r)
        items = sorted(buckets.items(), key=lambda kv: order[kv[0]])
        if q.exists:
            for s, sub in items:
                truth, picks = level(depth + 1, sub)
                if truth:
                    return True, {q.name: s, **picks}
            return False, {}
        for s, sub in items:
            truth, picks = level(depth + 1, sub)
            if not truth:
                return False, {q.name: s, **picks}
        return True, {}

    return level(0, list(tuples))


# -- eager solving -------------------------------------------------------------------


@dataclass
class SmtVerdict:
    sat: bool
    polarity: str
    model: Optional[dict] = None
    decoded: Optional[Verdict] = None


def _light_system(mdp: Mdp, encoder_meta: EncodingMeta) -> ConstraintSystem:
    cs = ConstraintSystem()
    for family, _ in enumerate(encoder_meta.sched_names):
        for s in mdp.states:
            cs.choice_domains[(family, s)] = mdp.enabled[s]
    cs.meta = encoder_meta
    return cs


def solve_eager(
    mdp: Mdp,
    f: Formula,
    max_sched_vars: int = 3,
    max_state_vars: int = 3,
    jobs: int = 1,
    prune: bool = False,
) -> SmtVerdict:
    """Enumerate choice assignments; evaluate the collapsed system each time.

    Returns the first (lexicographically least) satisfying assignment as
    the model, independent of the degree of parallelism.
    """
    validate_inputs(mdp, f, max_sched_vars, max_state_vars)
    f_enc, polarity = transform_for_encoding(f)
    sched_names = tuple(q.name for q in f_enc.prefix if isinstance(q, SchedQuant))
    state_quants = tuple(q for q in f_enc.prefix if isinstance(q, StateQuant))
    n = len(state_quants)
    if prune and n > 0:
        tuples = reachable_tuples(mdp, n, _init_tuples(mdp, n))
    else:
        tuples = tuple(itertools.product(mdp.states, repeat=n)) if n else ((),)
    meta = EncodingMeta(
        polarity=polarity,
        original=f,
        encoded=f_enc,
        sched_names=sched_names,
        state_quants=state_quants,
        fam_of_component=tuple(sched_names.index(q.sched) for q in state_quants),
        var_index=state_var_index(f_enc),
        states=mdp.states,
        tuples=tuples,
        body_index=0,
    )
    cs = _light_system(mdp, meta)

    assignments = list(enumerate_schedulers(mdp)) if sched_names else []
    combos = list(itertools.product(assignments, repeat=len(sched_names)))

    def evaluate(combo):
        chosen = dict(zip(sched_names, combo))
        composed, var_index = build_composition(mdp, f_enc, chosen)
        if prune and n > 0:
            composed = _restrict(composed, tuples)
        ve = VectorEvaluator(composed, var_index)
        body_vec = ve.holds(f_enc.body)
        truth, _picks = truth_eval(state_quants, mdp.states, composed.states if n else ((),), body_vec.__getitem__)
        return truth, body_vec

    hit = None
    if jobs is None or jobs <= 1:
        for combo in combos:
            truth, body_vec = evaluate(combo)
            if truth:
                hit = (combo, body_vec)
                break
    else:
        chunk_size = max(jobs * 2, 8)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for start in range(0, len(combos), chunk_size):
                chunk = combos[start:start + chunk_size]
                for combo, (truth, body_vec) in zip(chunk, pool.map(evaluate, chunk)):
                    if truth:
                        hit = (combo, body_vec)
                        break
                if hit:
                    break

    if hit is None:
        truth_final = polarity == "negated"
        return SmtVerdict(sat=False, polarity=polarity,
                          decoded=assemble_verdict(f, truth_final, {}))

    combo, body_vec = hit
    model: Dict[str, object] = {}
    for family, name in enumerate(sched_names):
        for s in mdp.states:
            for a in mdp.enabled[s]:
                model[choice_sym(family, s, a)] = (combo[family].choice(s) == a)
    for r in meta.tuples:
        model[holds_sym(r, meta.body_index)] = body_vec[r]
    decoded = decode_witness(cs, model, f)
    return SmtVerdict(sat=True, polarity=polarity, model=model, decoded=decoded)


# -- decoding -----------------------------------------------------------------------


def decode_witness(cs: ConstraintSystem, model: dict, f: Formula) -> Verdict:
    """Extract scheduler assignments and existential state indices from a
    satisfying model; inverted polarity turns them into a counterexample."""
    meta: EncodingMeta = cs.meta
    choices = {}
    for (family, state), actions in cs.choice_domains.items():
        picked = [a for a in actions if model.get(choice_sym(family, state, a)) is True]
        if len(picked) != 1:
            raise IncompleteModel(f"choice variable for family {family}, state {state!r} unresolved")
        choices[(family, state)] = picked[0]
    trace: Dict[str, object] = {}
    for family, name in enumerate(meta.sched_names):
        trace[name] = SchedulerAssignment(
            states=meta.states,
            actions=tuple(choices[(family, s)] for s in meta.states),
        )

    def body_holds(r):
        key = holds_sym(r, meta.body_index)
        if key not in model:
            raise IncompleteModel(f"missing truth value {key}")
        return bool(model[key])

    inner_truth, picks = truth_eval(meta.state_quants, meta.states, meta.tuples, body_holds)
    trace.update(picks)
    truth_final = inner_truth if meta.polarity == "direct" else not inner_truth
    return assemble_verdict(f, truth_final, trace)


def full_assignment(cs: ConstraintSystem, mdp: Mdp, chosen: Dict[str, SchedulerAssignment]):
    """Complete variable assignment induced by a choice of schedulers.

    Recomputes every encoded subformula's vectors via the analysis module;
    used to cross-check that the emitted constraints are satisfied by the
    exact semantics (soundness of the encoding).
    """
    meta: EncodingMeta = cs.meta
    composed, var_index = build_composition(mdp, meta.encoded, chosen)
    if len(composed.states) != len(meta.tuples):
        composed = _restrict(composed, meta.tuples)
    ve = VectorEvaluator(composed, var_index)
    values: Dict[str, Fraction] = {}
    bool_kinds = (TrueF, Prop, And, NotF, Less)
    for node, idx in cs.subformula_index.items():
        if isinstance(node, bool_kinds):
            vec = ve.holds(node)
            for r in meta.tuples:
                values[holds_sym(r, idx)] = vec[r]
        else:
            vec = ve.value(node)
            for r in meta.tuples:
                values[prob_sym(r, idx)] = vec[r]
        if isinstance(node, ProbOf) and isinstance(node.path, Next):
            operand_idx = cs.subformula_index[node.path.operand]
            op_vec = ve.holds(node.path.operand)
            for r in meta.tuples:
                values[toint_sym(r, operand_idx)] = ONE if op_vec[r] else ZERO
        if isinstance(node, ProbOf) and isinstance(node.path, Until):
            phi2_idx = cs.subformula_index[node.path.right]
            dist = ve.distances(node.path.right)
            for r in meta.tuples:
                values[dist_sym(r, phi2_idx)] = Fraction(dist[r])
    choices = {}
    for (family, state), _ in cs.choice_domains.items():
        choices[(family, state)] = chosen[meta.sched_names[family]].choice(state)
    return values, choices


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
    """Run ``solver_path <file.smt2>``; returns ('sat'|'unsat'|'unknown', model).

    The script file is removed afterwards; a solver still running after
    ``timeout`` seconds is killed and reported as IncompleteModel.
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
        return "unknown", {}
    if first == "unsat":
        return "unsat", {}
    return "sat", parse_solver_model(output)


def check_external(mdp: Mdp, f: Formula, solver_path: str, prune: bool = False) -> SmtVerdict:
    """Encode, hand to an external QF_LRA solver, decode its model."""
    cs, polarity = encode_main(mdp, f, prune=prune)
    answer, model = run_external_solver(solver_path, emit_smtlib2(cs))
    if answer == "unknown":
        raise IncompleteModel("external solver returned neither sat nor unsat")
    if answer == "unsat":
        truth_final = polarity == "negated"
        return SmtVerdict(sat=False, polarity=polarity,
                          decoded=assemble_verdict(f, truth_final, {}))
    decoded = decode_witness(cs, model, f)
    return SmtVerdict(sat=True, polarity=polarity, model=model, decoded=decoded)
