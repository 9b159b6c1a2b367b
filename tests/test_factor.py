"""Joint reachability over closed targets is the product of its marginals.

``enumcheck.factor_joint`` rewrites ``P(X (α(x) & β(y)))`` always, and
``P(F ...)``, ``P(F<=k ...)`` and ``P(F[k1,k2] ...)`` where the states of α
and of β are closed, into ``P(X α(x)) * P(X β(y))`` and the like.  These
tests read every factored value against ``VectorEvaluator`` on the whole
product, at every point, check that a target that is not closed stays
joint, and that ``decide``, which factors, answers as
``tests/helpers.reference_decide``, which evaluates the formula as written.
"""

import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypermdp import cases, enumcheck
from hypermdp.enumcheck import Evaluator, build_composition, check, decide, factor_joint
from hypermdp.formula import (
    TRUE,
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
    Until,
    parse_formula,
    state_var_index,
)
from hypermdp.model import Mdp, enumerate_schedulers, parse_mdp
from hypermdp.smt import VectorEvaluator
from .helpers import PUBLISHED_ROWS, TS_INDEP, full_product, random_mdp, reference_decide

STATE_VARS = ("x", "y", "z")


def with_closed_label(mdp: Mdp, start) -> Mdp:
    """``mdp`` with ``c`` on the states that ``start`` reaches under any
    actions: a closed set, beside the random labels, which mostly are not."""
    inside, frontier = set(start), list(start)
    for s in frontier:  # the loop reaches what it appends
        for a in mdp.enabled[s]:
            for t, _ in mdp.trans[s, a]:
                if t not in inside:
                    inside.add(t)
                    frontier.append(t)
    labels = {s: labels | {"c"} if s in inside else labels for s, labels in mdp.labels.items()}
    return Mdp(states=mdp.states, actions=mdp.actions, enabled=mdp.enabled, trans=mdp.trans,
               ap=mdp.ap + ("c",), labels=labels)


def holds(node, labels) -> bool:
    if isinstance(node, NotF):
        return not holds(node.operand, labels)
    if isinstance(node, And):
        return holds(node.left, labels) and holds(node.right, labels)
    return node.name in labels


def closed(mdp: Mdp, node) -> bool:
    """Whether every listed successor of the states where ``node`` holds is one of them."""
    inside = [s for s in mdp.states if holds(node, mdp.labels[s])]
    return all(holds(node, mdp.labels[t]) for s in inside for a in mdp.enabled[s] for t, _ in mdp.trans[s, a])


def groups(names):
    """A Boolean combination of propositions of one of ``names``, ``c``, closed, the likeliest."""
    def of(v):
        leaf = st.builds(Prop, st.sampled_from(("c", "c", "c", "a", "b")), st.just(v))
        return st.recursive(leaf, lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(NotF, sub)),
                            max_leaves=3)

    return st.sampled_from(names).flatmap(lambda v: of(v).map(lambda g: (v, g)))


@st.composite
def factorable(draw):
    """A model with a closed label and a formula ``0 < P(path)`` whose path
    is ``X``, ``F``, ``F<=k`` or ``F[k1,k2]`` over a conjunction that spans
    two or three components, its conjuncts interleaved across them."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    mdp = random_mdp(rng, max_states=3)
    mdp = with_closed_label(mdp, draw(st.sets(st.sampled_from(mdp.states), min_size=1)))
    n = draw(st.integers(2, 3))
    names = STATE_VARS[:n]
    conjuncts = draw(st.lists(groups(names), min_size=2, max_size=4).filter(lambda cs: len({v for v, _ in cs}) > 1))
    target = functools.reduce(And, [g for _, g in conjuncts])
    k1, extra = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    path = draw(st.sampled_from((Next(target), Until(TRUE, target), BoundedUntil(TRUE, target, 0, k1 + extra),
                                 BoundedUntil(TRUE, target, k1, k1 + extra))))
    m = draw(st.integers(1, 2))
    prefix = [SchedQuant(False, f"s{j}") for j in range(m)]
    prefix += [StateQuant(False, v, f"s{draw(st.integers(0, m - 1))}") for v in names]
    per_var = {v: functools.reduce(And, [g for u, g in conjuncts if u == v]) for v, _ in conjuncts}
    return mdp, Formula(prefix=tuple(prefix), body=Less(Const(Fraction(0)), ProbOf(path))), per_var


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=factorable(), data=st.data())
def test_every_factored_value_matches_the_full_composition(case, data):
    mdp, f, per_var = case
    joint, path = f.body.right, f.body.right.path
    g = factor_joint(mdp, f, Evaluator(mdp, f).supports)
    factors = isinstance(path, Next) or all(closed(mdp, target) for target in per_var.values())
    assert (g is not f) == factors
    if factors:  # one P(...) per component, in component order
        product, marginals = g.body.right, []
        while isinstance(product, Arith):
            product, last = product.left, product.right
            marginals.insert(0, last)
        marginals.insert(0, product)
        assert [type(p.path) for p in marginals] == [type(path)] * len(per_var)
        assert [p.path.operand if isinstance(path, Next) else p.path.right for p in marginals] == \
            [per_var[v] for v in STATE_VARS if v in per_var]
    ev, var_index = Evaluator(mdp, g), state_var_index(f)
    schedulers = list(enumerate_schedulers(mdp))
    names = [q.name for q in f.prefix if isinstance(q, SchedQuant)]
    for _ in range(3):
        composition = build_composition(f, {name: data.draw(st.sampled_from(schedulers)) for name in names})
        ev.bind(composition)
        vector = VectorEvaluator(full_product(mdp, composition), var_index).value(joint)
        for at in itertools.product(mdp.states, repeat=len(var_index)):
            assert ev.value(g.body.right, at) == vector[at], at


FLIP_FLOP = parse_mdp("states: a b\n"
                      "labels: a: a\n"
                      "action a go: b 1\n"
                      "action b go: a 1\n")


def test_a_target_that_is_not_closed_stays_joint():
    # the two components alternate out of phase from (a, b), so they never
    # meet in a at once, though each reaches it: the product of the
    # marginals would be 1, and factored the claim would read false
    f = parse_formula("forall sched s. forall st x(s). forall st y(s). (a(x) & !a(y)) -> P(F (a(x) & a(y))) = 0")
    assert factor_joint(FLIP_FLOP, f, Evaluator(FLIP_FLOP, f).supports) is f
    assert check(FLIP_FLOP, f).truth is True
    ev = Evaluator(FLIP_FLOP, f)
    ev.bind(build_composition(f, {"s": next(enumerate_schedulers(FLIP_FLOP))}))
    joint = ProbOf(Until(TRUE, And(Prop("a", "x"), Prop("a", "y"))))
    product = Arith("*", ProbOf(Until(TRUE, Prop("a", "x"))), ProbOf(Until(TRUE, Prop("a", "y"))))
    assert (ev.value(joint, ("a", "b")), ev.value(product, ("a", "b"))) == (0, 1)


def test_a_body_with_no_joint_probability_comes_back_unchanged():
    # and the evaluator takes the support table that the rewrite scanned:
    # one walk of the body per check, as before the rewrite
    for family, params in PUBLISHED_ROWS.values():
        spec = cases.generate(family, **params)
        f = spec.formula
        assert factor_joint(spec.mdp, f, Evaluator(spec.mdp, f).supports) is f
        with mock.patch.object(enumcheck, "subformula_supports", wraps=enumcheck.subformula_supports) as walks:
            check(spec.mdp, f)
        assert walks.call_count == 1


@pytest.mark.parametrize("row", sorted(PUBLISHED_ROWS) + ["ts_indep", "ta_m2_indep"])
def test_decide_agrees_with_the_unfactored_reference(row):
    # truth and the values on the deciding branch, the rewrite's two
    # subjects (ts_indep, ta_m2_indep) among them
    if row == "ts_indep":
        mdp, f = cases.generate("ts", h1=0, h2=1).mdp, parse_formula(TS_INDEP)
    elif row == "ta_m2_indep":
        mdp, f = cases.generate("ta", m=2).mdp, parse_formula(TS_INDEP.replace("l=1", "j=0"))
    else:
        family, params = PUBLISHED_ROWS[row]
        spec = cases.generate(family, **params)
        mdp, f = spec.mdp, spec.formula
    assert decide(mdp, f) == reference_decide(mdp, f)
