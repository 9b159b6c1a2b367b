"""The projected evaluator against the full self-composition.

Every path formula is solved on the chains of only the components it
mentions, and only at the points reachable from where it is read; these
tests check that against ``VectorEvaluator`` on the whole n-fold product,
on random models and formulas and for vectors read a few points at a
time, and that the work, the caches and the eager sweep stay bounded by
the model and formula.
"""

import gc
import itertools
import random
import time
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypermdp import analysis, cases, enumcheck, smt
from hypermdp.enumcheck import Evaluator, build_composition, check, replay
from hypermdp.formula import (
    And,
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
    parse_formula,
    state_var_index,
)
from hypermdp.model import Mdp, enumerate_schedulers
from hypermdp.smt import VectorEvaluator, solve_eager
from .helpers import AP_POOL, full_product, random_mdp

STATE_VARS = ("x", "y", "z")


def bodies(names, depth):
    leaf = st.one_of(st.just(TrueF()), st.builds(Prop, st.sampled_from(AP_POOL), st.sampled_from(names)))
    if depth == 0:
        return leaf
    sub = bodies(names, depth - 1)
    return st.one_of(
        leaf,
        st.builds(And, sub, sub),
        st.builds(NotF, sub),
        st.builds(Less, pexprs(names, depth - 1), pexprs(names, depth - 1)),
    )


def pexprs(names, depth):
    operand = bodies(names, depth)
    paths = st.one_of(
        st.builds(Next, operand),
        st.builds(Until, operand, operand),
        st.builds(lambda left, right, k1, extra: BoundedUntil(left, right, k1, k1 + extra),
                  operand, operand, st.integers(0, 2), st.integers(0, 2)),
    )
    return st.one_of(st.builds(Const, st.fractions(0, 1, max_denominator=4)), st.builds(ProbOf, paths))


@st.composite
def formulas(draw):
    """1-3 state variables over 1-2 scheduler variables of one kind; the
    body compares probabilities, whose operands may couple variables and
    nest further probabilities."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    names = STATE_VARS[:n]
    sched_exists = draw(st.booleans())
    prefix = [SchedQuant(sched_exists, f"s{j}") for j in range(m)]
    prefix += [StateQuant(draw(st.booleans()), v, f"s{draw(st.integers(0, m - 1))}") for v in names]
    body = draw(st.builds(Less, pexprs(names, 2), pexprs(names, 2)))
    if draw(st.booleans()):
        body = And(draw(bodies(names, 1)), body)
    return Formula(prefix=tuple(prefix), body=body)


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(seed=st.integers(0, 10**6), f=formulas())
def test_every_probability_matches_the_full_composition(seed, f):
    mdp = random_mdp(random.Random(seed), max_states=3)
    ev = Evaluator(mdp, f)
    nodes = [node for node in ev.supports if isinstance(node, ProbOf)]
    names = [q.name for q in f.prefix if isinstance(q, SchedQuant)]
    for combo in itertools.product(list(enumerate_schedulers(mdp)), repeat=len(names)):
        composition = build_composition(f, dict(zip(names, combo)))
        ev.bind(composition)
        full = VectorEvaluator(full_product(mdp, composition), ev.var_index)
        body = full.holds(f.body)
        for at, holds in body.items():
            assert ev.holds(at) == holds
            for node in nodes:
                assert ev.value(node, at) == full.value(node)[at], node


@pytest.mark.hashorder
@PROPERTY
@given(seed=st.integers(0, 10**6), f=formulas())
def test_engines_agree_and_verdicts_replay(seed, f):
    mdp = random_mdp(random.Random(seed), max_states=3)
    enum_verdict = check(mdp, f)
    eager_verdict = solve_eager(mdp, f).decoded
    assert enum_verdict == eager_verdict
    if enum_verdict.mode != "none":
        assert replay(mdp, f, enum_verdict) == (enum_verdict.mode == "witness")


def test_coupled_and_nested_operands_on_three_variables():
    # fixed instances of the shapes the generator may miss: a coupled
    # operand over two of three components, and a nested probability
    rng = random.Random(5)
    text = ("forall sched s1. forall sched s2. forall st x(s1). exists st y(s2). forall st z(s1). "
            "P(F (a(x) & b(z))) <= P(X (P(a(y) U[1,2] b(x)) > 1/4)) + P(F a(y))")
    f = parse_formula(text)
    for _ in range(3):
        mdp = random_mdp(rng, max_states=3)
        assert check(mdp, f).truth == solve_eager(mdp, f).decoded.truth
        test_every_probability_matches_the_full_composition.hypothesis.inner_test(rng.randrange(10**6), f)


def init_guarded(f: Formula) -> Formula:
    """``(init(x) & init(y) & ...) -> body``."""
    names = [q.name for q in f.prefix if isinstance(q, StateQuant)]
    guard = Prop("init", names[0])
    for name in names[1:]:
        guard = And(guard, Prop("init", name))
    return Formula(prefix=f.prefix, body=NotF(And(guard, NotF(f.body))))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), f=formulas(), data=st.data())
def test_partial_reads_match_the_full_composition(seed, f, data):
    # a fresh evaluator reads one arbitrary point first, then the rest in
    # reverse state order, so every vector is solved in several closures,
    # each on the boundary of the earlier ones
    mdp = random_mdp(random.Random(seed), max_states=6)
    names = [q.name for q in f.prefix if isinstance(q, SchedQuant)]
    schedulers = list(enumerate_schedulers(mdp))
    composition = build_composition(f, {name: data.draw(st.sampled_from(schedulers)) for name in names})
    tuples = list(itertools.product(mdp.states, repeat=len(composition)))
    first = data.draw(st.sampled_from(tuples))
    full = VectorEvaluator(full_product(mdp, composition), state_var_index(f))
    for g in (f, init_guarded(f)):
        ev = Evaluator(mdp, g)
        ev.bind(composition)
        body = full.holds(g.body)
        # the guarded body reads its probabilities at init tuples only
        for at in [first] + tuples[::-1]:
            assert ev.holds(at) == body[at], at
        for node in [node for node in ev.supports if isinstance(node, ProbOf)]:
            vector = full.value(node)
            for at in [first] + tuples[::-1]:
                assert ev.value(node, at) == vector[at], (node, at)


def test_reverse_reads_of_plain_until_match_the_full_composition():
    # the operand shapes that make a later closure depend on an earlier one
    # whose values lie strictly between 0 and 1
    f = parse_formula("exists sched s. exists st x(s). exists st y(s). "
                      "P(a(x) U b(x)) < P(a(x) U (b(x) & b(y)))")
    rng = random.Random(11)
    for _ in range(150):
        mdp = random_mdp(rng, max_states=6)
        composition = build_composition(f, {"s": rng.choice(list(enumerate_schedulers(mdp)))})
        full = VectorEvaluator(full_product(mdp, composition), {"x": 1, "y": 2})
        ev = Evaluator(mdp, f)
        ev.bind(composition)
        for node in [node for node in ev.supports if isinstance(node, ProbOf)]:
            vector = full.value(node)
            for at in reversed(list(itertools.product(mdp.states, repeat=2))):
                assert ev.value(node, at) == vector[at], (node, at)


def _path(n: int) -> Mdp:
    """q0 -> q1 -> ... -> q(n-1), the sink and the only a-state."""
    states = tuple(f"q{i}" for i in range(n))
    return Mdp(
        states=states,
        actions=("go",),
        enabled={s: ("go",) for s in states},
        trans={(s, "go"): ((states[min(i + 1, n - 1)], Fraction(1)),) for i, s in enumerate(states)},
        ap=("a",),
        labels={s: frozenset({"a"} if s == states[-1] else ()) for s in states},
    )


def test_reads_from_the_sink_end_of_a_path_solve_each_point_once():
    n = 200
    mdp = _path(n)
    states = mdp.states
    f = parse_formula("exists sched s. exists st x(s). true")
    unbounded = ProbOf(Until(TrueF(), Prop("a", "x")))
    bounded = ProbOf(BoundedUntil(TrueF(), Prop("a", "x"), 0, 3))
    ev = Evaluator(mdp, f)
    ev.bind(build_composition(f, {"s": next(enumerate_schedulers(mdp))}))
    # the unbounded vector solves each point once; the bounded one solves
    # the whole chain in one call on its first miss
    for name, node in (("until_probs", unbounded), ("bounded_until_probs", bounded)):
        solve = getattr(analysis, name)
        sizes = []

        def spy(d, *args, solve=solve, sizes=sizes):
            sizes.append(len(d.states))
            return solve(d, *args)

        with mock.patch.object(analysis, name, spy):
            for i in reversed(range(n)):
                expected = 1 if node is unbounded or i >= n - 4 else 0
                assert ev.value(node, (states[i],)) == expected
        assert 0 < sum(sizes) <= 2 * n, (name, sizes)
        assert node is unbounded or sizes == [n], sizes


def _bounded_values(mdp: Mdp, f: Formula, verdict) -> dict:
    """The values of ``f``'s one bounded until at every state, under the
    scheduler of ``verdict``, or the first one."""
    ev = Evaluator(mdp, f)
    (node,) = [node for node in ev.supports if isinstance(node, ProbOf)]
    ev.bind(build_composition(f, verdict.schedulers or {"s": next(enumerate_schedulers(mdp))}))
    return {s: ev.value(node, (s,)) for s in mdp.states}


def test_a_bound_of_a_million_on_the_coin_decides_through_check(m_coin):
    # s0's value still moves after |S| steps, so the rest of the bound is one squared power of the step map
    k = 10**6
    f = parse_formula(f"exists sched s. exists st x(s). P(F<={k} a(x)) > 1/2")
    start = time.perf_counter()
    verdict = check(m_coin, f)
    assert time.perf_counter() - start < 10
    assert (verdict.truth, verdict.mode, verdict.states) == (True, "witness", {"x": "s0"})
    assert verdict.schedulers["s"].actions[0] == "alpha"
    # under alpha s0 stays with 1/2 at each step: it reaches a within k steps with 1 - 2^-k
    assert _bounded_values(m_coin, f, verdict) == {"s0": 1 - Fraction(1, 2**k), "s1": 1, "s2": 0}


def test_a_bound_past_the_end_of_a_path_decides_at_once():
    # every state reaches the sink within 199 steps, so the phase settles
    # there and the remaining steps of 10^9 are never taken
    mdp = _path(200)
    for k, truth in ((10**9, True), (150, False)):
        f = parse_formula(f"forall sched s. forall st x(s). P(F<={k} a(x)) = 1")
        start = time.perf_counter()
        verdict = check(mdp, f)
        assert time.perf_counter() - start < 2
        assert verdict.truth is truth
        assert _bounded_values(mdp, f, verdict) == {s: int(199 - i <= k) for i, s in enumerate(mdp.states)}


@pytest.mark.parametrize("family, params, calls, states", [
    ("pc", {"tier": "s0"}, 6, 120),
    ("pc", {"tier": "s01"}, 6, 120),
    ("ts", {"h1": 0, "h2": 1}, 3, 16),
])
def test_one_until_solve_per_path_and_bind(family, params, calls, states):
    # the first miss under a bind solves from every point the quantifier
    # walk may read, so a second init state's read starts no solve of its own
    spec = cases.generate(family, **params)
    sizes = []

    def spy(d, *args, solve=analysis.until_probs):
        sizes.append(len(d.states))
        return solve(d, *args)

    with mock.patch.object(analysis, "until_probs", spy):
        check(spec.mdp, spec.formula)
    assert (len(sizes), sum(sizes)) == (calls, states)


@pytest.mark.hashorder
def test_cache_stays_bounded_through_a_full_sweep():
    rng = random.Random(3)
    mdp = next(m for m in iter(lambda: random_mdp(rng), None) if m.scheduler_space_size() == 16)
    f = parse_formula(
        "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
        "P(F (a(x) & a(y))) = P(F a(x)) * P(F a(y)) | P(X b(x)) < P(a(y) U[0,3] b(y))"
    )
    ev = Evaluator(mdp, f)
    paths = {node for node in ev.supports if isinstance(node, ProbOf)}
    supports = {ev.supports[node] for node in paths}
    # at most one vector per path formula and rows per support chain for each
    # way of filling a two-component support from the two bound assignments
    bound = (len(paths) + len(supports)) * 2 ** 2
    schedulers = list(enumerate_schedulers(mdp))
    assert len(schedulers) ** 2 > 4 * bound
    largest, widths, full, full_truths = 0, {}, set(), set()
    for first, second in itertools.product(schedulers, repeat=2):
        ev.bind(build_composition(f, {"s1": first, "s2": second}))
        for at in itertools.product(mdp.states, repeat=2):
            ev.holds(at)
        # vectors and rows only for bound assignments
        keys = [*ev.chains, *(key for _, key in ev.vectors)]
        assert all(a is first.actions or a is second.actions for key in keys for a in key)
        largest = max(largest, len(ev.chains) + len(ev.vectors))
        # at most 4 * m^|K| signatures per (renamed path, point), m = 2 scheduler quantifiers
        widths.update((renamed, len(key)) for renamed, key in ev.vectors)
        for renamed, table in ev.table.items():
            limit = 4 * 2 ** widths[renamed]
            assert all(len(row) <= limit for row in table.values())
            full.update((renamed, point) for point, row in table.items() if len(row) == limit)
        # and at most 4 * m^n truths per composed tuple, n = 2 state variables
        assert all(len(row) <= 4 * 2 ** 2 for row in ev.truths.values())
        full_truths.update(at for at, row in ev.truths.items() if len(row) == 4 * 2 ** 2)
        # and at most R^|K| joint rows for the evaluator's life, R the model's rows
        assert len(ev.joint) <= len(mdp.trans) ** 2
    assert largest <= bound
    # each keyed by the identities of ``mdp.trans``'s rows, which outlive the table
    assert ev.joint and {i for key in ev.joint for i in key} <= set(map(id, mdp.trans.values()))
    assert full  # the sweep meets more signatures than a point keeps
    assert full_truths  # and more than a composed tuple keeps


@st.composite
def mixed_formulas(draw):
    """Like ``formulas``, but each scheduler quantifier draws its own kind."""
    f = draw(formulas())
    kinds = draw(st.lists(st.booleans(), min_size=len(f.prefix), max_size=len(f.prefix)))
    prefix = tuple(SchedQuant(exists, q.name) if isinstance(q, SchedQuant) else q
                   for q, exists in zip(f.prefix, kinds))
    return Formula(prefix=prefix, body=f.body)


@pytest.mark.hashorder
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), f=mixed_formulas(), order_seed=st.integers(0, 10**6))
def test_reused_values_equal_a_fresh_evaluator_in_any_sweep_order(seed, f, order_seed):
    # one evaluator runs through every combination, reusing values across
    # them; at every tuple it must give what an evaluator bound to that
    # combination alone gives, whatever the order of the sweep
    mdp = random_mdp(random.Random(seed), max_states=3)
    names = [q.name for q in f.prefix if isinstance(q, SchedQuant)]
    tuples = list(itertools.product(mdp.states, repeat=len(state_var_index(f))))
    nodes = [node for node in Evaluator(mdp, f).supports if isinstance(node, ProbOf)]

    def values(ev, combo, points):
        ev.bind(build_composition(f, dict(zip(names, combo))))
        return {at: (ev.holds(at), [ev.value(node, at) for node in nodes]) for at in points}

    combos = list(itertools.product(list(enumerate_schedulers(mdp)), repeat=len(names)))
    expected = {combo: values(Evaluator(mdp, f), combo, tuples) for combo in combos}
    # the reversed sweep binds equal assignments that are distinct objects,
    # as decide does when it enumerates a scheduler variable afresh
    apart = itertools.product(*(list(enumerate_schedulers(mdp)) for _ in names))
    shuffled = random.Random(order_seed).sample(combos, len(combos))
    for order, points in ((combos, tuples), (list(apart)[::-1], tuples[::-1]), (shuffled, tuples)):
        ev = Evaluator(mdp, f)
        for combo in order:
            assert values(ev, combo, points) == expected[combo], combo


def _fork() -> Mdp:
    """q0 loops to itself and falls into q1 (labelled a); q2 chooses
    between q1 ("left") and a coin over q1 and q3 ("right").  Nothing
    reaches q2 from q0 or q1."""
    half = Fraction(1, 2)
    trans = {("q0", "go"): (("q0", half), ("q1", half)), ("q1", "go"): (("q1", Fraction(1)),),
             ("q2", "left"): (("q1", Fraction(1)),), ("q2", "right"): (("q1", half), ("q3", half)),
             ("q3", "go"): (("q3", Fraction(1)),)}
    enabled = {"q0": ("go",), "q1": ("go",), "q2": ("left", "right"), "q3": ("go",)}
    return Mdp(states=("q0", "q1", "q2", "q3"), actions=("go", "left", "right"), enabled=enabled,
               trans=trans, ap=("a",), labels={s: frozenset({"a"} if s == "q1" else ()) for s in enabled})


def _solves(ev, node, at):
    """The value of ``node`` at ``at``, and the states of each until solve it makes."""
    solved = []

    def spy(d, *args, solve=analysis.until_probs):
        solved.append(set(d.states))
        return solve(d, *args)

    with mock.patch.object(analysis, "until_probs", spy):
        return ev.value(node, at), solved


REACH = ProbOf(Until(TrueF(), Prop("a", "x")))
ONE_SCHEDULER = parse_formula("forall sched s. forall st x(s). P(F a(x)) > 0")
BOTH = ProbOf(Until(TrueF(), And(Prop("a", "x"), Prop("a", "y"))))
TWO_SCHEDULERS = parse_formula("forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
                               "P(F (a(x) & a(y))) > 0")


def _bind(ev: Evaluator, f: Formula, *assignments) -> Evaluator:
    names = [q.name for q in f.prefix if isinstance(q, SchedQuant)]
    ev.bind(build_composition(f, dict(zip(names, assignments))))
    return ev


def test_a_choice_the_point_cannot_reach_is_not_solved_again():
    mdp = _fork()
    left, right = enumerate_schedulers(mdp)
    ev = _bind(Evaluator(mdp, ONE_SCHEDULER), ONE_SCHEDULER, left)
    assert _solves(ev, REACH, ("q0",)) == (1, [{"q0", "q1"}])
    _bind(ev, ONE_SCHEDULER, right)
    assert _solves(ev, REACH, ("q0",)) == (1, [])
    # coupled: the second component differs only at q2, which (q0, q0) cannot reach
    ev = _bind(Evaluator(mdp, TWO_SCHEDULERS), TWO_SCHEDULERS, left, left)
    assert _solves(ev, BOTH, ("q0", "q0"))[0] == 1
    _bind(ev, TWO_SCHEDULERS, left, right)
    assert _solves(ev, BOTH, ("q0", "q0")) == (1, [])


def test_a_choice_the_point_can_reach_is_solved_again():
    mdp = _fork()
    left, right = enumerate_schedulers(mdp)
    ev = _bind(Evaluator(mdp, ONE_SCHEDULER), ONE_SCHEDULER, left)
    assert _solves(ev, REACH, ("q2",)) == (1, [{"q1", "q2"}])
    _bind(ev, ONE_SCHEDULER, right)
    # q2 is solved again; q1, which cannot reach q2, keeps its value
    assert _solves(ev, REACH, ("q2",)) == (Fraction(1, 2), [{"q2", "q3"}])
    ev = _bind(Evaluator(mdp, TWO_SCHEDULERS), TWO_SCHEDULERS, left, left)
    assert _solves(ev, BOTH, ("q0", "q2"))[0] == 1
    _bind(ev, TWO_SCHEDULERS, left, right)
    # the points of the earlier vector that cannot reach q2 bound the solve
    assert _solves(ev, BOTH, ("q0", "q2")) == (Fraction(1, 2), [{("q0", "q2"), ("q0", "q3"), ("q1", "q3")}])


def _loops(choices: int) -> Mdp:
    """12 self-loop states, the first ``choices`` of them with two actions:
    2^choices schedulers on one state space."""
    states = tuple(f"q{i}" for i in range(12))
    enabled = {s: ("go", "stay") if i < choices else ("go",) for i, s in enumerate(states)}
    return Mdp(
        states=states,
        actions=("go", "stay"),
        enabled=enabled,
        trans={(s, a): ((s, Fraction(1)),) for s in states for a in enabled[s]},
        ap=("a",),
        labels={s: frozenset() for s in states},
    )


def _sweep_peak(choices: int, text: str = "exists sched s. exists st x(s). P(X a(x)) > 0") -> int:
    """The traced peak of ``solve_eager`` on ``text``, a formula whose
    scheduler quantifier tries every assignment of ``_loops(choices)``."""
    f = parse_formula(text)
    mdp = _loops(choices)
    # Only the solve is measured: collecting first keeps earlier tests'
    # garbage (and its finalizers) out of the window and starts the collector
    # at the same phase, and one untraced solve refills the interpreter's
    # free lists, which a full collection empties, so the window does not
    # count their refill.
    gc.collect()
    solve_eager(mdp, f)
    tracemalloc.start()
    try:
        result = solve_eager(mdp, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.decoded.truth is not f.prefix[0].exists  # a false exists or a true forall: no early exit
    return peak


def test_false_existential_sweep_memory_does_not_grow_with_the_scheduler_space():
    _sweep_peak(8)  # first-use allocations of the interpreter and the library
    small, large = _sweep_peak(8), _sweep_peak(12)
    # holding the 2^12 schedulers or their combinations would take about 1 MB
    assert large - small < 64 * 1024, (small, large)


@pytest.mark.hashorder
def test_true_universal_sweep_memory_does_not_grow_with_the_scheduler_space():
    # every state is its own only successor, so the truth table's keys are
    # the 12 states with their own choices: 24 keys, 2 per tuple, within its
    # 4 * 1^1 per tuple, so after the first combination, whose 12 reads it
    # does not keep, the body is evaluated once per key
    text = "forall sched s. forall st x(s). P(X a(x)) = 0"
    _sweep_peak(8, text)
    small, large = _sweep_peak(8, text), _sweep_peak(12, text)
    assert large - small < 64 * 1024, (small, large)
    made = []

    def recording(*args):
        ev = Evaluator(*args)
        ev._body = mock.Mock(side_effect=ev._body)  # the compiled body, which a kept truth is not read from
        made.append(ev)
        return ev

    with mock.patch.object(enumcheck, "Evaluator", recording):
        assert check(_loops(12), parse_formula(text)).truth is True
    (ev,) = made
    assert ev._body.call_count <= 12 + 24
    assert len(ev.truths) == 12 and all(len(row) == 2 for row in ev.truths.values())


def test_check_and_eager_free_their_evaluators_on_return():
    # no reference cycle holds an evaluator: with the cyclic collector off,
    # it goes when the call returns
    spec, refs = cases.generate("ta", m=2), []

    def made(*args):
        ev = Evaluator(*args)
        refs.append(weakref.ref(ev))
        return ev

    gc.disable()
    try:
        with mock.patch.object(enumcheck, "Evaluator", made):
            assert check(spec.mdp, spec.formula).truth is False
            assert solve_eager(spec.mdp, spec.formula).decoded.truth is False
        assert len(refs) == 2 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_encode_main_frees_its_encoder_on_return():
    # nor one that holds the encoder: its system outlives it, by reference
    spec, refs = cases.generate("ta", m=2), []

    class Recording(smt.Encoder):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    gc.disable()
    try:
        with mock.patch.object(smt, "Encoder", Recording):
            cs, _ = smt.encode_main(spec.mdp, spec.formula)
        assert cs.constraints and len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
