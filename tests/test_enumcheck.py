import itertools
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypermdp import analysis, cases, enumcheck, formula, model
from hypermdp.enumcheck import (
    Evaluator,
    assemble_verdict,
    build_composition,
    check,
    decide,
    replay,
    state_domains,
    swappable,
)
from hypermdp.errors import CapExceeded, IllFormed, IncompatibleScheduler, UnknownProposition
from hypermdp.formula import (
    ARITH_OPS,
    MAX_HEIGHT,
    And,
    Arith,
    Const,
    Formula,
    Less,
    NotF,
    Next,
    ProbOf,
    Prop,
    SchedQuant,
    StateQuant,
    TrueF,
    Until,
    cmp_eq,
    cmp_le,
    count_quantifiers,
    f_implies,
    parse_formula,
)
from hypermdp.model import (
    SchedulerAssignment,
    enumerate_schedulers,
    induce_dtmc,
    parse_mdp,
    self_compose,
)
from hypermdp.smt import VectorEvaluator, solve_eager
from .helpers import (BOUNDED_TA, PUBLISHED_ROWS, TS_INDEP, counting_combinations, guarded_formula, late_case,
                      random_body, random_formula, random_mdp, random_pexpr, reference_decide, rename_vars,
                      valued_formula, with_never)

REACH_ONE = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1"
REACH_HALF = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1/2"
REACH_ZERO = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 0"

NESTED_CHAIN = """\
states: c0 c1 c2
labels: c1: a
action c0 tau: c0 1/2, c1 1/2
action c1 tau: c1 1
action c2 tau: c2 1
"""


class TestCheckCoin:
    def test_reach_one_witness_alpha(self, m_coin):
        verdict = check(m_coin, parse_formula(REACH_ONE))
        assert verdict.truth is True
        assert verdict.mode == "witness"
        assert verdict.schedulers["s"].choice("s0") == "alpha"
        assert verdict.states["x"] == "s0"

    def test_reach_half_impossible(self, m_coin):
        verdict = check(m_coin, parse_formula(REACH_HALF))
        assert verdict.truth is False
        assert verdict.mode == "none"

    def test_reach_zero_witness_beta(self, m_coin):
        verdict = check(m_coin, parse_formula(REACH_ZERO))
        assert verdict.truth is True
        assert verdict.schedulers["s"].choice("s0") == "beta"

    def test_forall_counterexample(self, m_coin):
        f = parse_formula("forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1")
        verdict = check(m_coin, f)
        assert verdict.truth is False
        assert verdict.mode == "counterexample"
        assert verdict.schedulers["s"].choice("s0") == "beta"
        assert verdict.states["x"] == "s0"


class TestErrors:
    def test_ill_formed(self, m_coin):
        with pytest.raises(IllFormed):
            check(m_coin, parse_formula("P(X a(x)) < 1/2"))

    def test_unknown_proposition(self, m_coin):
        with pytest.raises(UnknownProposition):
            check(m_coin, parse_formula("exists sched s. exists st x(s). zzz(x)"))

    @pytest.mark.parametrize("text", [REACH_ONE, "exists sched s. exists st x(s). a(x)"], ids=["path", "no-path"])
    def test_replay_rejects_a_pinned_scheduler_with_a_disabled_action(self, m_coin, text):
        # the evaluator reads rows from the MDP unchecked, so ``decide``
        # checks a pinned assignment where it enters, with or without a P(...)
        bad = SchedulerAssignment(m_coin.states, ("alpha", "beta", "tau"))  # beta is not enabled in s1
        verdict = enumcheck.Verdict(truth=True, mode="witness", schedulers={"s": bad})
        with pytest.raises(IncompatibleScheduler):
            replay(m_coin, parse_formula(text), verdict)

    def test_validate_inputs_walks_the_body_once(self, m_coin, monkeypatch):
        # one walk gives both the bound variables' uses and the alphabet's names
        walks = []
        walk = formula.subformulas
        monkeypatch.setattr(formula, "subformulas", lambda node: walks.append(node) or walk(node))
        f = parse_formula("exists sched s. exists st x(s). init(x) & P(F a(x)) = 1")
        enumcheck.validate_inputs(m_coin, f, 3, 3)
        assert walks == [f.body]

    def test_cap_exceeded(self, m_coin):
        f = parse_formula(
            "exists sched s. exists st x(s). exists st y(s). exists st z(s). exists st w(s). "
            "a(x) & a(y) & a(z) & a(w)"
        )
        with pytest.raises(CapExceeded):
            check(m_coin, f, max_state_vars=3)

    def test_cap_exceeded_on_scheduler_variables(self, m_coin):
        f = parse_formula("exists sched s. exists sched t. exists st x(s). exists st y(t). a(x) & a(y)")
        with pytest.raises(CapExceeded, match=r"^2 scheduler variables exceed the cap of 1$"):
            check(m_coin, f, max_sched_vars=1)


def test_evaluator_builds_no_reduced_window():
    # the windows [0,19] .. [0,0] of each F<=20 belong to the encoding alone
    f = parse_formula(BOUNDED_TA)
    supports = Evaluator(cases.generate("ta", m=2).mdp, f).supports
    assert {node.path.k2 for node in supports if isinstance(node, ProbOf)} == {20}
    assert len(supports) == len({node for node in formula.subformulas(f.body)})


def bound_evaluator(mdp, names=("x",)):
    """An evaluator for state variables ``names``, all under one scheduler,
    bound to the model's first scheduler assignment."""
    f = Formula(prefix=(SchedQuant(True, "s"),) + tuple(StateQuant(True, v, "s") for v in names),
                body=TrueF())
    ev = Evaluator(mdp, f)
    ev.bind(build_composition(f, {"s": next(enumerate_schedulers(mdp))}))
    return ev


class TestEvalBody:
    def test_true_everywhere(self, d_half):
        ev = bound_evaluator(d_half, ("x", "y"))
        for r in itertools.product(d_half.states, repeat=2):
            assert ev.value(TrueF(), r)

    def test_label_lookup(self, d_half):
        ev = bound_evaluator(d_half, ("x", "y"))
        assert ev.value(Prop("a", "x"), ("u1", "u2"))
        assert not ev.value(Prop("a", "y"), ("u1", "u2"))

    def test_constant_comparison(self, d_half):
        body = Less(Const(Fraction(1, 2)), Const(Fraction(1, 3)))
        assert not bound_evaluator(d_half).value(body, ("u0",))


class TestEvalProb:
    def test_until_delegation(self, d_half):
        p = ProbOf(Until(TrueF(), Prop("a", "x")))
        assert bound_evaluator(d_half).value(p, ("u0",)) == Fraction(1, 2)

    def test_arithmetic_is_exact(self, d_half):
        p = ProbOf(Until(TrueF(), Prop("a", "x")))
        doubled = Arith("*", Const(Fraction(2)), p)
        assert bound_evaluator(d_half).value(doubled, ("u0",)) == Fraction(1)

    def test_nested_probability_operator(self):
        # hand oracle: inner P(X a) equals 1/2 only at c0; outer
        # P(X inner=1/2) from c0 = P(step to c0) = 1/2
        mdp = parse_mdp(NESTED_CHAIN)
        f = parse_formula("exists sched s. exists st x(s). P(X (P(X a(x)) = 1/2)) = 1/2")
        verdict = check(mdp, f)
        assert verdict.truth is True
        assert verdict.states["x"] == "c0"


class TestProperties:
    def test_quantifier_duality(self):
        rng = random.Random(21)
        body_texts = [
            "P(F a(x)) = 1",
            "P(X b(x)) < 1/2",
            "P(a(x) U b(x)) > 1/4",
            "init(x) -> P(F[0,2] a(x)) > 0",
        ]
        checked = 0
        for _ in range(25):
            mdp = random_mdp(rng)
            for body in body_texts:
                f_all = parse_formula(f"forall sched s. forall st x(s). {body}")
                f_not_ex = parse_formula(f"exists sched s. exists st x(s). !({body})")
                assert check(mdp, f_all).truth == (not check(mdp, f_not_ex).truth)
                checked += 1
        assert checked == 100

    def test_single_action_mdp_degenerates_to_chain_evaluation(self):
        rng = random.Random(22)
        for _ in range(15):
            mdp = random_mdp(rng, max_actions=1)
            f = parse_formula("forall sched s. forall st x(s). exists st y(s). "
                              "P(F a(x)) <= P(F a(y)) | b(x)")
            verdict = check(mdp, f)
            # direct evaluation on the self-composition of the unique induced chain
            d = induce_dtmc(mdp, next(enumerate_schedulers(mdp)))
            body = VectorEvaluator(self_compose([d, d]), {"x": 1, "y": 2}).holds(f.body)
            direct = all(
                any(body[(sx, sy)] for sy in mdp.states)
                for sx in mdp.states
            )
            assert verdict.truth == direct

    def test_shared_scheduler_means_shared_component(self, m_coin):
        from unittest import mock

        from hypermdp import analysis

        f = parse_formula("exists sched s. exists st x(s). exists st y(s). true")
        ev = Evaluator(m_coin, f)
        reach_x = ProbOf(Until(TrueF(), Prop("a", "x")))
        reach_y = ProbOf(Until(TrueF(), Prop("a", "y")))
        for assignment in enumerate_schedulers(m_coin):
            ev.bind(build_composition(f, {"s": assignment}))
            for s in m_coin.states:
                at = (s, s)
                x_value = ev.value(reach_x, at)
                # the read of y hits the vector that the read of x solved
                with mock.patch.object(analysis, "until_probs", wraps=analysis.until_probs) as spy:
                    assert ev.value(reach_y, at) == x_value
                    assert spy.call_count == 0
            # one vector on the induced chain serves both variables, and one
            # table keeps the path's signed values, at most 4 * 1^1 per state
            ((reach, key),) = ev.vectors
            assert key == (assignment.actions,) and set(ev.table) <= {reach}
            assert all(len(row) <= 4 for row in ev.table.get(reach, {}).values())
        assert set(ev.table) == {reach}

    def test_composition_instrumentation_on_benchmark_shapes(self, m_coin):
        # state variables sharing one scheduler variable are composed from
        # one induced chain, not one per state variable; two scheduler
        # variables get genuinely independent chains
        from unittest import mock

        from hypermdp import enumcheck, model

        from . import helpers

        shared = parse_formula(
            "exists sched s. forall st x(s). exists st y(s). P(F a(x)) = P(F a(y))"
        )
        split = parse_formula(
            "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
            "P(F a(x)) = P(F a(y))"
        )
        first, second = list(enumerate_schedulers(m_coin))[:2]
        with mock.patch.object(helpers, "self_compose", wraps=helpers.self_compose) as spy:
            helpers.full_product(m_coin, build_composition(shared, {"s": first}))
            components = spy.call_args[0][0]
            assert components[0] is components[1]
        with mock.patch.object(helpers, "self_compose", wraps=helpers.self_compose) as spy:
            helpers.full_product(m_coin, build_composition(split, {"s1": first, "s2": second}))
            components = spy.call_args[0][0]
            assert components[0] is not components[1]
            assert components[0].trans != components[1].trans
        # the evaluator composes nothing: a coupled operand's rows are built
        # from the components' induced chains, one chain when the scheduler
        # is shared, distinct chains when it is not
        coupled = ProbOf(Until(TrueF(), And(Prop("a", "x"), Prop("a", "y"))))
        for f, chosen, shared_chain in ((shared, {"s": first}, True),
                                        (split, {"s1": first, "s2": second}, False)):
            ev = Evaluator(m_coin, f)
            ev.bind(build_composition(f, chosen))
            with mock.patch.object(enumcheck, "self_compose", wraps=enumcheck.self_compose) as spy, \
                    mock.patch.object(model, "self_compose", wraps=model.self_compose) as model_spy:
                ev.holds(("s0", "s0"))
                ev.value(coupled, ("s0", "s0"))
                assert spy.call_count == 0 and model_spy.call_count == 0
            rows = ev.rows((0, 1))
            assert len(rows) > 0  # the coupled solve read joint rows
            left, right = rows.components
            assert (left is right) == shared_chain
            assert left is ev.rows((0,)) and right is ev.rows((1,))
            assert (left == right) == shared_chain
            for point, row in rows.items():
                assert row == tuple(((t, u), p * q) for t, p in left[point[0]] for u, q in right[point[1]])

    def test_witness_replay(self):
        rng = random.Random(23)
        templates = [
            "exists sched s. exists st x(s). P(F a(x)) > 1/2",
            "exists sched s. exists st x(s). exists st y(s). P(F a(x)) = P(F a(y))",
            "forall sched s. forall st x(s). P(F a(x)) > 0",
            "exists sched s1. exists sched s2. exists st x(s1). exists st y(s2). "
            "P(X a(x)) <= P(X a(y))",
        ]
        replayed = 0
        for _ in range(25):
            mdp = random_mdp(rng)
            for text in templates:
                f = parse_formula(text)
                verdict = check(mdp, f)
                if verdict.mode == "witness":
                    assert replay(mdp, f, verdict) is True
                    replayed += 1
                elif verdict.mode == "counterexample":
                    assert replay(mdp, f, verdict) is False
                    replayed += 1
        assert replayed >= 40


class TestQuantifierWalk:
    """``check``, ``replay`` and ``solve_eager`` share one quantifier walk."""

    def test_shared_scheduler_and_state_name(self, m_coin):
        # the counterexample keeps the scheduler and the state apart
        f = parse_formula("forall sched x. forall st x(x). P(F a(x)) = 1")
        for verdict in (check(m_coin, f), solve_eager(m_coin, f).decoded):
            assert verdict.truth is False and verdict.mode == "counterexample"
            assert verdict.schedulers["x"].choice("s0") == "alpha"
            assert verdict.states == {"x": "s2"}
            assert replay(m_coin, f, verdict) is False

    @pytest.mark.parametrize("family, params", [("ta", {"m": 2}), ("pc", {"tier": "s0"})])
    def test_engines_do_the_same_work(self, monkeypatch, family, params):
        # ta_m2 is forall-led (the eager engine decides its negation), pc_s0
        # exists-led; the eager engine walks the same combinations and tuples
        spec = cases.generate(family, **params)
        calls = {}

        def spy(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        spy(analysis, "until_probs")
        spy(Evaluator, "holds")
        spy(enumcheck, "build_composition")
        counts = []
        for engine in (check, lambda mdp, f: solve_eager(mdp, f).decoded):
            calls.update(until_probs=0, holds=0, build_composition=0)
            verdict = engine(spec.mdp, spec.formula)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert all(counts[0].values())
        assert verdict.truth is (family == "pc")


class TestClosedBodies:
    def test_constant_comparison(self, m_coin):
        assert check(m_coin, parse_formula("1/2 < 1")).truth is True
        assert check(m_coin, parse_formula("1 < 1/2")).truth is False

    def test_mixed_scheduler_prefix_supported(self, m_coin):
        f = parse_formula(
            "exists sched s1. forall sched s2. exists st x(s1). forall st y(s2). "
            "P(F a(x)) >= P(F a(y))"
        )
        verdict = check(m_coin, f)
        assert verdict.truth is True  # alpha branch dominates every scheduler


def _every_state(mdp, f):
    return (mdp.states,) * count_quantifiers(f)[1]


class TestStateDomains:
    """``state_domains`` restricts a state quantifier only where the states
    it drops cannot decide it."""

    @pytest.mark.parametrize("body, domains", [
        # a conjunct guards an exists, an antecedent a forall
        ("exists st x(s). forall st y(s). init(x) & P(F a(y)) > 0", (("s0",), "all")),
        ("forall st x(s). exists st y(s). init(x) -> P(F a(y)) > 0", (("s0",), "all")),
        # the other pairings decide at any state off the guard: no restriction
        ("forall st x(s). init(x) & P(F a(x)) > 0", ("all",)),
        ("exists st x(s). init(x) -> P(F a(x)) > 0", ("all",)),
        # double negations are seen through, single ones are not
        ("exists st x(s). !!(init(x) & a(x)) & P(F a(x)) > 0", ((),)),
        ("exists st x(s). !init(x) & P(F a(x)) > 0", ("all",)),
        # a body that is one negated proposition guards a forall
        ("forall st x(s). !a(x)", (("s1",),)),
        # propositions below a comparison or a path are not guards
        ("exists st x(s). P(F init(x)) > 0", ("all",)),
    ])
    def test_guard_shapes_on_the_coin(self, m_coin, body, domains):
        f = parse_formula("exists sched s. " + body)
        expected = tuple(m_coin.states if d == "all" else d for d in domains)
        assert state_domains(m_coin, f) == expected

    def test_ta_m6_reads_the_body_once_per_combination(self, monkeypatch):
        spec = cases.generate("ta", m=6)
        calls = {"holds": 0, "bind": 0}
        for name in calls:
            original = getattr(Evaluator, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Evaluator, name, counting)
        verdict = check(spec.mdp, spec.formula)
        assert verdict.truth is False and verdict.mode == "counterexample"
        assert calls["holds"] == calls["bind"] == 33

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_restriction_keeps_truth_and_trace(self, seed):
        rng = random.Random(seed)
        mdp = with_never(random_mdp(rng, max_states=3))
        f = guarded_formula(rng)
        with mock.patch("hypermdp.enumcheck.state_domains", _every_state):
            unrestricted = decide(mdp, f)
        assert decide(mdp, f) == unrestricted
        verdict = assemble_verdict(f, *unrestricted)
        assert replay(mdp, f, verdict) is verdict.truth


PAIR = "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "


def eager(mdp, f, **caps):
    return solve_eager(mdp, f, **caps).decoded


class TestSwappable:
    """``swappable`` finds the scheduler quantifier pairs whose swap, with
    their state variables, leaves the body the same up to operand order."""

    @pytest.mark.parametrize("text", [
        TS_INDEP,
        PAIR + "P(F a(x)) * P(F a(y)) < 1/2",  # the * operands reorder
        PAIR + "a(x) & !a(y) | a(y) & !a(x)",  # the & below the desugared | reorders
        PAIR + "P(X a(x)) + P(X a(y)) = 1",  # the + operands reorder
        "exists sched s1. exists sched s2. exists st x(s1). exists st z(s1). exists st y(s2). "
        "exists st w(s2). P(F a(x)) = P(F a(y)) & (init(z) & init(w))",
    ])
    def test_bodies_equal_to_their_swap_up_to_operand_order(self, text):
        f = parse_formula(text)
        names = {"x": "y", "y": "x", "z": "w", "w": "z"}
        assert rename_vars(f.body, names) != f.body
        assert swappable(f) == {0}

    @pytest.mark.parametrize("row", [row for row in PUBLISHED_ROWS if row[:2] in ("ta", "pw")])
    def test_published_timing_rows(self, row):
        family, params = PUBLISHED_ROWS[row]
        assert swappable(cases.generate(family, **params).formula) == {0}

    @pytest.mark.parametrize("text", [
        PAIR + "P(F a(x)) < P(F a(y))",
        PAIR + "P(a(x) U a(y)) > 0",
        "forall sched s1. exists sched s2. forall st x(s1). forall st y(s2). P(F a(x)) = P(F a(y))",
        # s1 binds two state variables, s2 one
        "forall sched s1. forall sched s2. forall st x(s1). forall st z(s1). forall st y(s2). "
        "P(F a(x)) = P(F a(y)) & a(z)",
        "forall sched s1. forall sched s2. forall st x(s1). exists st y(s2). P(F a(x)) = P(F a(y))",
        # the swap would move x and y across z, a quantifier of the other kind
        "forall sched s1. forall sched s2. forall sched s3. forall st x(s1). exists st z(s3). "
        "forall st y(s2). P(F a(x)) = P(F a(y)) & a(z)",
    ])
    def test_asymmetric_prefixes_and_bodies(self, text):
        assert swappable(parse_formula(text)) == frozenset()

    def test_pinned_quantifiers_are_not_swapped(self, m_coin):
        f = parse_formula(PAIR + "P(F a(x)) + P(F a(y)) >= 0")
        first, second = enumerate_schedulers(m_coin)
        assert swappable(f) == {0}
        assert swappable(f, {0: second}) == swappable(f, {3: "s0"}) == frozenset()
        # a replay with s1 pinned to its last assignment still tries every s2
        pinned = enumcheck.Verdict(truth=False, mode="counterexample", schedulers={"s1": second})
        with counting_combinations() as combos:
            assert replay(m_coin, f, pinned) is True
        assert [s2 for _, s2 in combos] == [first, second]

    def test_deep_symmetric_body_is_keyed_in_a_loop(self, m_coin):
        # a true sweep, so the outer loop moves on and detection runs
        text = PAIR + "P(F a(x)) + P(F a(y)) >= 0"
        filler = " & (!(init(x) & !init(x)) & !(init(y) & !init(y)))"
        n = MAX_HEIGHT - parse_formula(text).body.height
        f = parse_formula(text + filler * n)
        assert f.body.height == MAX_HEIGHT
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(MAX_HEIGHT // 2)  # below the body's height: no recursion over it
        try:
            found = swappable(f)
        finally:
            sys.setrecursionlimit(limit)
        assert found == {0}
        with counting_combinations() as combos:
            assert check(m_coin, f).truth is True
        assert len(combos) == 3  # (alpha, alpha), (alpha, beta), (beta, beta)


def mirrored_formula(rng: random.Random) -> Formula:
    """Two scheduler quantifiers of one kind, each binding as many state
    variables, all of one kind and in a random order, over ``phi &
    phi[swap]`` under a guard ``g & g[swap]`` on a next probability, so
    that the first assignment is often not the one that decides."""
    k, kind, state_kind = rng.randint(1, 2), rng.random() < 0.5, rng.random() < 0.5
    xs, ys = ("x", "z")[:k], ("y", "w")[:k]
    swap = {**dict(zip(xs, ys)), **dict(zip(ys, xs))}
    states = [StateQuant(state_kind, v, "s1") for v in xs] + [StateQuant(state_kind, v, "s2") for v in ys]
    rng.shuffle(states)
    phi = random_body(rng, xs + ys, 2)
    g = Less(Const(Fraction(rng.randint(0, 3), 4)), ProbOf(Next(Prop(rng.choice("ab"), "x"))))
    guard, core = And(g, rename_vars(g, swap)), And(phi, rename_vars(phi, swap))
    body = And(guard, core) if kind else f_implies(guard, core)
    return Formula(prefix=(SchedQuant(kind, "s1"), SchedQuant(kind, "s2"), *states), body=body)


class TestMirroredCombinations:
    """``decide`` tries one of each mirrored pair of combinations, and
    answers as the walk over every combination does."""

    @pytest.mark.parametrize("engine", [check, eager])
    def test_true_sweep_binds_each_unordered_pair_once(self, engine):
        mdp = cases.generate("ts", h1=0, h2=1).mdp
        order = {a: k for k, a in enumerate(enumerate_schedulers(mdp))}
        with counting_combinations() as combos:
            verdict = engine(mdp, parse_formula(TS_INDEP))
        assert (verdict.truth, verdict.mode) == (True, "none")
        assert len(order) == 8 and len(combos) == 36  # 8 * 9 / 2, not 8 * 8
        assert len(set(combos)) == 36 and all(order[a] <= order[b] for a, b in combos)

    # true, since the components reach their targets independently
    OPEN_SWEEP = ("forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
                  "(init(x) & init(y)) -> P(F (h(x) & h(y))) <= P(F h(x)) * P(F h(y))")

    @staticmethod
    def counted_sweep(engine, text):
        """The verdict, combinations, induced chains, until solves and joint
        rows built (by the identities of their component rows) of one run."""
        mdp = cases.generate("ts", h1=0, h2=1).mdp
        built, joint_row = [], model.joint_row

        def counting(rows):
            built.append(tuple(map(id, rows)))
            return joint_row(rows)

        with mock.patch.object(enumcheck, "induce_dtmc", wraps=enumcheck.induce_dtmc) as induce, \
                mock.patch.object(analysis, "until_probs", wraps=analysis.until_probs) as until, \
                mock.patch.object(model, "joint_row", counting), counting_combinations() as combos:
            verdict = engine(mdp, parse_formula(text))
        return verdict, combos, induce.call_count, until.call_count, built

    @pytest.mark.hashorder
    @pytest.mark.parametrize("engine", [check, eager])
    def test_true_sweep_induces_no_chain_and_builds_each_joint_row_once(self, engine):
        # a coupled operand whose target is not closed (h holds at an init
        # state only), so it stays joint: of the 36 combinations tried, 15
        # find the body's truth at every tuple they read in the evaluator's
        # truth table, under an earlier combination that makes the same
        # choices wherever each component's state may reach, so they solve
        # no until.  Rows are read from the MDP, so no chain is induced (21
        # were), and joint rows are kept for the evaluator's life, so each
        # product of component rows is built once (75 builds of 55 products
        # before).  The same counts as TS_INDEP's before its closed target
        # was factored
        verdict, combos, induced, solves, built = self.counted_sweep(engine, self.OPEN_SWEEP)
        assert (verdict.truth, verdict.mode) == (True, "none")
        assert len(combos) == 36 and induced == 0 and solves <= 26
        assert 0 < len(built) == len(set(built)) <= 55

    @pytest.mark.hashorder
    @pytest.mark.parametrize("engine", [check, eager])
    def test_true_sweep_over_closed_targets_builds_no_joint_row(self, engine):
        # TS_INDEP's l=1 is closed, so P(F (l=1(x) & l=1(y))) is solved as
        # P(F l=1(x)) * P(F l=1(y)): 5 until solves over 15 points and no
        # joint row, against 26 solves over 90 points and 55 joint rows
        # while it was solved on the joint rows
        verdict, combos, induced, solves, built = self.counted_sweep(engine, TS_INDEP)
        assert (verdict.truth, verdict.mode) == (True, "none")
        assert len(combos) == 36 and induced == 0 and solves <= 5 and built == []

    @pytest.mark.parametrize("row, count", [
        ("ts_h0_1", 2), ("ta_m2", 3), ("pw_m2", 2), ("pc_s0", 1), ("ta_m2_bnd", 3),
    ])
    @pytest.mark.parametrize("engine", [check, eager])
    def test_early_rows_bind_as_before_and_detect_nothing(self, row, count, engine):
        # each decides under the first outer assignment: no detection runs
        family, params = PUBLISHED_ROWS[row.replace("_bnd", "")]
        spec = cases.generate(family, **params)
        f = parse_formula(BOUNDED_TA) if row.endswith("_bnd") else spec.formula
        with counting_combinations() as combos, \
                mock.patch.object(enumcheck, "swappable", wraps=enumcheck.swappable) as detector:
            verdict = engine(spec.mdp, f)
        assert len(combos) == count and detector.call_count == 0
        assert verdict.truth is (family == "pc")

    def test_skipping_mirrors_keeps_every_verdict(self):
        reduced = []

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(seed=st.integers(0, 2 ** 32 - 1), mirrored=st.booleans())
        def compare(seed, mirrored):
            rng = random.Random(seed)
            mdp = with_never(random_mdp(rng, max_states=3))
            f = mirrored_formula(rng) if mirrored else guarded_formula(rng)
            one_kind = len({q.exists for q in f.prefix if isinstance(q, SchedQuant)}) == 1
            engines = (check, eager) if one_kind else (check,)
            runs = []
            for detector in (swappable, lambda f, pinned=(): frozenset()):
                with mock.patch.object(enumcheck, "swappable", detector), counting_combinations() as combos:
                    verdicts = [engine(mdp, f, max_state_vars=4) for engine in engines]
                    replays = [replay(mdp, f, verdict) for verdict in verdicts]
                runs.append((verdicts, replays, len(combos)))
            (verdicts, replays, count), (plain, plain_replays, plain_count) = runs
            assert verdicts == plain and replays == plain_replays
            assert replays == [verdict.truth for verdict in verdicts]
            first = next(enumerate_schedulers(mdp))
            late = verdicts[0].mode != "none" and verdicts[0].schedulers[f.prefix[0].name] != first
            reduced.append((count < plain_count, late))

        compare()
        assert sum(skipped for skipped, _ in reduced) >= 50
        # a witness or counterexample found after skipping, with the outer quantifier moved on
        assert sum(skipped and late for skipped, late in reduced) >= 2


def test_verdicts_decided_after_the_outer_scheduler_moves_on():
    # the first outer assignment never decides a ``late_case``, so its binds
    # after the first are where the evaluator's later solves happen: the
    # engines, replay and an evaluator that solves from each read point
    # alone (no truth tuples) must agree there
    rng, late, examples = random.Random(23), 0, 150
    for _ in range(examples):
        mdp, f = late_case(rng)
        verdict = check(mdp, f)
        assert eager(mdp, f) == verdict
        assert replay(mdp, f, verdict) is verdict.truth
        with mock.patch.object(enumcheck, "Evaluator", lambda mdp, f, domains, supports: Evaluator(mdp, f)):
            assert check(mdp, f) == verdict
        late += verdict.mode != "none" and verdict.schedulers["s1"] != next(enumerate_schedulers(mdp))
    assert late >= examples / 5, late


@pytest.mark.hashorder
class TestTruthTable:
    """From its second bind on, the evaluator reads the body's truth from
    its table where an earlier combination made the same choices at every
    choice state each component's state may reach, and ``decide`` answers
    as a walk that binds a fresh evaluator to every combination does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), corpus=st.sampled_from(("guarded", "random", "valued")))
    def test_decide_equals_the_reference_walk(self, seed, corpus):
        rng = random.Random(seed)
        mdp = with_never(random_mdp(rng, max_states=3, max_actions=3))
        corpora = {"guarded": guarded_formula, "random": random_formula, "valued": lambda rng: valued_formula(rng, mdp)}
        f = corpora[corpus](rng)
        holds, fresh = Evaluator.holds, [None, None]  # the bound assignments, an evaluator bound to them alone

        def checked(ev, at):
            # every truth the evaluator gives, from its table or not, is a fresh evaluator's
            truth = holds(ev, at)
            if fresh[0] is not ev.assignments:
                fresh[:] = ev.assignments, Evaluator(mdp, f)
                fresh[1].bind(ev.assignments)
            assert truth == holds(fresh[1], at)
            return truth

        with mock.patch.object(Evaluator, "holds", checked):
            result = decide(mdp, f)
        assert result == reference_decide(mdp, f)
        verdict = assemble_verdict(f, *result)
        # the verdict's schedulers listing the model's states backwards
        backwards = enumcheck.Verdict(truth=verdict.truth, mode=verdict.mode, states=verdict.states, schedulers={
            name: SchedulerAssignment(a.states[::-1], a.actions[::-1]) for name, a in verdict.schedulers.items()})
        recorded = [backwards.schedulers if isinstance(q, SchedQuant) else backwards.states for q in f.prefix]
        pinned = {i: values[q.name] for i, (q, values) in enumerate(zip(f.prefix, recorded)) if q.name in values}
        assert decide(mdp, f, pinned) == reference_decide(mdp, f, pinned)
        assert replay(mdp, f, backwards) is verdict.truth

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), valued=st.booleans())
    def test_every_truth_equals_a_fresh_evaluator_in_any_sweep_order(self, seed, valued):
        # ``decide`` stops where the body decides, so it reads few truths
        # that turn; here the evaluator keeps every truth and value, and
        # every combination reads every tuple, in random orders, so a key
        # missing a choice that a truth depends on shows
        rng = random.Random(seed)
        mdp = random_mdp(rng, max_states=3, max_actions=3)
        f = valued_formula(rng, mdp) if valued else random_formula(rng)
        m, n = count_quantifiers(f)
        names = [q.name for q in f.prefix[:m]]
        schedulers = list(enumerate_schedulers(mdp))
        combos = [build_composition(f, dict(zip(names, c))) for c in itertools.product(schedulers, repeat=m)]
        rng.shuffle(combos)
        ev, tuples = Evaluator(mdp, f), list(itertools.product(mdp.states, repeat=n))
        ev._schedulers = len(combos)  # lifts the caps: 4·m^|K| then exceeds the signatures a point can see
        for assignments in combos[:40]:
            fresh = Evaluator(mdp, f)
            ev.bind(assignments)
            fresh.bind(assignments)
            rng.shuffle(tuples)
            for at in tuples:
                assert ev.holds(at) == fresh.holds(at)

    @pytest.mark.parametrize("row, count", [("pc_s0", 1), ("ts_h0_1", 2)])
    @pytest.mark.parametrize("engine", [check, eager])
    def test_the_first_combination_builds_no_getters_and_keeps_no_truth(self, row, count, engine):
        # pc_s0 decides under its one combination, ts_h0_1 at its second:
        # only a second bind builds the getters and keeps truths
        family, params = PUBLISHED_ROWS[row]
        spec, made = cases.generate(family, **params), []

        def recording(*args):
            made.append(Evaluator(*args))
            return made[-1]

        with mock.patch.object(enumcheck, "Evaluator", recording), \
                mock.patch.object(enumcheck, "choice_getters", wraps=enumcheck.choice_getters) as getters, \
                counting_combinations() as combos:
            verdict = engine(spec.mdp, spec.formula)
        (ev,) = made
        assert verdict.truth is (family == "pc") and len(combos) == count
        if count == 1:
            assert getters.call_count == 0 and ev.truths == {}
        else:
            assert getters.call_count <= 1


# the parser's desugaring of ``=``, ``!=``, ``<=`` and ``>=``, all built on ``formula.cmp_eq``
COMPARISONS = {"=": cmp_eq, "!=": lambda a, b: NotF(cmp_eq(a, b)),
               "<=": cmp_le, ">=": lambda a, b: cmp_le(b, a)}


def comparison_body(rng: random.Random, vars_, depth: int = 2):
    """A random body over ``vars_`` whose comparisons are ``=``, ``!=``,
    ``<=`` and ``>=``, an operand sometimes compared with itself."""
    kind = rng.choice(("prop", "and", "not", "compare", "compare") if depth else ("prop", "compare"))
    if kind == "prop":
        return Prop(rng.choice(("a", "b", "init")), rng.choice(vars_))
    if kind == "and":
        return And(comparison_body(rng, vars_, depth - 1), comparison_body(rng, vars_, depth - 1))
    if kind == "not":
        return NotF(comparison_body(rng, vars_, depth - 1))
    left = random_pexpr(rng, vars_, 1)
    right = left if rng.random() < 0.2 else random_pexpr(rng, vars_, 1)
    return COMPARISONS[rng.choice(sorted(COMPARISONS))](left, right)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_comparisons_equal_the_desugared_tree(seed):
    # the evaluator compiles ``!!φ`` to φ and ``!(a < b) & !(b < a)`` to a
    # single ``a == b``; the body's tree, walked as written, must agree
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=3, max_actions=3)
    names = ("x", "y")[:rng.randint(1, 2)]
    f = Formula(prefix=(SchedQuant(True, "s1"), SchedQuant(True, "s2"),
                        *(StateQuant(True, v, f"s{i + 1}") for i, v in enumerate(names))),
                body=comparison_body(rng, list(names)))
    ev = Evaluator(mdp, f)
    schedulers = list(enumerate_schedulers(mdp))
    ev.bind(build_composition(f, {"s1": rng.choice(schedulers), "s2": rng.choice(schedulers)}))

    def tree(node, at):
        if isinstance(node, Prop):
            return node.name in mdp.labels[at[names.index(node.var)]]
        if isinstance(node, NotF):
            return not tree(node.operand, at)
        if isinstance(node, And):
            return tree(node.left, at) and tree(node.right, at)
        return term(node.left, at) < term(node.right, at)

    def term(node, at):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Arith):
            return ARITH_OPS[node.op](term(node.left, at), term(node.right, at))
        return ev.value(node, at)

    for at in itertools.product(mdp.states, repeat=len(names)):
        assert ev.holds(at) == tree(f.body, at)
