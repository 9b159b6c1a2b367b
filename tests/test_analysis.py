import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example as hypothesis_example
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermdp import analysis
from hypermdp.analysis import (
    bounded_until_probs,
    bounded_until_windows,
    next_probs,
    qualitative_sets,
    step_distances,
    until_probs,
    until_probs_vi,
)
from hypermdp.errors import BoundError, SingularSystem
from hypermdp.model import Dtmc, SchedulerAssignment, enumerate_schedulers, induce_dtmc, parse_mdp
from .helpers import (
    bottom_sccs,
    brute_bounded_until,
    brute_until,
    dense_until,
    random_acyclic_mdp,
    random_mdp,
    reference_bounded_steps,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def chain(mdp, **choices):
    sched = SchedulerAssignment(states=mdp.states, actions=tuple(choices[s] for s in mdp.states))
    return induce_dtmc(mdp, sched)


def pred(d, prop):
    return {s: prop in d.labels[s] for s in d.states}


def true_pred(d):
    return {s: True for s in d.states}


def raw_chain(rows, targets):
    """A chain built directly, without the model validation: ``rows`` maps
    each state to its (target, probability) row, ``targets`` are the states
    labelled ``a``."""
    return Dtmc(states=tuple(rows),
                trans={s: tuple((t, Fraction(p)) for t, p in row) for s, row in rows.items()},
                ap=("a",), labels={s: frozenset({"a"} if s in targets else ()) for s in rows})


@pytest.fixture
def linear_solves(monkeypatch):
    """Sizes of the systems handed to the in-component elimination."""
    sizes = []
    solve = analysis._solve_linear

    def counting(matrix, rhs):
        sizes.append(len(matrix))
        return solve(matrix, rhs)

    monkeypatch.setattr(analysis, "_solve_linear", counting)
    return sizes


@pytest.fixture
def coin_alpha(m_coin):
    return chain(m_coin, s0="alpha", s1="tau", s2="tau")


@pytest.fixture
def coin_beta(m_coin):
    return chain(m_coin, s0="beta", s1="tau", s2="tau")


@pytest.fixture
def half(d_half):
    return chain(d_half, u0="tau", u1="tau", u2="tau")


class TestQualitative:
    def test_d_half(self, half):
        s_zero, s_yes = qualitative_sets(half, true_pred(half), pred(half, "a"))
        assert s_zero == frozenset({"u2"})
        assert s_yes == frozenset({"u1"})

    def test_unreachable_target(self, half):
        false = {s: False for s in half.states}
        s_zero, s_yes = qualitative_sets(half, true_pred(half), false)
        assert s_zero == frozenset(half.states)
        assert s_yes == frozenset()

    def test_coin_alpha(self, coin_alpha):
        s_zero, s_yes = qualitative_sets(coin_alpha, true_pred(coin_alpha), pred(coin_alpha, "a"))
        assert s_zero == frozenset({"s2"})
        assert s_yes == frozenset({"s1"})


class TestUntil:
    def test_d_half_one_step(self, half):
        vec = until_probs(half, true_pred(half), pred(half, "a"))
        assert vec["u0"] == Fraction(1, 2)
        assert vec["u1"] == ONE
        assert vec["u2"] == ZERO

    def test_coin_alpha_geometric(self, coin_alpha):
        vec = until_probs(coin_alpha, true_pred(coin_alpha), pred(coin_alpha, "a"))
        assert vec["s0"] == ONE

    def test_coin_beta_zero(self, coin_beta):
        vec = until_probs(coin_beta, true_pred(coin_beta), pred(coin_beta, "a"))
        assert vec["s0"] == ZERO

    def test_matches_brute_force_on_acyclic_models(self):
        rng = random.Random(5)
        for _ in range(40):
            mdp = random_acyclic_mdp(rng)
            for sched in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, sched)
                phi1 = pred(d, "a")
                phi1 = {s: not v for s, v in phi1.items()}  # "not a" keeps it interesting
                phi2 = pred(d, "b")
                vec = until_probs(d, phi1, phi2)
                for s in d.states:
                    assert vec[s] == brute_until(d, phi1, phi2, s)

    def test_range_and_no_singular_failures(self):
        rng = random.Random(6)
        for _ in range(60):
            mdp = random_mdp(rng)
            for sched in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, sched)
                vec = until_probs(d, pred(d, "a"), pred(d, "b"))
                for value in vec.values():
                    assert ZERO <= value <= ONE

    def test_bottom_scc_without_target_is_exactly_zero(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(60):
            mdp = random_mdp(rng)
            for sched in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, sched)
                phi2 = pred(d, "b")
                vec = until_probs(d, true_pred(d), phi2)
                for comp in bottom_sccs(d):
                    if not any(phi2[s] for s in comp):
                        checked += 1
                        for s in comp:
                            assert vec[s] == ZERO
        assert checked > 20


class TestSccSolver:
    """until_probs against the dense elimination it replaced, and one
    hand-built chain for each way it settles a state."""

    def test_matches_dense_oracle_on_random_corpora(self, linear_solves):
        chains = 0
        for seed, make in ((6, random_mdp), (8, random_mdp), (13, random_mdp), (5, random_acyclic_mdp)):
            rng = random.Random(seed)
            for _ in range(60):
                mdp = make(rng)
                for sched in enumerate_schedulers(mdp):
                    d = induce_dtmc(mdp, sched)
                    a, b = pred(d, "a"), pred(d, "b")
                    not_a = {s: not v for s, v in a.items()}
                    for phi1, phi2 in ((a, b), (true_pred(d), b), (not_a, b), (b, a)):
                        assert until_probs(d, phi1, phi2) == dense_until(d, phi1, phi2)
                        chains += 1
        assert chains > 1000
        # the corpora reach the elimination inside components of 2+ states
        assert linear_solves and min(linear_solves) >= 2

    def test_matches_dense_oracle_on_acceptance_4a_corpus(self):
        # the corpus, schedulers and predicates of acceptance check 4a
        rng = random.Random(20200901)
        chains = 0
        for mdp in [random_mdp(rng) for _ in range(200)]:
            for sched in itertools.islice(enumerate_schedulers(mdp), 4):
                d = induce_dtmc(mdp, sched)
                phi1, phi2 = pred(d, "a"), pred(d, "b")
                assert until_probs(d, phi1, phi2) == dense_until(d, phi1, phi2)
                chains += 1
        assert chains == 554

    def test_three_state_cycle_is_eliminated_as_one_component(self, linear_solves):
        d = raw_chain({"c0": (("c1", "1/2"), ("z", "1/2")),
                       "c1": (("c2", "1/2"), ("g", "1/2")),
                       "c2": (("c0", "1/2"), ("g", "1/4"), ("z", "1/4")),
                       "g": (("g", 1),),
                       "z": (("z", 1),)}, {"g"})
        vec = until_probs(d, true_pred(d), pred(d, "a"))
        assert vec == {"c0": Fraction(5, 14), "c1": Fraction(5, 7), "c2": Fraction(3, 7),
                       "g": ONE, "z": ZERO}
        assert vec == dense_until(d, true_pred(d), pred(d, "a"))
        assert linear_solves == [3]

    def test_self_loop_divides_by_one_minus_p(self, linear_solves):
        d = raw_chain({"s1": (("s0", 1),),
                       "s0": (("s0", "3/4"), ("g", "1/8"), ("z", "1/8")),
                       "g": (("g", 1),),
                       "z": (("z", 1),)}, {"g"})
        vec = until_probs(d, true_pred(d), pred(d, "a"))
        # x = 3/4 x + 1/8; s1 is a singleton without a loop: one dot product
        assert vec["s0"] == vec["s1"] == Fraction(1, 2)
        assert linear_solves == []

    def test_almost_sure_loop_is_exactly_one_without_a_solve(self, linear_solves):
        # s0 and s1 loop, and the only way out is to the phi2 state g
        d = raw_chain({"s0": (("s1", "1/2"), ("g", "1/2")),
                       "s1": (("s0", 1),),
                       "g": (("g", 1),),
                       "z": (("z", 1),)}, {"g"})
        vec = until_probs(d, true_pred(d), pred(d, "a"))
        assert vec == {"s0": ONE, "s1": ONE, "g": ONE, "z": ZERO}
        assert linear_solves == []

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        rows = {f"q{i}": ((f"q{i + 1}", "1/2"), ("z", "1/2")) for i in range(n)}
        rows[f"q{n}"] = (("g", "1/2"), ("z", "1/2"))
        rows.update({"g": (("g", 1),), "z": (("z", 1),)})
        d = raw_chain(rows, {"g"})
        # the component search walks a path of n + 1 states deep
        vec = until_probs(d, true_pred(d), pred(d, "a"))
        assert vec["q0"] == Fraction(1, 2) ** (n + 1)

    def test_zero_probability_edge_is_not_a_path(self):
        d = raw_chain({"s0": (("s0", 1), ("g", 0)), "g": (("g", 1),)}, {"g"})
        s_zero, _ = qualitative_sets(d, true_pred(d), pred(d, "a"))
        assert s_zero == frozenset({"s0"})
        assert until_probs(d, true_pred(d), pred(d, "a"))["s0"] == ZERO

    def test_singular_system_needs_rows_that_are_not_distributions(self):
        """When every row is a distribution, each component that is solved
        has an exit (else it settles to 0), so I - P restricted to it is
        invertible and SingularSystem cannot be raised.  Chains built by
        hand without validation can still reach it, in a component and in
        a self-loop."""
        cycle = raw_chain({"s0": (("s1", 2), ("z", 1)),
                           "s1": (("s0", "1/2"), ("g", "1/2")),
                           "g": (("g", 1),),
                           "z": (("z", 1),)}, {"g"})
        with pytest.raises(SingularSystem):
            until_probs(cycle, true_pred(cycle), pred(cycle, "a"))
        loop = raw_chain({"s0": (("s0", 1), ("g", "1/2"), ("z", "1/2")),
                          "g": (("g", 1),),
                          "z": (("z", 1),)}, {"g"})
        with pytest.raises(SingularSystem):
            until_probs(loop, true_pred(loop), pred(loop, "a"))


def forward_closure(d, starts):
    seen, frontier = set(starts), list(starts)
    while frontier:
        for t, _ in d.trans[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def solve_in_two_parts(d, phi1, phi2, closed):
    """``until_probs`` on the forward-closed ``closed`` first, then on the
    rest with the first part's values as the known boundary."""
    first = [s for s in d.states if s in closed]
    rest = [s for s in d.states if s not in closed]
    inner = until_probs(Dtmc(tuple(first), d.trans, d.ap, d.labels), phi1, phi2)
    outer = until_probs(Dtmc(tuple(rest), d.trans, d.ap, d.labels), phi1, phi2, inner)
    assert set(inner) == set(first) and set(outer) == set(rest)
    return {**inner, **outer}


class TestKnownBoundary:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_two_part_solve_equals_one_solve(self, seed, data):
        rng = random.Random(seed)
        mdp = random_mdp(rng, max_states=6)
        d = induce_dtmc(mdp, rng.choice(list(enumerate_schedulers(mdp))))
        n = len(d.states)
        phi1 = dict(zip(d.states, data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        phi2 = dict(zip(d.states, data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        closed = forward_closure(d, data.draw(st.sets(st.sampled_from(d.states))))
        assert solve_in_two_parts(d, phi1, phi2, closed) == until_probs(d, phi1, phi2)

    def test_boundary_values_zero_one_and_between(self):
        # b is the only way to phi2 for r0 and r1, and below 1; r2 reaches
        # only g, whose value is 1; r3 reaches only z, whose value is 0
        d = raw_chain({"r0": (("r1", "1/2"), ("b", "1/2")),
                       "r1": (("r0", 1),),
                       "r2": (("r2", "1/2"), ("g", "1/2")),
                       "r3": (("r3", "1/2"), ("z", "1/2")),
                       "b": (("g", "1/2"), ("z", "1/2")),
                       "g": (("g", 1),),
                       "z": (("z", 1),)}, {"g"})
        phi1, phi2 = true_pred(d), pred(d, "a")
        closed = forward_closure(d, ["b"])
        inner = until_probs(Dtmc(("b", "g", "z"), d.trans, d.ap, d.labels), phi1, phi2)
        assert inner == {"b": Fraction(1, 2), "g": ONE, "z": ZERO}
        whole = until_probs(d, phi1, phi2)
        assert whole == {"r0": Fraction(1, 2), "r1": Fraction(1, 2), "r2": ONE, "r3": ZERO, **inner}
        assert solve_in_two_parts(d, phi1, phi2, closed) == whole

    def test_boundary_seeds_the_qualitative_search(self):
        d = raw_chain({"r0": (("r0", "1/2"), ("b", "1/2")), "b": (("b", 1),)}, set())
        rest = Dtmc(("r0",), d.trans, d.ap, d.labels)
        phi1, phi2 = true_pred(d), pred(d, "a")
        assert until_probs(rest, phi1, phi2, {"b": Fraction(1, 3)}) == {"r0": Fraction(1, 3)}
        assert until_probs(rest, phi1, phi2, {"b": ONE}) == {"r0": ONE}


@st.composite
def chains_with_zero_entries(draw):
    """A chain of up to 8 states, so of components of up to 8, whose rows
    have denominators up to 12 and may hold entries of probability 0, with
    phi1 and phi2 drawn per state."""
    n = draw(st.integers(1, 8))
    states = tuple(f"s{i}" for i in range(n))
    rows = {}
    for s in states:
        targets = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n, unique=True))
        den = draw(st.integers(1, 12))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(targets) - 1, max_size=len(targets) - 1)))
        rows[s] = tuple((t, Fraction(b - a, den)) for t, a, b in zip(targets, [0, *cuts], [*cuts, den]))
    d = Dtmc(states=states, trans=rows, ap=(), labels={s: frozenset() for s in states})
    phi1 = dict(zip(states, draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    phi2 = dict(zip(states, draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    closed = forward_closure(d, draw(st.sets(st.sampled_from(states))))
    return d, phi1, phi2, closed


@settings(max_examples=300, deadline=None)
@given(c=chains_with_zero_entries())
@hypothesis_example(c=(raw_chain({"s0": (("s0", "1/4"), ("g", "1/4"), ("z", "1/2"), ("s1", 0)),
                                  "s1": (("s1", "1/2"), ("g", "1/4"), ("z", "1/4")),
                                  "g": (("g", 1),),
                                  "z": (("z", 1),)}, {"g"}),
                       {"s0": True, "s1": True, "g": True, "z": False},
                       {"s0": False, "s1": False, "g": True, "z": False}, {"g", "z"}))
def test_zero_probability_entries_match_the_dense_solve_and_the_two_part_solve(c):
    # an entry of probability 0 is no edge: it neither joins two states in
    # a component nor counts as an exit of one, even to a state settled later
    d, phi1, phi2, closed = c
    whole = until_probs(d, phi1, phi2)
    assert whole == dense_until(d, phi1, phi2)
    assert solve_in_two_parts(d, phi1, phi2, closed) == whole


@settings(max_examples=300, deadline=None)
@given(c=chains_with_zero_entries())
@hypothesis_example(c=(raw_chain({"s0": (("s1", 0), ("z", 1)),
                                  "s1": (("s1", "1/2"), ("g", "1/2")),
                                  "g": (("g", 1),),
                                  "z": (("z", 1),)}, {"g"}),
                       {"s0": True, "s1": True, "g": False, "z": True},
                       {"s0": False, "s1": False, "g": True, "z": False}, set()))
def test_step_distances_count_positive_steps_and_leave_out_the_prob0_set(c):
    # a target is within k steps of positive probability exactly where the
    # bounded until up to k is positive, and out of reach where until is 0
    d, phi1, phi2, _ = c
    dist = step_distances(d, phi1, phi2)
    for k in range(len(d.states) + 2):
        probs = bounded_until_probs(d, phi1, phi2, 0, k)
        assert all((s in dist and dist[s] <= k) == (probs[s] > 0) for s in d.states), (k, dist, probs)
    probs = until_probs(d, phi1, phi2)
    assert qualitative_sets(d, phi1, phi2)[0] == {s for s in d.states if probs[s] == 0}


class TestBounded:
    def test_zero_window_is_indicator(self):
        rng = random.Random(9)
        for _ in range(20):
            mdp = random_mdp(rng)
            d = induce_dtmc(mdp, next(enumerate_schedulers(mdp)))
            phi2 = pred(d, "a")
            vec = bounded_until_probs(d, true_pred(d), phi2, 0, 0)
            assert vec == {s: (ONE if phi2[s] else ZERO) for s in d.states}

    def test_d_half_one_step_window(self, half):
        vec = bounded_until_probs(half, true_pred(half), pred(half, "a"), 0, 1)
        # brute-force over length-<=1 paths: u0 -> u1 with 1/2
        assert vec["u0"] == brute_bounded_until(half, true_pred(half), pred(half, "a"), 0, 1, "u0")
        assert vec["u0"] == Fraction(1, 2)

    def test_coin_alpha_window_1_2(self, coin_alpha):
        phi1 = true_pred(coin_alpha)
        phi2 = pred(coin_alpha, "a")
        oracle = brute_bounded_until(coin_alpha, phi1, phi2, 1, 2, "s0")
        vec = bounded_until_probs(coin_alpha, phi1, phi2, 1, 2)
        assert vec["s0"] == oracle == Fraction(3, 4)

    def test_matches_prefix_enumeration(self):
        rng = random.Random(10)
        for _ in range(25):
            mdp = random_mdp(rng)
            for sched in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, sched)
                phi1 = pred(d, "a")
                phi2 = pred(d, "b")
                for k1, k2 in ((0, 0), (0, 2), (1, 3), (2, 4), (4, 4)):
                    vec = bounded_until_probs(d, phi1, phi2, k1, k2)
                    for s in d.states:
                        assert vec[s] == brute_bounded_until(d, phi1, phi2, k1, k2, s)

    def test_window_1_1_equals_next(self):
        rng = random.Random(12)
        for _ in range(20):
            mdp = random_mdp(rng)
            d = induce_dtmc(mdp, next(enumerate_schedulers(mdp)))
            phi = pred(d, "a")
            assert bounded_until_probs(d, true_pred(d), phi, 1, 1) == next_probs(d, phi)

    def test_deep_bound_is_exact_without_recursion(self):
        # a holds only in s1, which is left after one step; s0 first moves
        # to s1 at step j with probability (1/2)^j
        d = chain(parse_mdp("states: s0 s1 s2\n"
                            "labels: s1: a\n"
                            "action s0 tau: s0 1/2, s1 1/2\n"
                            "action s1 tau: s2 1\n"
                            "action s2 tau: s2 1\n"),
                  s0="tau", s1="tau", s2="tau")
        vec = bounded_until_probs(d, true_pred(d), pred(d, "a"), 0, 3000)
        assert vec["s0"] == ONE - Fraction(1, 2) ** 3000
        # sum of (1/2)^j over j in [1000, 3000]
        late = bounded_until_probs(d, true_pred(d), pred(d, "a"), 1000, 3000)
        assert late["s0"] == Fraction(1, 2) ** 999 - Fraction(1, 2) ** 3000

    def test_bound_error(self, half):
        with pytest.raises(BoundError):
            bounded_until_probs(half, true_pred(half), pred(half, "a"), 2, 1)
        with pytest.raises(BoundError):
            list(bounded_until_windows(half, true_pred(half), pred(half, "a"), 2, 1))


class TestBoundedWindows:
    """One iteration yields every reduced-bound window of a bounded until."""

    @pytest.mark.parametrize("k1, k2, expected", [
        (2, 3, [(0, 0), (0, 1), (1, 2), (2, 3)]),
        (0, 20, [(0, j) for j in range(21)]),
    ])
    def test_each_window_equals_its_own_solve(self, k1, k2, expected):
        rng = random.Random(14)
        for _ in range(10):
            mdp = random_mdp(rng)
            for sched in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, sched)
                phi1, phi2 = pred(d, "a"), pred(d, "b")
                windows = list(bounded_until_windows(d, phi1, phi2, k1, k2))
                assert [w for w, _ in windows] == expected
                for (w1, w2), vec in windows:
                    assert vec == bounded_until_probs(d, phi1, phi2, w1, w2)

    def test_deep_bound_every_window(self):
        # s0 first moves to the a-state s1 at step j with probability (1/2)^j
        d = chain(parse_mdp("states: s0 s1 s2\n"
                            "labels: s1: a\n"
                            "action s0 tau: s0 1/2, s1 1/2\n"
                            "action s1 tau: s2 1\n"
                            "action s2 tau: s2 1\n"),
                  s0="tau", s1="tau", s2="tau")
        phi1, phi2 = true_pred(d), pred(d, "a")
        windows = list(bounded_until_windows(d, phi1, phi2, 0, 3000))
        assert [w for w, _ in windows] == [(0, j) for j in range(3001)]
        for (_, j), vec in windows:
            assert vec == {"s0": ONE - Fraction(1, 2) ** j, "s1": ONE, "s2": ZERO}
        # each window from its own iteration too, on a spread of windows
        # (all 3,001 would be quadratic)
        for (w1, w2), vec in windows[::250] + windows[-2:]:
            assert vec == bounded_until_probs(d, phi1, phi2, w1, w2)


HALF = Fraction(1, 2)
# q0 stays with 1/2 at each step, so its value never settles; q1 is the target
LOOP = {"q0": [("q0", HALF), ("q1", HALF)], "q1": [("q2", 1)], "q2": [("q2", 1)]}
# u0 reaches the target u1 or the sink u2 in one step, so every phase settles
FORK = {"u0": [("u1", HALF), ("u2", HALF)], "u1": [("u1", 1)], "u2": [("u2", 1)]}


def case(rows, live, k1, k2, targets=("q1", "u1")):
    """``(d, phi1, phi2, k1, k2)`` on ``raw_chain(rows)``: phi1 holds at the
    ``live`` states, phi2 at the ``targets``."""
    d = raw_chain(rows, targets)
    return d, {s: s in live for s in d.states}, pred(d, "a"), k1, k2


@st.composite
def bounded_cases(draw):
    """``case``s on ``random_mdp`` chains of up to five states, drawn with or
    without an absorbing sink and a 1/2 self-loop on q0 whose other half
    leaves it, and with bounds 0 <= k1 <= k2 <= 10**4, half of them small."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    mdp = random_mdp(rng, max_states=5, max_actions=1)
    rows = dict(induce_dtmc(mdp, next(enumerate_schedulers(mdp))).trans)
    states = mdp.states
    if draw(st.booleans()):
        rows[states[-1]] = ((states[-1], ONE),)
    if draw(st.booleans()):
        rows[states[0]] = ((states[0], HALF), (states[1], HALF))
    live = [s for s in states if draw(st.integers(0, 3))]
    targets = [s for s in states if draw(st.integers(0, 2)) == 0]
    k2 = draw(st.one_of(st.integers(0, 40), st.integers(0, 10**4)))
    return case(rows, live, draw(st.integers(0, k2)), k2, targets)


EXAMPLES = [
    case(FORK, FORK, 0, 10**4),  # settles after two steps
    case(LOOP, LOOP, 0, 10**4),  # never settles: squares the windowed phase
    case(LOOP, LOOP, 9000, 10**4),  # squares the plain phase
    case(LOOP, ("q0",), 3, 5),  # the plain phase halves q0 at each step
    case(FORK, FORK, 2, 10),  # a plain phase after a settled windowed one
    case(LOOP, LOOP, 0, 0),
]


def with_examples(test):
    for example in EXAMPLES:
        test = hypothesis_example(c=example)(test)
    return test


class TestBoundedAgainstEveryStep:
    """Settled phases and squared ones give the vectors that taking every
    step gives (``helpers.reference_bounded_steps``)."""

    @settings(max_examples=60, deadline=None)
    @with_examples
    @given(c=bounded_cases())
    def test_last_vector(self, c):
        *_, (_, unit, vec) = reference_bounded_steps(*c)
        assert bounded_until_probs(*c) == {s: Fraction(v, unit) for s, v in vec.items()}

    @settings(max_examples=30, deadline=None)
    @with_examples
    @given(c=bounded_cases())
    def test_every_window(self, c):
        windows = bounded_until_windows(*c)
        for (window, unit, vec), (got_window, got) in itertools.zip_longest(reference_bounded_steps(*c), windows):
            assert got_window == window
            assert all(got[s].numerator * unit == v * got[s].denominator for s, v in vec.items()), window

    def test_a_settled_phase_takes_no_more_steps(self):
        d, phi1, phi2, k1, k2 = case(FORK, FORK, 10**5, 10**9)
        steps = [(first, last) for first, last, _, _ in analysis._bounded_steps(d, phi1, phi2, k1, k2)]
        # u0 is 1/2 after one step and stays; the plain phase starts settled
        assert steps == [(0, 0), (1, 1), (2, k2 - k1), (k2 - k1 + 1, k2)]
        assert bounded_until_probs(d, phi1, phi2, k1, k2) == {"u0": HALF, "u1": ONE, "u2": ZERO}

    def test_a_moving_phase_squares_the_rest_unless_every_window_is_asked_for(self):
        d, phi1, phi2, _, k = case(LOOP, LOOP, 0, 10**6)
        steps = [(first, last) for first, last, _, _ in analysis._bounded_steps(d, phi1, phi2, 0, k, every=False)]
        assert steps == [(j, j) for j in range(4)] + [(k, k)]
        assert bounded_until_probs(d, phi1, phi2, 0, k)["q0"] == ONE - HALF ** k
        windows = itertools.islice(bounded_until_windows(d, phi1, phi2, 0, k), 100)
        assert all(vec["q0"] == ONE - HALF ** j for (_, j), vec in windows)


class TestNext:
    def test_d_half(self, half):
        assert next_probs(half, pred(half, "a"))["u0"] == Fraction(1, 2)

    def test_true_and_false(self, coin_alpha):
        everywhere = next_probs(coin_alpha, true_pred(coin_alpha))
        nowhere = next_probs(coin_alpha, {s: False for s in coin_alpha.states})
        assert all(v == ONE for v in everywhere.values())
        assert all(v == ZERO for v in nowhere.values())


class TestValueIteration:
    def test_zero_iterations_is_initialization(self, half):
        phi2 = pred(half, "a")
        vec = until_probs_vi(half, true_pred(half), phi2, 0)
        assert vec == {s: (ONE if phi2[s] else ZERO) for s in half.states}

    def test_acyclic_chain_exact_after_one_step(self, half):
        vec = until_probs_vi(half, true_pred(half), pred(half, "a"), 1)
        assert vec["u0"] == Fraction(1, 2)

    def test_coin_alpha_thirty_iterations(self, coin_alpha):
        vec = until_probs_vi(coin_alpha, true_pred(coin_alpha), pred(coin_alpha, "a"), 30)
        assert vec["s0"] == ONE - Fraction(1, 2) ** 30
        assert abs(float(vec["s0"]) - 1.0) < 1e-9

    def test_slow_self_loop_sixty_iterations_miss_tolerance(self):
        # a 3/4 self-loop contracts by 3/4 per step: 60 steps leave
        # (3/4)^60 ~ 3.2e-8, so no fixed step count meets 1e-9 everywhere
        d = chain(parse_mdp("states: s0 s1\n"
                            "labels: s1: a\n"
                            "action s0 tau: s0 3/4, s1 1/4\n"
                            "action s1 tau: s1 1\n"),
                  s0="tau", s1="tau")
        exact = until_probs(d, true_pred(d), pred(d, "a"))
        vec = until_probs_vi(d, true_pred(d), pred(d, "a"), 60)
        assert exact["s0"] == ONE
        assert vec["s0"] == ONE - Fraction(3, 4) ** 60
        assert exact["s0"] - vec["s0"] > Fraction(1, 10 ** 9)

    def test_monotone_convergence_below_exact(self):
        rng = random.Random(13)
        for _ in range(20):
            mdp = random_mdp(rng)
            d = induce_dtmc(mdp, next(enumerate_schedulers(mdp)))
            phi1 = pred(d, "a")
            phi2 = pred(d, "b")
            exact = until_probs(d, phi1, phi2)
            prev = until_probs_vi(d, phi1, phi2, 0)
            for n in (1, 2, 5, 9):
                cur = until_probs_vi(d, phi1, phi2, n)
                for s in d.states:
                    assert prev[s] <= cur[s] <= exact[s]
                prev = cur
