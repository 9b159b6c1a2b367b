import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermdp.errors import (
    ArityZero,
    DanglingReference,
    HyperMdpError,
    IncompatibleScheduler,
    ModelSyntaxError,
    NoEnabledAction,
    RowSumError,
)
from hypermdp.model import (
    SchedulerAssignment,
    dtmc_as_mdp,
    enumerate_schedulers,
    format_mdp,
    induce_dtmc,
    parse_mdp,
    self_compose,
)
from .conftest import D_HALF_TEXT, M_COIN_TEXT
from .helpers import random_mdp

ONE = Fraction(1)
HALF = Fraction(1, 2)


def sched(mdp, **choices):
    return SchedulerAssignment(states=mdp.states, actions=tuple(choices[s] for s in mdp.states))


class TestValidate:
    def test_m_coin_enabled_sets(self, m_coin):
        assert m_coin.states == ("s0", "s1", "s2")
        assert m_coin.enabled["s0"] == ("alpha", "beta")
        assert m_coin.enabled["s1"] == ("tau",)
        assert m_coin.enabled["s2"] == ("tau",)
        assert m_coin.ap == ("init", "a")
        assert m_coin.labels["s0"] == frozenset({"init"})
        assert m_coin.labels["s2"] == frozenset()

    def test_row_sum_error(self):
        text = "states: s0 s1\naction s0 alpha: s1 1/2\naction s1 tau: s1 1\n"
        with pytest.raises(RowSumError) as exc:
            parse_mdp(text)
        assert "line 2" in str(exc.value)

    def test_zero_sum_row_means_disabled(self):
        text = (
            "states: s0 s1\n"
            "action s0 alpha: s1 0\n"
            "action s0 beta: s1 1\n"
            "action s1 tau: s1 1\n"
        )
        mdp = parse_mdp(text)
        assert mdp.enabled["s0"] == ("beta",)

    def test_no_enabled_action(self):
        text = "states: s0 s1\naction s0 alpha: s1 1\n"
        with pytest.raises(NoEnabledAction):
            parse_mdp(text)

    def test_dangling_target(self):
        text = "states: s0\naction s0 alpha: s9 1\n"
        with pytest.raises(DanglingReference):
            parse_mdp(text)

    def test_dangling_label(self):
        text = "states: s0\nlabels: s9: a\naction s0 tau: s0 1\n"
        with pytest.raises(DanglingReference):
            parse_mdp(text)

    def test_duplicate_row_rejected(self):
        text = "states: s0\naction s0 t: s0 1\naction s0 t: s0 1\n"
        with pytest.raises(ModelSyntaxError):
            parse_mdp(text)

    def test_zero_probability_edges_dropped(self, m_coin):
        text = M_COIN_TEXT.replace("action s0 beta: s2 1", "action s0 beta: s2 1, s1 0")
        mdp = parse_mdp(text)
        assert mdp.trans[("s0", "beta")] == (("s2", ONE),)

    def test_format_round_trip(self, m_coin):
        again = parse_mdp(format_mdp(m_coin))
        assert again == m_coin

    def test_two_loads_share_name_objects(self):
        first, second = parse_mdp(M_COIN_TEXT), parse_mdp("".join(list(M_COIN_TEXT)))
        for a, b in zip(first.states, second.states):
            assert a is b
        for a, b in zip(first.actions, second.actions):
            assert a is b
        for a, b in zip(first.ap, second.ap):
            assert a is b
        for key, row in first.trans.items():
            other_key = next(k for k in second.trans if k == key)
            assert other_key[0] is key[0] and other_key[1] is key[1]
            for (t1, _), (t2, _) in zip(row, second.trans[key]):
                assert t1 is t2
        for s in first.states:
            assert {id(p) for p in first.labels[s]} == {id(p) for p in second.labels[s]}


class TestInduce:
    def test_beta_choice(self, m_coin):
        d = induce_dtmc(m_coin, sched(m_coin, s0="beta", s1="tau", s2="tau"))
        assert d.trans["s0"] == (("s2", ONE),)
        assert d.labels == m_coin.labels

    def test_alpha_choice(self, m_coin):
        d = induce_dtmc(m_coin, sched(m_coin, s0="alpha", s1="tau", s2="tau"))
        assert dict(d.trans["s0"]) == {"s0": HALF, "s1": HALF}

    def test_incompatible_choice(self, m_coin):
        with pytest.raises(IncompatibleScheduler):
            induce_dtmc(m_coin, sched(m_coin, s0="gamma", s1="tau", s2="tau"))

    def test_rows_stay_stochastic(self):
        rng = random.Random(7)
        for _ in range(25):
            mdp = random_mdp(rng)
            for assignment in enumerate_schedulers(mdp):
                d = induce_dtmc(mdp, assignment)
                for s in d.states:
                    assert sum(p for _, p in d.trans[s]) == ONE


class TestCompose:
    def test_unary_composition_renames(self, m_coin):
        d = induce_dtmc(m_coin, sched(m_coin, s0="alpha", s1="tau", s2="tau"))
        c = self_compose([d])
        assert c.states == (("s0",), ("s1",), ("s2",))
        assert c.labels[("s0",)] == frozenset({"init@1"})
        assert c.labels[("s1",)] == frozenset({"a@1"})

    def test_pair_probability_is_product(self, m_coin):
        d = induce_dtmc(m_coin, sched(m_coin, s0="alpha", s1="tau", s2="tau"))
        c = self_compose([d, d])
        row = dict(c.trans[("s0", "s0")])
        assert row[("s0", "s1")] == Fraction(1, 4)

    def test_d_half_pair_absorbing(self, d_half):
        d = induce_dtmc(d_half, sched(d_half, u0="tau", u1="tau", u2="tau"))
        # brute-force product of the two absorbing rows
        expected = {}
        for t1, p1 in d.trans["u1"]:
            for t2, p2 in d.trans["u2"]:
                expected[(t1, t2)] = p1 * p2
        c = self_compose([d, d])
        assert dict(c.trans[("u1", "u2")]) == expected
        assert expected == {("u1", "u2"): ONE}

    def test_rows_stay_stochastic(self, m_coin):
        d = induce_dtmc(m_coin, sched(m_coin, s0="alpha", s1="tau", s2="tau"))
        c = self_compose([d, d, d])
        for r in c.states:
            assert sum(p for _, p in c.trans[r]) == ONE

    def test_label_round_trip(self, m_coin):
        rng = random.Random(3)
        for _ in range(10):
            mdp = random_mdp(rng)
            chains = [induce_dtmc(mdp, next(enumerate_schedulers(mdp)))] * 2
            c = self_compose(chains)
            for r in c.states:
                for i, s in enumerate(r, start=1):
                    for prop in mdp.labels[s]:
                        assert f"{prop}@{i}" in c.labels[r]
                    for tagged in c.labels[r]:
                        name, _, idx = tagged.rpartition("@")
                        if int(idx) == i:
                            assert name in mdp.labels[s]

    def test_arity_zero(self):
        with pytest.raises(ArityZero):
            self_compose([])


class TestEnumerate:
    def test_m_coin_two_assignments(self, m_coin):
        assignments = list(enumerate_schedulers(m_coin))
        assert len(assignments) == 2
        assert assignments[0].choice("s0") == "alpha"
        assert assignments[1].choice("s0") == "beta"

    def test_single_action_model(self, d_half):
        assert len(list(enumerate_schedulers(d_half))) == 1

    def test_product_count_and_lex_order(self):
        text = (
            "states: q0 q1 q2\n"
            "action q0 a: q1 1\naction q0 b: q2 1\n"
            "action q1 a: q0 1\naction q1 b: q2 1\naction q1 c: q1 1\n"
            "action q2 z: q2 1\n"
        )
        mdp = parse_mdp(text)
        assignments = list(enumerate_schedulers(mdp))
        assert len(assignments) == 6
        assert assignments[0].actions == ("a", "a", "z")
        assert [x.actions for x in assignments] == sorted(
            x.actions for x in assignments
        )

    def test_no_duplicates(self):
        rng = random.Random(11)
        for _ in range(20):
            mdp = random_mdp(rng, max_states=4)
            assignments = list(enumerate_schedulers(mdp))
            assert len(set(assignments)) == len(assignments)
            assert len(assignments) == mdp.scheduler_space_size()

    def test_start_streams_the_tail_of_the_order(self):
        rng = random.Random(12)
        three = parse_mdp("states: q0 q1\naction q0 a: q1 1\naction q0 b: q0 1\n"
                          "action q1 a: q0 1\naction q1 b: q1 1\naction q1 c: q1 1\n")
        for mdp in [three] + [random_mdp(rng) for _ in range(20)]:
            assignments = list(enumerate_schedulers(mdp))
            for k, start in enumerate(assignments):
                assert list(enumerate_schedulers(mdp, start)) == assignments[k:]


def _compose_two_state_spaces():
    one, two = parse_mdp(M_COIN_TEXT), parse_mdp(D_HALF_TEXT)
    return self_compose([induce_dtmc(m, next(enumerate_schedulers(m))) for m in (one, two)])


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_mdp("states: s0\naction s0 a: s0 x\n"), ModelSyntaxError, "line 2: bad probability 'x'"),
    (lambda: parse_mdp("states: s0\naction s0 a: s0 1/0\n"), ModelSyntaxError, "line 2: zero denominator in '1/0'"),
    (lambda: parse_mdp("states: s0\nstates: s1\n"), ModelSyntaxError, "line 2: duplicate states: line"),
    (lambda: parse_mdp("states: 0s\n"), ModelSyntaxError, "line 1: bad state id '0s'"),
    (lambda: parse_mdp("states: s0 s0\n"), ModelSyntaxError, "line 1: duplicate state 's0'"),
    (lambda: parse_mdp("states: s0\nlabels: s0 a\n"), ModelSyntaxError, "line 2: bad label entry 's0 a'"),
    (lambda: parse_mdp("states: s0\nlabels: s0: 1a\n"), ModelSyntaxError, "line 2: bad proposition '1a'"),
    (lambda: parse_mdp("states: s0\naction s0: s0 1\n"), ModelSyntaxError, "line 2: bad action header 'action s0'"),
    (lambda: parse_mdp("states: s0\naction s0 1a: s0 1\n"), ModelSyntaxError, "line 2: bad action name '1a'"),
    (lambda: parse_mdp("states: s0\naction s0 a: s0\n"), ModelSyntaxError, "line 2: bad transition entry 's0'"),
    (lambda: parse_mdp("states: s0\naction s0 a: s0 1/2, s0 1/2\n"), ModelSyntaxError,
     "line 2: duplicate target 's0' in row"),
    (lambda: parse_mdp("states: s0\naction s0 a: s0 1\naction s1 a: s0 1\n"), DanglingReference,
     "line 3: action row for undeclared state 's1'"),
    (lambda: parse_mdp("states: s0 s1\naction s0 a: s0 1/3, s1 1/3\n"), RowSumError,
     "line 2: row s0 a sums to 2/3, expected 0 or 1"),
    (lambda: parse_mdp("states: s0 s1\naction s0 a: s0 1/6, s1 1/6\n"), RowSumError,
     "line 2: row s0 a sums to 1/3, expected 0 or 1"),
    (lambda: parse_mdp("states: s0\naction s0 a: s0 1\n\naction s0 b: s0 1/0\n"), ModelSyntaxError,
     "line 4: zero denominator in '1/0'"),
    (lambda: parse_mdp("states: " + " ".join(f"q{i}" for i in range(300)) + " q17 q300\n"), ModelSyntaxError,
     "line 1: duplicate state 'q17'"),
    (_compose_two_state_spaces, ArityZero, "all composed chains must share one state space"),
])
def test_input_rejections(build, error, message):
    with pytest.raises(HyperMdpError) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("row, trans", [
    ("s1 2/4, s2 2/4", (("s1", HALF), ("s2", HALF))),
    ("s1 1/6, s2 1/10, s3 1/15, s0 2/3",  # the common denominator 30 is none of the row's
     (("s1", Fraction(1, 6)), ("s2", Fraction(1, 10)), ("s3", Fraction(1, 15)), ("s0", Fraction(2, 3)))),
    ("s1 1, s2 0/5", (("s1", ONE),)),
    ("s1 0, s2 0/5", None),  # sums to 0: disabled
])
def test_row_sums_and_zero_entries(row, trans):
    mdp = parse_mdp("states: s0 s1 s2 s3\n"
                    f"action s0 a: {row}\n"
                    "action s0 b: s0 1\n" + "".join(f"action s{i} t: s{i} 1\n" for i in (1, 2, 3)))
    assert mdp.trans.get(("s0", "a")) == trans
    assert mdp.enabled["s0"] == (("a", "b") if trans else ("b",))
    assert mdp.actions == (("a", "b", "t") if trans else ("b", "t"))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_format_parse_round_trip_on_random_models(seed):
    mdp = random_mdp(random.Random(seed), max_actions=3)
    again = parse_mdp(format_mdp(mdp))
    used = tuple(a for a in mdp.actions if any(a in mdp.enabled[s] for s in mdp.states))
    assert again.actions == used and again.states == mdp.states and again.enabled == mdp.enabled
    assert again.trans == mdp.trans and again.labels == mdp.labels


def test_garbage_model_input_raises_only_package_errors():
    import random as _random

    from hypermdp.errors import HyperMdpError

    rng = _random.Random(98)
    alphabet = "abs01 :;,/#\nstatelionqwz."
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            parse_mdp(text)
        except HyperMdpError:
            pass


def test_dtmc_as_mdp_round_trip(d_half):
    d = induce_dtmc(d_half, SchedulerAssignment(d_half.states, ("tau", "tau", "tau")))
    lifted = dtmc_as_mdp(d)
    assert lifted.scheduler_space_size() == 1
    assert induce_dtmc(lifted, next(enumerate_schedulers(lifted))).trans == d.trans
