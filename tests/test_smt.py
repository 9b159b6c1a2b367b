import collections
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypermdp import analysis, cases, enumcheck, formula, smt
from hypermdp.constraints import (
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
    XorT,
    emit_smtlib2,
    evaluate_system,
    evaluate_term,
)
from hypermdp.enumcheck import Evaluator, build_composition, check, replay, truth_eval
from hypermdp.errors import IncompleteModel, MixedSchedulerBlock
from hypermdp.formula import (
    BODY_KINDS,
    TRUE,
    And,
    BoundedUntil,
    Const,
    Formula,
    Less,
    Next,
    ProbOf,
    Prop,
    SchedQuant,
    StateQuant,
    Until,
    parse_formula,
)
from hypermdp.model import SchedulerAssignment, enumerate_schedulers, parse_mdp
from hypermdp.record import Record
from hypermdp.smt import (
    decode_witness,
    encode_main,
    full_assignment,
    holds_sym,
    parse_solver_model,
    prob_sym,
    solve_eager,
    transform_for_encoding,
)
from .helpers import (BOUNDED_TA, PUBLISHED_ROWS, TS_INDEP, counting_combinations, full_product, guarded_formula,
                      random_body, random_mdp, solver_model, with_never)

REACH_ONE = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1"
REACH_A = ProbOf(Until(TRUE, Prop("a", "x")))  # the until node of P(F a(x))
REACH_HALF = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1/2"
FORALL_REACH = "forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1"


def first_choice(mdp, **overrides):
    actions = tuple(overrides.get(s, mdp.enabled[s][0]) for s in mdp.states)
    return SchedulerAssignment(states=mdp.states, actions=actions)


class TestTransform:
    def test_direct_for_exists_block(self):
        f = parse_formula(REACH_ONE)
        f_enc, polarity = transform_for_encoding(f)
        assert polarity == "direct"
        assert f_enc == f

    def test_negated_flips_state_quantifiers(self):
        f = parse_formula("forall sched s. forall st x(s). exists st y(s). a(x) & a(y)")
        f_enc, polarity = transform_for_encoding(f)
        assert polarity == "negated"
        kinds = [q.exists for q in f_enc.prefix]
        assert kinds == [True, True, False]

    def test_mixed_scheduler_block_rejected(self):
        f = parse_formula("exists sched s. forall sched t. exists st x(s). a(x)")
        with pytest.raises(MixedSchedulerBlock):
            transform_for_encoding(f)


class TestEncodeSemantics:
    def test_negation_emits_xor_and_prop_facts(self, m_coin):
        # no scheduler changes a negated proposition: it is folded to the
        # complement of the labels at every state, and nothing is emitted
        f = parse_formula("exists sched s. exists st x(s). !a(x)")
        cs, _ = encode_main(m_coin, f)
        assert cs.meta.fixed[f.body] == {("s0",): True, ("s1",): False, ("s2",): True}
        assert cs.meta.fixed[Prop("a", "x")] == {("s0",): False, ("s1",): True, ("s2",): False}
        assert not [t for t in cs.constraints if isinstance(t, XorT)]
        prop_facts = [
            t for t in cs.constraints
            if isinstance(t, BoolRef) or (isinstance(t, NotT) and isinstance(t.operand, BoolRef))
        ]
        assert prop_facts == []
        assert cs.variables == {} and cs.truth is True

    def test_constant_pins_every_tuple(self, m_coin):
        f = parse_formula("exists sched s. exists st x(s). exists st y(s). P(X a(x)) < 1/2")
        cs, _ = encode_main(m_coin, f)
        const_idx = None
        for node, idx in cs.subformula_index.items():
            if cs.subformula_text[idx] == "1/2":
                const_idx = idx
        # a constant has the empty support: fixed at its one point for all
        # |S|^2 tuples, it declares no variable and folds into every
        # comparison that reads it
        assert cs.meta.fixed[Const(Fraction(1, 2))] == {(): Fraction(1, 2)}
        assert not [name for name in cs.variables if name.endswith(f"_{const_idx}")]
        compared = [cmp for t in cs.constraints if isinstance(t, OrT)
                    for branch in t.items if isinstance(branch, AndT)
                    for cmp in branch.items if isinstance(cmp, Cmp) and cmp.op in ("<", ">=")]
        assert compared and all(cmp.right == Lin(Fraction(1, 2), ()) for cmp in compared)

    def test_next_guard_sums_match_hand_expansion(self, m_coin):
        f = parse_formula("exists sched s. exists st x(s). P(X a(x)) < 1")
        cs, _ = encode_main(m_coin, f)
        text = emit_smtlib2(cs)
        next_idx = cs.subformula_index[ProbOf(Next(Prop("a", "x")))]
        # a(x) is fixed at every state, so each step indicator is a
        # constant: alpha's sum 1/2 * [a(s0)] + 1/2 * [a(s1)] folds to 1/2,
        # beta's [a(s2)] to 0, and no indicator is declared
        alpha_line = f"(assert (=> ch_0_s0.alpha (= pr_s0_{next_idx} (/ 1 2))))"
        beta_line = f"(assert (=> ch_0_s0.beta (= pr_s0_{next_idx} 0)))"
        assert alpha_line in text
        assert beta_line in text
        assert not [kind for kind in cs.variables.values() if kind == "toint"]
        # P(X a(x)) itself is fixed where every successor agrees on a(x)
        assert cs.meta.fixed[ProbOf(Next(Prop("a", "x")))] == {("s1",): 1, ("s2",): 0}

    def test_until_pins_target_tuples(self, m_coin):
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(m_coin, f)
        # the composed state s1 satisfies the target, so its until value is
        # fixed to 1 there (s2, which never reaches it, to 0), and
        # full_assignment checks both against the exact values
        values, choices = full_assignment(cs, m_coin, {"s": first_choice(m_coin)})
        until_idx = cs.subformula_index[REACH_A]
        assert cs.meta.fixed[REACH_A] == {("s1",): 1, ("s2",): 0}
        assert prob_sym(("s1",), until_idx) not in values
        assert evaluate_system(cs, values, choices)

    def test_bounded_until_recursion_families(self, m_coin):
        f = parse_formula("exists sched s. exists st x(s). P(true U[2,3] a(x)) > 0")
        cs, _ = encode_main(m_coin, f)
        windows = []
        for node in cs.subformula_index:
            if isinstance(node, ProbOf) and isinstance(node.path, BoundedUntil):
                windows.append((node.path.k1, node.path.k2))
        assert sorted(windows) == [(0, 0), (0, 1), (1, 2), (2, 3)]


class TestTruth:
    """The truth term nests one disjunction or conjunction per state
    quantifier over its domain; bodies with no proposition conjunct range
    over every state."""

    def test_forall_is_conjunction_over_states(self, m_coin):
        f = parse_formula("exists sched s. forall st x(s). P(X a(x)) <= 1")
        cs, _ = encode_main(m_coin, f)
        # the body is fixed true at s1 and s2, where P(X a(x)) is fixed:
        # their conjuncts fold away
        assert isinstance(cs.truth, AndT)
        assert cs.truth.items == (BoolRef(holds_sym(("s0",), 0)),)
        assert cs.meta.fixed[f.body] == {("s1",): True, ("s2",): True}

    def test_exists_forall_nesting(self, m_coin):
        f = parse_formula("exists sched s. exists st x(s). forall st y(s). P(X a(x)) <= P(X a(y))")
        cs, _ = encode_main(m_coin, f)
        assert isinstance(cs.truth, OrT)
        assert len(cs.truth.items) == 3
        assert all(isinstance(item, AndT) for item in cs.truth.items)
        # a conjunct fixed true folds away, one fixed false stays beside the
        # open tuples of its level, which decode_witness walks
        assert [len(item.items) for item in cs.truth.items] == [3, 2, 1]
        assert cs.truth.items[1].items[1] is False

    def test_guarded_exists_ranges_over_its_guard_states(self, m_coin):
        # init(x) is a conjunct: only s0 can witness x; y still takes every state
        f = parse_formula("exists sched s. exists st x(s). forall st y(s). init(x) & P(F a(x)) >= P(F a(y))")
        cs, _ = encode_main(m_coin, f)
        assert cs.meta.domains == (("s0",), m_coin.states)
        assert isinstance(cs.truth, OrT) and len(cs.truth.items) == 1
        (only,) = cs.truth.items
        assert isinstance(only, AndT) and len(only.items) == 3

    def test_closed_body_single_literal(self, m_coin):
        # a closed body is fixed: its truth term is a single constant
        f = parse_formula("1/2 < 1")
        cs, _ = encode_main(m_coin, f)
        assert cs.truth is True
        assert emit_smtlib2(cs).splitlines() == ["; subformulas:", ";   [0] ([1] < [2])", ";   [1] 1/2",
                                                 ";   [2] 1", "(set-logic QF_LRA)", "(check-sat)", "(get-model)"]


class TestEagerSolve:
    def test_reach_one_sat_with_alpha(self, m_coin):
        f = parse_formula(REACH_ONE)
        result = solve_eager(m_coin, f)
        assert result.sat is True
        assert result.polarity == "direct"
        assert result.model is None
        verdict = result.decoded
        assert verdict.truth is True
        assert verdict.schedulers["s"].choice("s0") == "alpha"
        assert verdict.states["x"] == "s0"
        # the model a solver returns for this witness names the same choice
        cs, _ = encode_main(m_coin, f)
        assert solver_model(cs, m_coin, verdict.schedulers)["ch_0_s0.alpha"] is True

    def test_reach_half_unsat(self, m_coin):
        result = solve_eager(m_coin, parse_formula(REACH_HALF))
        assert result.sat is False
        assert result.decoded.truth is False

    def test_forall_negated_counterexample(self, m_coin):
        result = solve_eager(m_coin, parse_formula(FORALL_REACH))
        assert result.sat is True
        assert result.polarity == "negated"
        verdict = result.decoded
        assert verdict.truth is False
        assert verdict.mode == "counterexample"
        assert verdict.schedulers["s"].choice("s0") == "beta"

    def test_agrees_with_enum_on_smoke_corpus(self):
        rng = random.Random(31)
        templates = [
            "exists sched s. exists st x(s). P(F a(x)) = 1",
            "forall sched s. forall st x(s). P(F a(x)) > 0",
            "exists sched s. forall st x(s). exists st y(s). P(F a(x)) <= P(F a(y))",
            "forall sched s. exists st x(s). P(X b(x)) >= 1/4",
        ]
        for _ in range(15):
            mdp = random_mdp(rng)
            for text in templates:
                f = parse_formula(text)
                enum_verdict = check(mdp, f)
                eager_verdict = solve_eager(mdp, f).decoded
                assert enum_verdict.truth == eager_verdict.truth, (text, mdp)

    def test_three_state_variables_at_the_cap(self, m_coin):
        # y and z share one scheduler: pinned to the init state they cannot
        # reach the target with both probability 1 and probability 0
        f = parse_formula(
            "exists sched s. exists st x(s). exists st y(s). exists st z(s). "
            "init(x) & (init(y) & P(F a(y)) = 1) & (init(z) & P(F a(z)) = 0)"
        )
        assert solve_eager(m_coin, f).decoded.truth is False
        assert check(m_coin, f).truth is False
        # without the init pins the split is satisfiable: s0 reaches the
        # target surely under the flip action while s2 never does
        g = parse_formula(
            "exists sched s. exists st x(s). exists st y(s). exists st z(s). "
            "init(x) & P(F a(y)) = 1 & P(F a(z)) = 0"
        )
        assert solve_eager(m_coin, g).decoded.truth is True
        assert check(m_coin, g).truth is True

    def test_witnesses_match_enum_engine(self):
        rng = random.Random(32)
        templates = [
            "exists sched s. exists st x(s). P(F a(x)) > 1/2",
            "forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1",
        ]
        for _ in range(15):
            mdp = random_mdp(rng)
            for text in templates:
                f = parse_formula(text)
                enum_verdict = check(mdp, f)
                eager_verdict = solve_eager(mdp, f).decoded
                assert enum_verdict == eager_verdict


class TestEncodingSoundness:
    def test_eager_model_satisfies_materialized_system(self, m_coin):
        for text in (REACH_ONE, FORALL_REACH,
                     "exists sched s. exists st x(s). P(X a(x)) < 1/2",
                     "exists sched s. exists st x(s). P(true U[1,2] a(x)) = 3/4"):
            f = parse_formula(text)
            cs, _ = encode_main(m_coin, f)
            result = solve_eager(m_coin, f)
            if not result.sat:
                continue
            values, choices = full_assignment(cs, m_coin, result.decoded.schedulers)
            assert evaluate_system(cs, values, choices), text
            # a solver answering with this model decodes to the eager verdict
            model = solver_model(cs, m_coin, result.decoded.schedulers)
            assert decode_witness(cs, model, f) == result.decoded, text

    def test_wrong_fixed_point_violates_distance_clauses(self, m_coin):
        # beta-induced chain: the a-target is unreachable from s0/s2; forcing
        # their until probability to 1 must break the system
        f = parse_formula("exists sched s. exists st x(s). P(F a(x)) = 0")
        cs, _ = encode_main(m_coin, f)
        beta = SchedulerAssignment(m_coin.states, ("beta", "tau", "tau"))
        values, choices = full_assignment(cs, m_coin, {"s": beta})
        assert evaluate_system(cs, values, choices)
        until_idx = cs.subformula_index[REACH_A]
        tampered = dict(values)
        tampered[prob_sym(("s0",), until_idx)] = Fraction(1)
        tampered[prob_sym(("s2",), until_idx)] = Fraction(1)
        assert not evaluate_system(cs, tampered, choices)

    def test_guard_completeness(self):
        rng = random.Random(33)
        for _ in range(5):
            mdp = random_mdp(rng, max_states=3)
            f = parse_formula("exists sched s. exists st x(s). exists st y(s). "
                              "P(X a(x)) <= P(F b(y))")
            cs, _ = encode_main(mdp, f)
            guards = [
                t.antecedent for t in cs.constraints
                if isinstance(t, ImpliesT) and isinstance(t.antecedent, AndT)
                and any(isinstance(a, ChoiceIs) for a in t.antecedent.items)
            ]
            for assignment in enumerate_schedulers(mdp):
                choices = {(0, s): assignment.choice(s) for s in mdp.states}
                by_site = {}
                for g in guards:
                    site = tuple(sorted({(a.family, a.state) for a in g.items if isinstance(a, ChoiceIs)}))
                    by_site.setdefault(site, []).append(g)
                for site, site_guards in by_site.items():
                    active = sum(
                        1 for g in site_guards
                        if all(evaluate_term(a, {}, choices) for a in g.items if isinstance(a, ChoiceIs))
                    )
                    assert active >= 1


class TestDecode:
    def test_missing_choice_variable(self, m_coin):
        f = parse_formula(REACH_ONE)
        result = solve_eager(m_coin, f)
        cs, _ = encode_main(m_coin, f)
        broken = solver_model(cs, m_coin, result.decoded.schedulers)
        assert decode_witness(cs, broken, f) == result.decoded
        broken.pop("ch_0_s0.alpha")
        broken.pop("ch_0_s0.beta")
        with pytest.raises(IncompleteModel):
            decode_witness(cs, broken, f)

    def test_missing_truth_variable(self, m_coin):
        # the body is open at s0, so its truth there is read from the model
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(m_coin, f)
        broken = solver_model(cs, m_coin, solve_eager(m_coin, f).decoded.schedulers)
        del broken[holds_sym(("s0",), cs.subformula_index[f.body])]
        with pytest.raises(IncompleteModel, match=r"^missing truth value h_s0_0$"):
            decode_witness(cs, broken, f)

    def test_solver_model_reads_negative_values(self):
        # a solver prints a negative real as a unary or binary minus
        text = ("sat\n(model (define-fun d_s0_1 () Real (- 3))\n"
                "  (define-fun pr_s0_2 () Real (- (/ 1 2)))\n"
                "  (define-fun pr_s1_2 () Real (- 1 (/ 1 2))))")
        assert parse_solver_model(text) == {"d_s0_1": -3, "pr_s0_2": Fraction(-1, 2), "pr_s1_2": Fraction(1, 2)}


class TestPointwiseSoundness:
    def test_truth_constraint_matches_semantics_under_every_assignment(self):
        """For every scheduler assignment of small random models, the
        materialized truth constraint evaluates (under the exact-analysis
        variable assignment) to the same value as direct instantiation of
        the encoded formula — the satisfiability-iff-truth shape, checked
        pointwise rather than only at the decision level."""
        from hypermdp.enumcheck import Evaluator, build_composition
        from hypermdp.constraints import evaluate_term

        rng = random.Random(77)
        texts = [
            "exists sched s. exists st x(s). P(F a(x)) >= 1/2",
            "exists sched s. forall st x(s). P(X b(x)) < 3/4",
            "exists sched s. forall st x(s). exists st y(s). "
            "P(true U[0,2] a(x)) <= P(F a(y))",
        ]
        verified = 0
        for _ in range(25):
            mdp = random_mdp(rng, max_states=3)
            for text in texts:
                f = parse_formula(text)
                cs, _ = encode_main(mdp, f)
                meta = cs.meta
                for combo in enumerate_schedulers(mdp):
                    chosen = {meta.sched_names[0]: combo}
                    values, choices = full_assignment(cs, mdp, chosen)
                    # semantics constraints hold under every assignment;
                    # the truth constraint holds exactly for witnesses
                    for term in cs.constraints:
                        if term is not cs.truth:
                            assert evaluate_term(term, values, choices), (text, combo)
                    encoded_truth = evaluate_term(cs.truth, values, choices)
                    # direct instantiation of the same quantifier structure
                    ev = Evaluator(mdp, meta.encoded)
                    ev.bind(build_composition(meta.encoded, chosen))

                    def instantiate(idx, partial):
                        if idx == len(meta.state_quants):
                            return ev.holds(partial)
                        q = meta.state_quants[idx]
                        branches = (instantiate(idx + 1, partial + (s,)) for s in mdp.states)
                        return any(branches) if q.exists else all(branches)

                    assert encoded_truth == instantiate(0, ()), (text, combo)
                    verified += 1
        assert verified >= 150


class TestGuardCollapse:
    def test_coin_until_value_under_each_guard(self, m_coin):
        # one composed copy, reach-a: 1 under the coin-flip action, 0 under
        # the bypass action (agreement with the linear solver)
        f = parse_formula("exists sched s. exists st x(s). P(F a(x)) = 1")
        cs, _ = encode_main(m_coin, f)
        until_idx = cs.subformula_index[REACH_A]
        alpha = SchedulerAssignment(m_coin.states, ("alpha", "tau", "tau"))
        beta = SchedulerAssignment(m_coin.states, ("beta", "tau", "tau"))
        alpha_values, alpha_choices = full_assignment(cs, m_coin, {"s": alpha})
        beta_values, beta_choices = full_assignment(cs, m_coin, {"s": beta})
        assert alpha_values[prob_sym(("s0",), until_idx)] == Fraction(1)
        assert beta_values[prob_sym(("s0",), until_idx)] == Fraction(0)
        assert evaluate_system(cs, alpha_values, alpha_choices)
        assert evaluate_system(cs, beta_values, beta_choices)

    def test_window_1_1_collapses_to_next(self, d_half):
        f = parse_formula("exists sched s. exists st x(s). P(true U[1,1] a(x)) = 1/2")
        cs, _ = encode_main(d_half, f)
        only = SchedulerAssignment(d_half.states, ("tau", "tau", "tau"))
        values, choices = full_assignment(cs, d_half, {"s": only})
        win_idx = cs.subformula_index[ProbOf(BoundedUntil(TRUE, Prop("a", "x"), 1, 1))]
        assert values[prob_sym(("u0",), win_idx)] == Fraction(1, 2)
        assert evaluate_system(cs, values, choices)
        assert solve_eager(d_half, f).sat is True


class TestGuardedTuples:
    """The encoded tuples are those reachable from the state quantifiers' domains."""

    def test_guard_restricts_to_reachable_tuples(self):
        # s2 is declared but unreachable from the init state
        mdp = parse_mdp(
            "states: s0 s1 s2\n"
            "labels: s0: init; s1: a\n"
            "action s0 go: s1 1\n"
            "action s1 go: s1 1\n"
            "action s2 go: s2 1\n"
        )
        guarded_cs, _ = encode_main(mdp, parse_formula("exists sched s. forall st x(s). init(x) -> P(F a(x)) = 1"))
        full_cs, _ = encode_main(mdp, parse_formula("exists sched s. forall st x(s). P(F a(x)) = 1"))
        assert guarded_cs.meta.tuples == (("s0",), ("s1",))
        assert len(full_cs.meta.tuples) == 3
        assert not any("_s2_" in name for name in guarded_cs.variables)
        # the unguarded encoding reaches s2, where the until is fixed to 0
        assert ("s2",) not in guarded_cs.meta.fixed[REACH_A]
        assert full_cs.meta.fixed[REACH_A][("s2",)] == 0

    def test_guard_off_init_keeps_its_witness(self):
        # the witness state carries a but not init: the encoding must still
        # reach it, so that the exact model satisfies the system
        mdp = parse_mdp("states: s0 s1\nlabels: s0: init; s1: a\n"
                        "action s0 go: s1 1\naction s1 go: s1 1\n")
        f = parse_formula("exists sched s. exists st x(s). a(x)")
        cs, _ = encode_main(mdp, f)
        assert cs.meta.domains == (("s1",),)
        result = solve_eager(mdp, f)
        assert result.decoded.states == {"x": "s1"}
        values, choices = full_assignment(cs, mdp, result.decoded.schedulers)
        assert evaluate_system(cs, values, choices)
        assert decode_witness(cs, solver_model(cs, mdp, result.decoded.schedulers), f) == result.decoded


COUPLED = (
    "exists sched s. exists st x(s). exists st y(s). P(F (a(x) & b(y))) > 0",
    "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
    "P(F (a(x) & b(y))) = P(F a(x)) * P(F b(y))",
    "exists sched s1. exists sched s2. exists st x(s1). forall st y(s2). "
    "P(X a(x)) <= P(b(x) U[1,2] (a(y) & !init(x)))",
)


def _two_variable_formula(rng):
    exists = rng.random() < 0.5
    families = ("s1", "s2") if rng.random() < 0.5 else ("s1",)
    prefix = tuple(SchedQuant(exists, name) for name in families)
    prefix += (StateQuant(rng.random() < 0.5, "x", "s1"),
               StateQuant(rng.random() < 0.5, "y", families[-1]))
    return Formula(prefix=prefix, body=random_body(rng, ("x", "y")))


def _instantiated_truth(cs, mdp, chosen) -> bool:
    """The encoded formula's state quantifiers, each over every state,
    decided by direct instantiation with the enumeration engine's evaluator."""
    meta = cs.meta
    ev = Evaluator(mdp, meta.encoded)
    ev.bind(build_composition(meta.encoded, chosen))
    return truth_eval(meta.state_quants, (mdp.states,) * len(meta.state_quants), ev.holds)[0]


def _read_names(term) -> set:
    """The variables a constraint term reads; choice atoms are not variables,
    and a folded constant reads none."""
    if isinstance(term, bool):
        return set()
    if isinstance(term, BoolRef):
        return {term.name}
    if isinstance(term, Lin):
        return {name for _, name in term.terms}
    if isinstance(term, MulEq):
        return {term.result, term.left, term.right}
    names = set()
    for name in term._fields:
        value = getattr(term, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Record) and not isinstance(item, ChoiceIs):
                names |= _read_names(item)
    return names


def _undeclared_reads(cs) -> set:
    """Variables that a constraint or the truth term reads but no rule
    declares: a solver rejects a script that names one."""
    read = set().union(_read_names(cs.truth), *(_read_names(t) for t in cs.constraints))
    return read - cs.variables.keys()


def _random_scheduler(rng, mdp):
    return SchedulerAssignment(mdp.states, tuple(rng.choice(mdp.enabled[s]) for s in mdp.states))


class TestProjection:
    """Each subformula is encoded over the components it mentions."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), coupled=st.sampled_from((None,) + COUPLED),
           guarded=st.booleans())
    def test_semantics_satisfies_projected_system(self, seed, coupled, guarded):
        rng = random.Random(seed)
        mdp = random_mdp(rng, max_states=3)
        f = _two_variable_formula(rng) if coupled is None else parse_formula(coupled)
        if guarded:  # an init conjunct guards x, restricting it where that is sound
            f = Formula(f.prefix, And(Prop("init", "x"), f.body))
        cs, _ = encode_main(mdp, f)
        # full_assignment itself raises if a projected variable would need
        # different values at tuples with the same projection
        result = solve_eager(mdp, f)
        tried = []
        if result.sat:
            values, choices = full_assignment(cs, mdp, result.decoded.schedulers)
            assert evaluate_system(cs, values, choices)
            tried.append(result.decoded.schedulers)
        for _ in range(3):
            tried.append({name: _random_scheduler(rng, mdp) for name in cs.meta.sched_names})
        # complete: every variable a constraint reads is declared ...
        readers = {}  # variable -> the constraints, the truth term aside, that read it
        for term in cs.constraints:
            names = _read_names(term)
            assert names <= cs.variables.keys(), names - cs.variables.keys()
            for name in names if term is not cs.truth else ():
                readers.setdefault(name, []).append(term)
        for chosen in tried:
            _fixed_against_semantics(cs, mdp, chosen)  # each value as on the full product
            values, choices = full_assignment(cs, mdp, chosen)
            for term in cs.constraints:
                if term is not cs.truth:
                    assert evaluate_term(term, values, choices)
            # the truth term holds exactly where the quantifiers over
            # every state do
            assert evaluate_term(cs.truth, values, choices) == _instantiated_truth(cs, mdp, chosen)
        # ... and pinned: changing any one truth, probability or step
        # indicator value breaks a constraint that reads it
        for name, kind in cs.variables.items():
            if kind != "dist":
                value = values[name]
                values[name] = (not value) if kind == "holds" else value + 1
                assert not all(evaluate_term(t, values, choices) for t in readers.get(name, ())), name
                values[name] = value

    @pytest.mark.parametrize("text", [
        "exists sched s. exists st x(s). exists st y(s). init(y) & P(F a(x)) > 0",
        "exists sched s. exists st x(s). exists st y(s). exists st z(s). "
        "init(y) & !a(z) & P(F a(x)) > 0",
    ])
    def test_one_variable_until_declares_one_variable_per_state(self, m_coin, text):
        # one point per state, not per tuple: s1 (target) and s2 (no path)
        # are fixed, s0 declares its probability and its distance
        cs, _ = encode_main(m_coin, parse_formula(text))
        until_idx = cs.subformula_index[REACH_A]
        assert sorted(cs.meta.fixed[REACH_A]) == [("s1",), ("s2",)]
        for kind, sym in (("prob", prob_sym), ("dist", smt.dist_sym)):
            declared = [name for name, k in cs.variables.items()
                        if k == kind and name.endswith(f"_{until_idx}")]
            assert declared == [sym(("s0",), until_idx)], kind

    def test_tampering_one_projected_until_variable_breaks_the_system(self, m_coin):
        f = parse_formula("exists sched s. exists st x(s). exists st y(s). P(F a(y)) = 1")
        cs, _ = encode_main(m_coin, f)
        alpha = SchedulerAssignment(m_coin.states, ("alpha", "tau", "tau"))
        values, choices = full_assignment(cs, m_coin, {"s": alpha})
        assert evaluate_system(cs, values, choices)
        until_idx = cs.subformula_index[ProbOf(Until(TRUE, Prop("a", "y")))]
        assert values[prob_sym(("s0",), until_idx)] == 1
        tampered = dict(values)
        tampered[prob_sym(("s0",), until_idx)] = Fraction(1, 2)
        assert not evaluate_system(cs, tampered, choices)


class TestGuardedEncoding:
    """The encoding over the state quantifiers' domains agrees with the
    semantics over every state."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_oracle_holds_on_guarded_formulas(self, seed):
        rng = random.Random(seed)
        mdp = with_never(random_mdp(rng, max_states=3))
        f = guarded_formula(rng)
        try:
            cs, _ = encode_main(mdp, f)
        except MixedSchedulerBlock:
            return
        result = solve_eager(mdp, f)
        tried = [{name: _random_scheduler(rng, mdp) for name in cs.meta.sched_names} for _ in range(3)]
        if result.sat:
            values, choices = full_assignment(cs, mdp, result.decoded.schedulers)
            assert set(values) == set(cs.variables)
            assert evaluate_system(cs, values, choices)
            model = solver_model(cs, mdp, result.decoded.schedulers)
            assert decode_witness(cs, model, f) == result.decoded
        for chosen in tried:
            values, choices = full_assignment(cs, mdp, chosen)
            assert set(values) == set(cs.variables)
            assert all(evaluate_term(t, values, choices) for t in cs.constraints if t is not cs.truth)
            assert evaluate_term(cs.truth, values, choices) == _instantiated_truth(cs, mdp, chosen)


def _every_reachable_tuple(supports, reads, tuples, truth_tuples):
    """``smt.point_table`` as if every node were read at successors: the
    projection of every reachable tuple onto its support, per position.
    The plan then folds every node at all of them, and encodes the body at
    every open reachable tuple and all that it reads."""
    return [smt.projected_domain(tuples, support) for support in supports]


def _unread_truth_variables(cs) -> set:
    """Declared truth variables read neither by the truth term nor by a
    constraint besides their own definition (each has exactly one)."""
    readers = collections.Counter(name for term in cs.constraints if term is not cs.truth
                                  for name in _read_names(term))
    in_truth = _read_names(cs.truth)
    return {name for name, kind in cs.variables.items()
            if kind == "holds" and name not in in_truth and readers[name] < 2}


def _assert_subsystem(mdp, f, cs):
    """``cs`` keeps lines of the encoding over every reachable tuple, under
    the same folding, and reads none of the variables that only the latter
    declares."""
    with mock.patch.object(smt, "point_table", _every_reachable_tuple):
        everywhere, _ = encode_main(mdp, f)
    lines = [line for line in emit_smtlib2(cs).splitlines() if not line.startswith(";")]
    assert not collections.Counter(lines) - collections.Counter(
        line for line in emit_smtlib2(everywhere).splitlines() if not line.startswith(";"))
    dropped = everywhere.variables.keys() - cs.variables.keys()
    assert not dropped & {token for line in lines for token in re.findall(r"[^\s()]+", line)}


GUARDED_ROWS = {
    "ts_h0_1": ("ts", {"h1": 0, "h2": 1}, None),
    "ta_m2": ("ta", {"m": 2}, None),
    "ta_m2_bnd": ("ta", {"m": 2}, "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
                  "(init(x) & init(y)) -> (P(F<=4 j=0(x)) = P(F<=4 j=0(y)) & P(F<=4 j=1(x)) = P(F<=4 j=1(y)))"),
    "pc_s0": ("pc", {"tier": "s0"}, None),
}


class TestPointTable:
    """The Boolean and arithmetic nodes above the P(...)s, with the P(...)s
    they read directly, are encoded at the truth term's tuples only; nodes
    read at successors at the reachable tuples of their support; neither
    where its value is fixed or where only fixed readers read it."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_truth_variables_are_read_and_the_system_is_a_subsystem(self, seed):
        rng = random.Random(seed)
        mdp = with_never(random_mdp(rng, max_states=3))
        f = guarded_formula(rng)
        try:
            cs, _ = encode_main(mdp, f)
        except MixedSchedulerBlock:
            return
        assert _unread_truth_variables(cs) == set() == _undeclared_reads(cs)
        _assert_subsystem(mdp, f, cs)

    def test_unread_window_operand_is_not_encoded(self, m_coin):
        # a [0,0] window reads only its target: b(x) has no variable at all
        f = parse_formula("exists sched s. exists st x(s). P(b(x) U[0,0] a(x)) > 0")
        cs, _ = encode_main(m_coin, f)
        assert cs.meta.points[Prop("b", "x")] == ()
        assert _unread_truth_variables(cs) == set()
        _assert_subsystem(m_coin, f, cs)

    @pytest.mark.parametrize("row", sorted(GUARDED_ROWS))
    def test_guarded_row(self, row):
        family, params, text = GUARDED_ROWS[row]
        spec = cases.generate(family, **params)
        f = spec.formula if text is None else parse_formula(text)
        cs, _ = encode_main(spec.mdp, f)
        assert _unread_truth_variables(cs) == set() == _undeclared_reads(cs)
        _assert_subsystem(spec.mdp, f, cs)
        result = solve_eager(spec.mdp, f)
        values, choices = full_assignment(cs, spec.mdp, result.decoded.schedulers)
        assert set(values) == set(cs.variables)
        assert evaluate_system(cs, values, choices)


def _path_shape(rng, svars):
    """A comparison over one path formula, coupled when it can be: a next,
    a bounded until, an unbounded until over a conjunction of two
    variables, or a next or an unbounded until over a nested P(...), whose
    operand is fixed at some points only."""
    v, w = rng.choice(svars), rng.choice(svars)
    k1 = rng.randint(0, 2)
    path = rng.choice((
        Next(Prop("a", v)),
        BoundedUntil(Prop("b", v), Prop("a", w), k1, k1 + rng.randint(0, 3)),
        Until(TRUE, And(Prop("a", v), Prop("b", w))),
        Next(Less(Const(Fraction(1, 2)), ProbOf(Until(TRUE, Prop("a", w))))),
        Until(TRUE, Less(Const(Fraction(1, 2)), ProbOf(Next(Prop("a", w))))),
    ))
    bound = Const(Fraction(rng.randint(0, 4), 4))
    return Less(bound, ProbOf(path)) if rng.random() < 0.5 else Less(ProbOf(path), bound)


def _fixed_against_semantics(cs, mdp, chosen) -> int:
    """Assert that every folded constant and every variable that
    ``full_assignment`` returns is the exact value under ``chosen``, from
    ``VectorEvaluator`` on the full product, at every tuple of
    ``meta.tuples`` that projects onto its point: truth, probability and
    step-indicator values exactly, an until's distance wherever its target
    is reachable through phi1; the number of values checked."""
    meta = cs.meta
    composed = full_product(mdp, build_composition(meta.encoded, chosen))
    ve = smt.VectorEvaluator(composed, meta.var_index)
    values, _ = full_assignment(cs, mdp, chosen)
    unchecked, checked = set(values), 0

    def check_value(name, exact):
        nonlocal checked
        if name in values:
            assert values[name] == exact, (name, values[name], exact)
            unchecked.discard(name)
            checked += 1

    for node, idx in cs.subformula_index.items():
        onto, table = smt.projector(meta.supports[node]), meta.fixed[node]
        holds = isinstance(node, BODY_KINDS)
        vec = ve.holds(node) if holds else ve.value(node)
        path = node.path if isinstance(node, ProbOf) else None
        if isinstance(path, Next):
            operand = ve.holds(path.operand)
        elif isinstance(path, Until):
            dist = smt.step_distances(composed, ve.holds(path.left), ve.holds(path.right))
        for r in meta.tuples:
            point = onto(r)
            if point in table:
                assert table[point] == vec[r], (node, point, table[point], vec[r])
                checked += 1
            check_value((holds_sym if holds else prob_sym)(point, idx), vec[r])
            if isinstance(path, Next):
                check_value(smt.toint_sym(point, cs.subformula_index[path.operand]), int(operand[r]))
            elif isinstance(path, Until) and r in dist:
                check_value(smt.dist_sym(point, idx), dist[r])
    assert {cs.variables[name] for name in unchecked} <= {"dist"}, unchecked
    return checked


class TestFolding:
    """Values that no scheduler changes are folded into constants before
    encoding (``smt.fixed_table``)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_folded_constants_are_exact_and_the_system_still_decides(self, seed):
        rng = random.Random(seed)
        mdp = with_never(random_mdp(rng, max_states=3))
        f = guarded_formula(rng)
        svars = tuple(q.name for q in f.prefix if isinstance(q, StateQuant))
        f = Formula(f.prefix, And(_path_shape(rng, svars), f.body))
        try:
            cs, _ = encode_main(mdp, f)
        except MixedSchedulerBlock:
            return
        assert _undeclared_reads(cs) == set()
        for _ in range(3):
            chosen = {name: _random_scheduler(rng, mdp) for name in cs.meta.sched_names}
            _fixed_against_semantics(cs, mdp, chosen)
        result = solve_eager(mdp, f)
        if result.sat:
            values, choices = full_assignment(cs, mdp, result.decoded.schedulers)
            assert evaluate_system(cs, values, choices)
            model = solver_model(cs, mdp, result.decoded.schedulers)
            assert decode_witness(cs, model, f) == result.decoded

    @pytest.mark.parametrize("text, truth", [
        ("exists sched s. exists st x(s). exists st y(s). a(x) & !a(y)", True),
        ("forall sched s. forall st x(s). init(x) -> !a(x)", True),
        ("forall sched s. forall st x(s). a(x) | init(x)", False),
        ("exists sched s. exists st x(s). a(x) & !a(x)", False),
    ])
    def test_body_without_p_is_one_constant(self, m_coin, text, truth):
        f = parse_formula(text)
        cs, _ = encode_main(m_coin, f)
        assert isinstance(cs.truth, bool) and cs.variables == {}
        lines = [line for line in emit_smtlib2(cs).splitlines() if not line.startswith(";")]
        assert all(line.count("(") == line.count(")") for line in lines)
        assert all(line.startswith(("(set-logic ", "(declare-const ch_", "(assert ", "(check-sat)", "(get-model)"))
                   for line in lines)
        assert ("(assert false)" in lines) is not cs.truth
        eager = solve_eager(m_coin, f)
        assert eager.decoded.truth is truth and eager.sat is cs.truth
        # a solver answers sat with the choices alone, or unsat
        answer = ("sat", solver_model(cs, m_coin, eager.decoded.schedulers)) if cs.truth else ("unsat", {})
        with mock.patch.object(smt, "run_external_solver", lambda *args: answer):
            assert smt.check_external(cs, emit_smtlib2(cs), "fake-solver").decoded == eager.decoded

    def test_until_reads_an_open_target_at_its_own_point(self):
        # P(X a(x)) > 1/2 is open at s0 only, which no until point steps to:
        # the until's rule at s0 still reads the target there
        mdp = parse_mdp("states: s0 s1 s2\nlabels: s0: init; s1: a\naction s0 alpha: s1 1\n"
                        "action s0 beta: s2 1\naction s1 tau: s1 1\naction s2 tau: s2 1\n")
        f = parse_formula("exists sched s. exists st x(s). init(x) & P(F (P(X a(x)) > 1/2)) > 0")
        cs, _ = encode_main(mdp, f)
        assert _undeclared_reads(cs) == set()
        eager = solve_eager(mdp, f)
        values, choices = full_assignment(cs, mdp, eager.decoded.schedulers)
        assert evaluate_system(cs, values, choices)
        assert decode_witness(cs, solver_model(cs, mdp, eager.decoded.schedulers), f) == eager.decoded

    def test_oracle_rejects_a_wrong_constant(self, m_coin):
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(m_coin, f)
        alpha = SchedulerAssignment(m_coin.states, ("alpha", "tau", "tau"))
        assert _fixed_against_semantics(cs, m_coin, {"s": alpha}) > 0
        full_assignment(cs, m_coin, {"s": alpha})
        cs.meta.fixed[REACH_A][("s2",)] = Fraction(1, 2)  # truly 0: s2 never reaches a
        with pytest.raises(AssertionError, match="fixed to 1/2"):
            full_assignment(cs, m_coin, {"s": alpha})

    @pytest.mark.parametrize("row", sorted(PUBLISHED_ROWS) + ["ta_m2_bnd"])
    def test_published_row_oracle_and_round_trip(self, row):
        if row == "ta_m2_bnd":
            mdp, f = cases.generate("ta", m=2).mdp, parse_formula(BOUNDED_TA)
        else:
            family, params = PUBLISHED_ROWS[row]
            spec = cases.generate(family, **params)
            mdp, f = spec.mdp, spec.formula
        cs, _ = encode_main(mdp, f)
        assert _undeclared_reads(cs) == set()
        eager = solve_eager(mdp, f)
        assert eager.decoded == check(mdp, f)
        values, choices = full_assignment(cs, mdp, eager.decoded.schedulers)
        assert evaluate_system(cs, values, choices)
        assert decode_witness(cs, solver_model(cs, mdp, eager.decoded.schedulers), f) == eager.decoded
        assert replay(mdp, f, eager.decoded) is eager.decoded.truth


WINDOW_CHAIN = """\
states: s0 s1 s2
labels: s0: init a; s1: a; s2: b
action s0 go: s1 1/2, s2 1/2
action s0 stay: s0 1
action s1 tau: s0 1/2, s2 1/2
action s2 tau: s2 1
"""


def _window(k2):
    return ProbOf(BoundedUntil(Prop("a", "x"), Prop("b", "x"), 0, k2))


@pytest.mark.parametrize("text, order", [
    # [0,3] is written first: its windows follow it, and [0,4]'s stop at it
    ("P(a(x) U[0,3] b(x)) < P(a(x) U[0,4] b(x))", [3, 2, 1, 0, "a", "b", 4]),
    # [0,4] is written first: [0,3] is its first window, listed once
    ("P(a(x) U[0,4] b(x)) - P(a(x) U[0,3] b(x)) > 0", ["0", "-", 4, 3, 2, 1, 0, "a", "b"]),
])
def test_windows_follow_their_bounded_until_once(text, order):
    mdp, f = parse_mdp(WINDOW_CHAIN), parse_formula("exists sched s. exists st x(s). " + text)
    cs, _ = encode_main(mdp, f)
    body = f.body
    named = {"a": Prop("a", "x"), "b": Prop("b", "x"), "0": Const(Fraction(0)), "-": body.right}
    assert list(cs.subformula_index) == [body] + [named[k] if isinstance(k, str) else _window(k) for k in order]
    assert list(cs.subformula_index.values()) == list(range(len(order) + 1))
    eager = solve_eager(mdp, f)
    assert eager.decoded == check(mdp, f) and eager.decoded.mode == "witness"
    values, choices = full_assignment(cs, mdp, eager.decoded.schedulers)
    assert evaluate_system(cs, values, choices)


def test_zero_window_is_its_target_indicator(m_coin):
    # F<=2's innermost window [0,0] is 1 where its target holds and 0
    # elsewhere; the target, P(X a(x)) > 1/3, is open at s0 only
    f = parse_formula("exists sched s. exists st x(s). P(F<=2 (P(X a(x)) > 1/3)) > 0")
    cs, _ = encode_main(m_coin, f)
    path = f.body.right.path
    window = prob_sym(("s0",), cs.subformula_index[ProbOf(BoundedUntil(path.left, path.right, 0, 0))])
    assert cs.variables[window] == "prob"
    for assignment in enumerate_schedulers(m_coin):
        values, choices = full_assignment(cs, m_coin, {"s": assignment})
        # P(X a(x)) at s0 is 1/2 under alpha, 0 under beta
        assert values[window] == (1 if assignment.choice("s0") == "alpha" else 0)
        assert evaluate_system(cs, values, choices)
    enum_verdict, eager = check(m_coin, f), solve_eager(m_coin, f)
    assert enum_verdict == eager.decoded and enum_verdict.truth is True and enum_verdict.mode == "witness"
    assert replay(m_coin, f, enum_verdict) is True


def test_negative_coefficients_are_emitted_and_exact(m_coin):
    # a difference of probabilities subtracts with coefficient -1
    f = parse_formula("exists sched s. exists st x(s). init(x) & P(G !a(x)) - P(X a(x)) < 1/2")
    cs, _ = encode_main(m_coin, f)
    assert "(* (- 1) " in emit_smtlib2(cs)
    for assignment in enumerate_schedulers(m_coin):
        assert _fixed_against_semantics(cs, m_coin, {"s": assignment}) > 0
    eager = solve_eager(m_coin, f)
    assert eager.decoded == check(m_coin, f) and eager.decoded.mode == "witness"
    values, choices = full_assignment(cs, m_coin, eager.decoded.schedulers)
    assert evaluate_system(cs, values, choices)
    assert replay(m_coin, f, eager.decoded) is True


def test_no_library_path_builds_the_product():
    # encoding, eager solving, the oracle and decoding read each subformula
    # over its own support, so none composes the n-fold product
    mdp, f = cases.generate("ts", h1=0, h2=1).mdp, parse_formula(TS_INDEP)
    schedulers = list(enumerate_schedulers(mdp))
    chosen = {"s1": schedulers[0], "s2": schedulers[-1]}
    compose = enumcheck.self_compose
    with mock.patch.object(enumcheck, "self_compose", wraps=compose) as hooked, \
            mock.patch("hypermdp.model.self_compose", wraps=compose) as product:
        cs, _ = encode_main(mdp, f)
        eager = solve_eager(mdp, f)
        values, choices = full_assignment(cs, mdp, chosen)
        decoded = decode_witness(cs, solver_model(cs, mdp, chosen), f)
    assert hooked.call_count == 0 and product.call_count == 0
    assert (0, 1) in {support for node, support in cs.meta.supports.items() if isinstance(node, ProbOf)}
    assert all(evaluate_term(t, values, choices) for t in cs.constraints if t is not cs.truth)
    assert eager.decoded.truth is True and decoded == eager.decoded


def test_the_oracle_builds_no_window_again():
    # ``full_assignment`` keeps a bounded until's windows by its operands and
    # bounds and reads the plan's tables by position: on ta_m2 ``F<=20`` it
    # built 88 ``BoundedUntil`` nodes and hashed nodes about 1,800 times before
    mdp, f = cases.generate("ta", m=2).mdp, parse_formula(BOUNDED_TA)
    cs, _ = encode_main(mdp, f)
    chosen = dict.fromkeys(cs.meta.sched_names, next(enumerate_schedulers(mdp)))
    built, hashes = [], []
    init, node_hash = formula.Node.__init__, formula.Node.__hash__

    def counting_init(self, *args):
        built.append(type(self))
        init(self, *args)

    def counting_hash(self):
        hashes.append(type(self))
        return node_hash(self)

    with mock.patch.object(formula.Node, "__init__", counting_init), \
            mock.patch.object(formula.Node, "__hash__", counting_hash):
        values, choices = full_assignment(cs, mdp, chosen)
    assert BoundedUntil not in built and len(hashes) < 450
    assert all(evaluate_term(t, values, choices) for t in cs.constraints if t is not cs.truth)


@pytest.mark.parametrize("same", [True, False], ids=["same-schedulers", "counterexample"])
def test_the_oracle_solves_each_window_set_once(same):
    # ta_m2 ``F<=20`` has four bounded untils, j=0 and j=1 on x and on y.
    # ``full_assignment`` keys their windows by the operands renamed over
    # the support's positions, the support's actions and its points: x's
    # and y's are one set under one scheduler, two under the
    # counterexample's two
    mdp, f = cases.generate("ta", m=2).mdp, parse_formula(BOUNDED_TA)
    cs, _ = encode_main(mdp, f)
    if same:
        chosen = dict.fromkeys(cs.meta.sched_names, next(enumerate_schedulers(mdp)))
    else:
        chosen = solve_eager(mdp, f).decoded.schedulers
        assert len(set(map(id, chosen.values()))) == 2
    with mock.patch.object(analysis, "bounded_until_windows", wraps=analysis.bounded_until_windows) as spy:
        values, choices = full_assignment(cs, mdp, chosen)
    assert spy.call_count == (2 if same else 4)
    assert all(evaluate_term(t, values, choices) for t in cs.constraints if t is not cs.truth)


def test_the_oracle_reads_the_body_s_bounded_untils_from_their_windows():
    # the layer above each bounded until reads it from the window that
    # ``full_assignment`` already holds; it made 4 ``bounded_until_probs``
    # calls under the counterexample before.  Every value equals a fresh
    # evaluator's, which solves them itself
    mdp, f = cases.generate("ta", m=2).mdp, parse_formula(BOUNDED_TA)
    cs, _ = encode_main(mdp, f)
    chosen = solve_eager(mdp, f).decoded.schedulers
    with mock.patch.object(analysis, "bounded_until_probs", wraps=analysis.bounded_until_probs) as spy:
        values, _ = full_assignment(cs, mdp, chosen)
    assert spy.call_count == 0
    ev = Evaluator(mdp, cs.meta.encoded)
    ev.bind(build_composition(cs.meta.encoded, chosen))
    checked = 0
    for idx, ((node, support), points) in enumerate(zip(cs.meta.supports.items(), cs.meta.points.values())):
        kind = "h" if isinstance(node, BODY_KINDS) else "pr"
        read = ev.reader(node, support)
        for p in points:
            assert values[smt.symbol(kind, p, idx)] == read(p)
            checked += kind == "h"
    assert checked


def test_true_sweep_reuses_values_across_combinations():
    # 36 of the 64 pairs are tried, one of each mirrored pair; a value is
    # solved again only where a new combination changes a choice the value
    # can reach, each bind solves a path once from every point the
    # quantifier walk may read, and a tuple whose truth the evaluator's
    # truth table holds is not read, and the coupled operand over closed
    # targets is the product of its marginals: 5 until solves per check,
    # against 26 while it was solved on the joint rows, 42 when values were
    # reused from the vectors of the combinations still kept, 56 before
    # truths were kept, 90 when each read that missed solved its own, 137
    # over all 64 pairs and 380 when every combination solved its own
    mdp, f = cases.generate("ts", h1=0, h2=1).mdp, parse_formula(TS_INDEP)
    with mock.patch.object(analysis, "until_probs", wraps=analysis.until_probs) as spy:
        assert check(mdp, f).truth is True
    assert spy.call_count <= 5


def test_bind_compares_no_assignment_by_value(monkeypatch):
    # bind keeps vectors and rows by the identity of the bound assignments' actions
    mdp, f = cases.generate("ts", h1=0, h2=1).mdp, parse_formula(TS_INDEP)
    calls, inside = [], [False]
    eq, bind = Record.__eq__, Evaluator.bind

    def counting_eq(self, other):
        if inside[0]:
            calls.append(type(self).__name__)
        return eq(self, other)

    def counting_bind(self, composition):
        inside[0] = True
        try:
            bind(self, composition)
        finally:
            inside[0] = False

    monkeypatch.setattr(Record, "__eq__", counting_eq)
    monkeypatch.setattr(Evaluator, "bind", counting_bind)
    assert check(mdp, f).truth is True
    assert calls == []


def test_ta_m2_independence_sweep_decides_true_on_both_engines():
    # 136 of the 256 pairs of ta_m2 (16 * 17 / 2), one of each mirrored pair
    mdp, f = cases.generate("ta", m=2).mdp, parse_formula(TS_INDEP.replace("l=1", "j=0"))
    with counting_combinations() as combos, \
            mock.patch.object(analysis, "until_probs", wraps=analysis.until_probs) as spy:
        verdict = check(mdp, f)
    assert (verdict.truth, verdict.mode) == (True, "none") and len(combos) == 136
    # 100 with the coupled operand factored over its closed targets; 236 solved on
    # the joint rows, and 270 where values were reused from the vectors still kept
    assert spy.call_count <= 100
    with counting_combinations() as combos:
        assert solve_eager(mdp, f).decoded == verdict
    assert len(combos) == 136


class TestChoiceNames:
    # state s has action x_y and state s_x action y: joined by "_" both
    # would be ch_0_s_x_y
    MODEL = ("states: s s_x\n"
             "labels: s: init; s_x: a\n"
             "action s x_y: s_x 1\n"
             "action s z: s 1\n"
             "action s_x y: s_x 1\n"
             "action s_x w: s 1\n")

    def test_declared_names_are_distinct_and_decode(self):
        mdp = parse_mdp(self.MODEL)
        f = parse_formula("exists sched t. exists st x(t). init(x) & P(X a(x)) = 1")
        cs, _ = encode_main(mdp, f)
        declared = [line.split()[1] for line in emit_smtlib2(cs).splitlines()
                    if line.startswith("(declare-const")]
        assert len(declared) == len(set(declared))
        assert {"ch_0_s.x_y", "ch_0_s_x.y"} <= set(declared)
        chosen = SchedulerAssignment(mdp.states, ("x_y", "w"))  # x_y true at s, y false at s_x
        model = solver_model(cs, mdp, {"t": chosen})
        verdict = decode_witness(cs, model, f)
        assert verdict.truth is True and verdict.states == {"x": "s"}
        assert verdict.schedulers["t"] == chosen


class TestEmit:
    def test_empty_system(self):
        cs = ConstraintSystem()
        text = emit_smtlib2(cs)
        assert text.splitlines() == ["(set-logic QF_LRA)", "(check-sat)", "(get-model)"]

    @pytest.mark.parametrize("product, logic", [
        ("P(F l=1(x)) * P(F l=2(x))", "QF_NRA"),
        ("1/2 * P(F l=2(x))", "QF_LRA"),
    ])
    def test_logic_follows_variable_products(self, product, logic):
        from hypermdp.cases import generate

        mdp = generate("ts", h1=0, h2=1).mdp
        f = parse_formula(f"exists sched s. exists st x(s). {product} < 1/2")
        assert f"(set-logic {logic})" in emit_smtlib2(encode_main(mdp, f)[0]).splitlines()

    def test_one_hot_clauses(self, m_coin):
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(m_coin, f)
        text = emit_smtlib2(cs)
        assert "(assert (or ch_0_s0.alpha ch_0_s0.beta))" in text
        assert "(assert (not (and ch_0_s0.alpha ch_0_s0.beta)))" in text

    def test_emission_is_deterministic(self, m_coin):
        f = parse_formula(FORALL_REACH)
        first = emit_smtlib2(encode_main(m_coin, f)[0])
        second = emit_smtlib2(encode_main(m_coin, f)[0])
        assert first == second

    def test_header_maps_subformulas(self, m_coin):
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(m_coin, f)
        text = emit_smtlib2(cs)
        assert text.startswith("; subformulas:")
        index = cs.subformula_index
        true_idx, a_idx = index[TRUE], index[Prop("a", "x")]
        assert f";   [{index[REACH_A]}] P([{true_idx}] U [{a_idx}])" in text.splitlines()
        assert f";   [{a_idx}] a(x)" in text.splitlines()

    def test_header_prints_each_subformula_over_indices(self, m_coin):
        # desugared <-> shares its operands: printed in full, each line
        # would repeat the whole chain below it
        body = " <-> ".join(f"P(X a(x)) > {i}/20" for i in range(14))
        cs, _ = encode_main(m_coin, parse_formula("exists sched s. exists st x(s). " + body))
        header = [line for line in emit_smtlib2(cs).splitlines() if line.startswith(";")]
        assert len(header) == len(cs.subformula_index) + 1
        assert max(len(line) for line in header) < 40

    def test_golden_file_byte_for_byte(self, m_coin):
        import os

        f = parse_formula(REACH_ONE)
        text = emit_smtlib2(encode_main(m_coin, f)[0])
        golden = os.path.join(os.path.dirname(__file__), "golden", "m_coin_reach.smt2")
        with open(golden) as fh:
            assert text == fh.read()

    def test_conformance_fixture_digest_pinned(self):
        # the full conformance encoding for the plain die fixture is too
        # large to commit; pin its SHA-256 instead (byte determinism)
        import hashlib

        from hypermdp.cases import knuth_yao_die

        die = knuth_yao_die()
        f = parse_formula(
            "exists sched s. forall st x(s). exists st y(s). "
            "(init(x) & init(y)) -> ("
            "P(F die=1(x)) = P(F die=1(y)) & P(F die=2(x)) = P(F die=2(y)) & "
            "P(F die=3(x)) = P(F die=3(y)) & P(F die=4(x)) = P(F die=4(y)) & "
            "P(F die=5(x)) = P(F die=5(y)) & P(F die=6(x)) = P(F die=6(y)))"
        )
        text = emit_smtlib2(encode_main(die, f)[0])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "d98b2928f00022fdd509565bf94f962b0d149ff4e6fa80859a748c467a7d3b1e"

    @pytest.mark.parametrize("row, text, digest, counts", [
        ("ts_h0_1", None, "8f654cffe6ef36cb", (95, 83, 121)),
        ("ta_m2", None, "6abd879a820ba000", (141, 114, 148)),
        ("ta_m2", BOUNDED_TA, "c100b5b580f53709", (91, 100, 858)),
        ("pw_m2", None, "cd5757d567089369", (177, 138, 208)),
        ("pc_s0", None, "a85039c03b5d4180", (462, 1101, 607)),
    ])
    def test_export_bytes_pinned(self, row, text, digest, counts):
        # the benchmark's export cases and two more rows: SHA-256 prefix of
        # the SMT-LIB, variables, constraints and folded values
        import hashlib

        family, params = PUBLISHED_ROWS[row]
        spec = cases.generate(family, **params)
        cs, _ = encode_main(spec.mdp, spec.formula if text is None else parse_formula(text))
        assert hashlib.sha256(emit_smtlib2(cs).encode()).hexdigest()[:16] == digest
        folded = sum(len(values) for values in cs.meta.fixed.values())
        assert (cs.variable_count(), cs.constraint_count(), folded) == counts


def test_plan_builds_each_window_once_and_reads_operands_by_position():
    # ta_m2 under F<=20: 4 bounded untils, 20 windows below each
    spec, f = cases.generate("ta", m=2), parse_formula(BOUNDED_TA)
    calls = collections.Counter()

    def counting(name, method):
        def spy(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return spy

    with mock.patch.object(formula.BoundedUntil, "__init__", counting("built", formula.BoundedUntil.__init__)), \
            mock.patch.object(formula.Node, "__eq__", counting("compared", formula.Node.__eq__)), \
            mock.patch.object(formula.Node, "__hash__", counting("hashed", formula.Node.__hash__)):
        cs, _ = encode_main(spec.mdp, f)
    windows = sum(isinstance(getattr(node, "path", None), BoundedUntil) for node in cs.meta.supports) - 4
    assert calls["built"] == windows == 80
    assert calls["compared"] == 0
    assert calls["hashed"] < 2000  # a fixed number per node: none per point


@given(positions=st.lists(st.integers(0, 3), max_size=3), point=st.lists(st.text(max_size=2), min_size=4, max_size=4))
def test_projector_takes_the_components_at_its_positions(positions, point):
    point = tuple(point)
    for given_as in (positions, tuple(positions)):
        assert smt.projector(given_as)(point) == tuple(point[i] for i in positions)
