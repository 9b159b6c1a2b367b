from fractions import Fraction

import pytest

from hypermdp.analysis import until_probs
from hypermdp.enumcheck import check
from hypermdp.formula import check_well_formed, count_quantifiers
from hypermdp.model import enumerate_schedulers, induce_dtmc
from hypermdp.cases import (
    REFERENCE_SIZES,
    gen_conformance,
    gen_password,
    gen_thread_sched,
    gen_timing_attack,
    generate,
    knuth_yao_die,
    write_case,
)

SIXTH = Fraction(1, 6)


def within_factor_two(actual, reference):
    return reference / 2 <= actual <= reference * 2


class TestGenerators:
    @pytest.mark.parametrize("spec_fn,params", [
        (gen_timing_attack, {"m": 1}),
        (gen_timing_attack, {"m": 2}),
        (gen_password, {"m": 1}),
        (gen_password, {"m": 2}),
        (gen_thread_sched, {"h1": 0, "h2": 1}),
        (gen_conformance, {"tier": "s0"}),
    ])
    def test_models_validate_and_formulas_are_well_formed(self, spec_fn, params):
        spec = spec_fn(**params)
        check_well_formed(spec.formula)  # model validity asserted by construction

    def test_quantifier_shapes(self):
        assert count_quantifiers(gen_timing_attack(1).formula) == (2, 2)
        assert count_quantifiers(gen_password(1).formula) == (2, 2)
        assert count_quantifiers(gen_thread_sched(0, 1).formula) == (1, 2)
        assert count_quantifiers(gen_conformance("s0").formula) == (1, 2)

    def test_determinism(self):
        first = gen_conformance("s0")
        second = gen_conformance("s0")
        assert first.model_text == second.model_text
        assert first.formula_text == second.formula_text

    def test_write_case(self, tmp_path):
        spec = gen_timing_attack(1)
        model_path, formula_path = write_case(spec, tmp_path)
        assert open(model_path).read() == spec.model_text
        assert open(formula_path).read() == spec.formula_text

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_timing_attack(0)
        with pytest.raises(ValueError, match="password size m must be >= 1"):
            gen_password(0)
        with pytest.raises(ValueError):
            gen_thread_sched(3, 3)
        with pytest.raises(ValueError, match="secrets must be nonnegative"):
            gen_thread_sched(-1, 2)
        with pytest.raises(ValueError):
            gen_conformance("s9")
        with pytest.raises(ValueError):
            generate("nope")

    def test_sizes_within_factor_two_of_reference(self):
        # every tabulated parameter point
        generated = [gen_timing_attack(m) for m in (2, 4, 6)]
        generated += [gen_password(m) for m in (2, 4, 6)]
        generated += [gen_thread_sched(h1, h2) for h1, h2 in ((0, 1), (0, 15), (4, 8), (8, 15))]
        generated += [gen_conformance(tier) for tier in ("s0", "s01", "s012")]
        assert len(generated) == sum(len(rows) for rows in REFERENCE_SIZES.values())
        for spec in generated:
            states_ref, trans_ref = spec.reference
            assert within_factor_two(len(spec.mdp.states), states_ref), spec.name
            assert within_factor_two(spec.mdp.transition_count(), trans_ref), spec.name

    def test_conformance_has_twenty_states(self):
        for tier in ("s0", "s01", "s012"):
            assert len(gen_conformance(tier).mdp.states) == 20


class TestKnuthYao:
    def test_every_face_is_one_sixth(self):
        die = knuth_yao_die()
        d = induce_dtmc(die, next(enumerate_schedulers(die)))
        for face in range(1, 7):
            target = {s: f"die={face}" in d.labels[s] for s in d.states}
            vec = until_probs(d, {s: True for s in d.states}, target)
            assert vec["d0"] == SIXTH

    def test_ts_small_scheduler_space(self):
        mdp = gen_thread_sched(0, 1).mdp
        assert mdp.scheduler_space_size() <= 2 ** 7

    def test_conformance_first_scheduler_is_the_known_wiring(self):
        spec = gen_conformance("s0")
        first = next(enumerate_schedulers(spec.mdp))
        d = induce_dtmc(spec.mdp, first)
        for face in range(1, 7):
            target = {s: f"die={face}" in d.labels[s] for s in d.states}
            vec = until_probs(d, {s: True for s in d.states}, target)
            assert vec["c0"] == SIXTH
            assert vec["d0"] == SIXTH


class TestPureDieConformance:
    def test_conformance_formula_true_on_single_action_die(self):
        die = knuth_yao_die()
        f = gen_conformance("s0").formula
        assert check(die, f).truth is True


class TestLeakVerdicts:
    def test_ts_leaks(self):
        spec = gen_thread_sched(0, 1)
        assert check(spec.mdp, spec.formula).truth is False

    def test_ta_m1_leaks(self):
        spec = gen_timing_attack(1)
        assert check(spec.mdp, spec.formula).truth is False

    def test_pw_m1_leaks(self):
        spec = gen_password(1)
        assert check(spec.mdp, spec.formula).truth is False
