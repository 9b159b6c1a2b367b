import functools
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest

from hypermdp import cases, cli, smt
from hypermdp.cli import main
from hypermdp.constraints import choice_sym, emit_smtlib2, evaluate_system
from hypermdp.enumcheck import check, replay
from hypermdp.errors import IncompleteModel
from hypermdp.formula import MAX_HEIGHT, parse_formula
from hypermdp.model import enumerate_schedulers, parse_mdp
from hypermdp.smt import encode_main, full_assignment, solve_eager
from .conftest import M_COIN_TEXT
from .helpers import BOUNDED_TA, PUBLISHED_ROWS, solver_model

REACH_ONE = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1"
REACH_HALF = "exists sched s. exists st x(s). init(x) & P(F a(x)) = 1/2"

# s2 is declared but unreachable from the init state
UNREACHABLE_TEXT = ("states: s0 s1 s2\n"
                    "labels: s0: init; s1: a\n"
                    "action s0 go: s1 1\n"
                    "action s1 go: s1 1\n"
                    "action s2 go: s2 1\n")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def coin_path(tmp_path):
    path = tmp_path / "m_coin.mdpx"
    path.write_text(M_COIN_TEXT)
    return str(path)


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestCheck:
    def test_true_verdict_exit_zero_and_witness_table(self, coin_path):
        code, out = run_cli("check", coin_path, "--formula", REACH_ONE, "--engine", "enum")
        assert code == 0
        assert "verdict: true" in out
        assert "s0: alpha" in out

    def test_false_verdict_exit_one(self, coin_path):
        code, out = run_cli("check", coin_path, "--formula", REACH_HALF)
        assert code == 1
        assert "verdict: false" in out

    def test_engines_agree(self, coin_path):
        for engine in ("enum", "smt-eager"):
            code, _ = run_cli("check", coin_path, "--formula", REACH_ONE, "--engine", engine)
            assert code == 0

    def test_json_report_matches_golden(self, coin_path):
        code, out = run_cli("check", coin_path, "--formula", REACH_ONE, "--json")
        assert code == 0
        report = json.loads(out)
        report["timings_ms"] = {"encode": 0, "solve": 0}
        with open(os.path.join(GOLDEN_DIR, "check_report.json")) as fh:
            golden = json.load(fh)
        assert report == golden

    def test_formula_file(self, coin_path, tmp_path):
        fpath = tmp_path / "f.hpctl"
        fpath.write_text("# a reach query\n" + REACH_ONE + "\n")
        code, out = run_cli("check", coin_path, "--formula-file", str(fpath))
        assert code == 0

    def test_mixed_scheduler_block_falls_back_to_enum(self, coin_path, capsys):
        f = ("exists sched s1. forall sched s2. exists st x(s1). forall st y(s2). "
             "P(F a(x)) >= P(F a(y))")
        code, out = run_cli("check", coin_path, "--formula", f)
        captured = capsys.readouterr()
        assert code == 0
        assert "falling back" in captured.err
        assert "engine: enum" in out

    def test_malformed_model_exits_two_with_line(self, tmp_path):
        bad = tmp_path / "bad.mdpx"
        bad.write_text("states: s0 s1\naction s0 a: s1 1/2\naction s1 t: s1 1\n")
        code, _ = run_cli("check", str(bad), "--formula", REACH_ONE)
        assert code == 2

    def test_missing_formula_exits_two(self, coin_path):
        code, _ = run_cli("check", coin_path)
        assert code == 2

    def test_formula_syntax_error_exits_two(self, coin_path):
        code, _ = run_cli("check", coin_path, "--formula", "exists sched s. P(F a(x)")
        assert code == 2

    def test_unknown_proposition_exits_two(self, coin_path):
        code, _ = run_cli("check", coin_path,
                          "--formula", "exists sched s. exists st x(s). zzz(x)")
        assert code == 2

    def test_emit_while_checking(self, coin_path, tmp_path):
        out_path = tmp_path / "out.smt2"
        code, _ = run_cli("check", coin_path, "--formula", REACH_ONE, "--emit", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("; subformulas:")

    def test_guarded_forall_verdict(self, coin_path, tmp_path):
        # the antecedent restricts x to s0; the engines agree and the emitted
        # encoding carries the one-state conjunction
        f = "exists sched s. forall st x(s). init(x) -> P(F a(x)) = 1"
        out_path = tmp_path / "out.smt2"
        for engine in ("enum", "smt-eager"):
            code, out = run_cli("check", coin_path, "--formula", f, "--engine", engine, "--emit", str(out_path))
            assert code == 0, engine
            assert "s0: alpha" in out
        cs, _ = encode_main(parse_mdp(M_COIN_TEXT), parse_formula(f))
        assert cs.meta.domains == (("s0",),)
        assert out_path.read_text() == emit_smtlib2(cs)

    def test_prune_flag_is_gone(self, coin_path, tmp_path):
        # the guards decide the encoded tuples; no option does
        assert run_cli("check", coin_path, "--formula", REACH_ONE, "--prune")[0] == 2
        assert run_cli("encode", coin_path, "--formula", REACH_ONE,
                       "--emit", str(tmp_path / "out.smt2"), "--prune")[0] == 2

    @pytest.mark.parametrize("formula, code", [
        # universal block: the encoder negates and flips the state quantifiers
        ("forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1", 1),
        ("forall sched s. forall st x(s). init(x) -> P(F a(x)) >= 0", 0),
    ])
    def test_guard_keeps_verdict_with_negated_polarity(self, coin_path, tmp_path, formula, code):
        for engine in ("enum", "smt-eager"):
            for extra in ((), ("--emit", str(tmp_path / "out.smt2")), ("--json",)):
                assert run_cli("check", coin_path, "--formula", formula, "--engine", engine,
                               *extra)[0] == code, (engine, extra)

    @pytest.mark.parametrize("formula, code", [
        ("exists sched s. forall st x(s). init(x) -> P(F a(x)) = 1", 0),
        # not init-guarded: s2, unreachable from the init state, never reaches a
        ("forall sched s. forall st x(s). P(F a(x)) = 1", 1),
        # a guard off the init state: the witness s1 must stay in the encoding
        ("exists sched s. exists st x(s). a(x) & P(F a(x)) = 1", 0),
    ])
    def test_guard_decides_on_unreachable_state(self, tmp_path, formula, code):
        path = tmp_path / "unreachable.mdpx"
        path.write_text(UNREACHABLE_TEXT)
        mdp, f = parse_mdp(UNREACHABLE_TEXT), parse_formula(formula)
        for engine in ("enum", "smt-eager"):
            for extra in ((), ("--json",)):
                assert run_cli("check", str(path), "--formula", formula, "--engine", engine,
                               *extra)[0] == code, (engine, extra)
        # the model has one scheduler: its exact values satisfy the encoding
        # exactly when the encoded formula (negated for a forall block) holds
        cs, _ = encode_main(mdp, f)
        (only,) = enumerate_schedulers(mdp)
        values, choices = full_assignment(cs, mdp, {cs.meta.sched_names[0]: only})
        assert evaluate_system(cs, values, choices) == ((code == 0) == (cs.meta.polarity == "direct"))

    def test_shared_scheduler_and_state_name(self, coin_path, capsys):
        f = "forall sched x. forall st x(x). P(F a(x)) = 1"
        for engine in ("enum", "smt-eager"):
            code, out = run_cli("check", coin_path, "--formula", f, "--engine", engine)
            assert code == 1, engine
            assert "scheduler x:" in out and "state x: s2" in out
            code, out = run_cli("check", coin_path, "--formula", f, "--engine", engine, "--json")
            assert json.loads(out)["verdict"]["states"] == {"x": "s2"}
        assert "internal error" not in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("error", [RuntimeError, RecursionError, MemoryError])
    def test_internal_error_exits_two_not_false(self, coin_path, monkeypatch, capsys, error):
        def broken(*args, **kwargs):
            raise error("engine broke")

        monkeypatch.setattr(cli, "check", broken)
        code, out = run_cli("check", coin_path, "--formula", REACH_ONE, "--engine", "enum")
        assert code == 2
        assert f"internal error: {error.__name__}: engine broke" in capsys.readouterr().err
        assert "verdict" not in out


class TestDeepBound:
    """A bound far deeper than the interpreter's recursion limit."""

    MODEL = ("states: s0 s1\n"
             "labels: s0: init; s1: a\n"
             "action s0 tau: s0 1/2, s1 1/2\n"
             "action s1 tau: s1 1\n")
    EXACT = 1 - Fraction(1, 2) ** 3000

    def formula(self, value):
        return parse_formula(f"forall sched s. forall st x(s). init(x) -> "
                             f"P(F<=3000 a(x)) = {value.numerator}/{value.denominator}")

    def test_both_engines_get_the_exact_value(self):
        mdp = parse_mdp(self.MODEL)
        for value, truth in ((self.EXACT, True), (1 - Fraction(1, 2) ** 2999, False)):
            f = self.formula(value)
            assert check(mdp, f).truth is truth
            assert solve_eager(mdp, f).decoded.truth is truth

    def test_cli_exits_zero(self, tmp_path):
        path = tmp_path / "deep.mdpx"
        path.write_text(self.MODEL)
        for engine in ("enum", "smt-eager"):
            code, out = run_cli("check", str(path), "--engine", engine, "--formula",
                                "forall sched s. forall st x(s). P(F<=3000 a(x)) > 0")
            assert code == 0
            assert "verdict: true" in out


    def test_encode_exits_zero_and_satisfies_the_oracle(self, tmp_path):
        path = tmp_path / "deep.mdpx"
        path.write_text(self.MODEL)
        out_path = tmp_path / "deep.smt2"
        text = (f"exists sched s. exists st x(s). init(x) & "
                f"P(F<=3000 a(x)) = {self.EXACT.numerator}/{self.EXACT.denominator}")
        code, out = run_cli("encode", str(path), "--formula", text, "--emit", str(out_path))
        assert code == 0
        mdp = parse_mdp(self.MODEL)
        cs, _ = encode_main(mdp, parse_formula(text))
        assert out_path.read_text() == emit_smtlib2(cs)
        only = next(enumerate_schedulers(mdp))
        values, choices = full_assignment(cs, mdp, {"s": only})
        assert evaluate_system(cs, values, choices)


class TestDeepFormula:
    """A formula too deep for the walks over it is a syntax error, never an
    internal one; every shallower formula decides."""

    PREFIX = "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "

    def test_conjunction_sweep_decides_or_errors(self, coin_path, tmp_path, capsys):
        commands = (("check", "--engine", "enum"), ("check", "--engine", "smt-eager"),
                    ("encode", "--emit", str(tmp_path / "deep.smt2")), ("stats",))
        decided = []
        for n in range(400, 1001, 40):
            f = self.PREFIX + "P(F a(x)) = P(F a(y))" + " & init(x)" * (n - 1)
            codes = []
            for command, *extra in commands:
                code, _ = run_cli(command, coin_path, "--formula", f, *extra)
                err = capsys.readouterr().err
                assert "internal error" not in err, (n, command)
                assert code != 2 or err.startswith("error: "), (n, command)
                codes.append(code)
            if codes == [1, 1, 0, 0]:
                decided.append(n)
            else:
                assert codes == [2, 2, 2, 2], (n, codes)
        assert 480 in decided and decided == list(range(400, decided[-1] + 1, 40))
        assert decided[-1] + 7 <= MAX_HEIGHT < decided[-1] + 47  # n conjuncts: height n + 7

    def test_long_negation_chain_decides(self, coin_path, capsys):
        f = "exists sched s. exists st x(s). " + "!" * 600 + "a(x)"
        for engine in ("enum", "smt-eager"):
            assert run_cli("check", coin_path, "--formula", f, "--engine", engine)[0] == 0
        assert "error" not in capsys.readouterr().err


def json_variable_count(model_path, formula) -> int:
    """The variable count that ``check --json`` reports."""
    code, out = run_cli("check", str(model_path), "--formula", formula, "--json")
    assert code in (0, 1)
    return json.loads(out)["encoding"]["variables"]


class TestEncodingReport:
    """``check --json`` reports the variables the encoder really declares."""

    @pytest.mark.parametrize("formula", [
        REACH_ONE,
        "exists sched s. exists st x(s). exists st y(s). P(X a(x)) < 1/2 & P(F a(y)) > 0",
        "forall sched s. forall st x(s). P(F<=3 a(x)) >= P(true U[1,2] a(x)) * 1/2",
    ])
    def test_coin_count_matches_encoder(self, m_coin, coin_path, formula):
        expected = encode_main(m_coin, parse_formula(formula))[0].variable_count()
        assert json_variable_count(coin_path, formula) == expected

    def test_ta_m2_count_matches_encoder(self, tmp_path):
        spec = cases.generate("ta", m=2)
        expected = encode_main(spec.mdp, spec.formula)[0].variable_count()
        model_path, _ = cases.write_case(spec, tmp_path)
        assert json_variable_count(model_path, spec.formula_text) == expected
        assert expected == 141  # the layer above the P(...)s at the init pairs only, fixed points folded

    @pytest.mark.parametrize("row", sorted(PUBLISHED_ROWS) + ["ta_m2_bnd"])
    def test_count_reads_the_folded_table(self, row, tmp_path):
        # every published row and the benchmark's three export cases
        # (ts_h0_1, ta_m2 and ta_m2's bounded formula)
        family, params = ("ta", {"m": 2}) if row == "ta_m2_bnd" else PUBLISHED_ROWS[row]
        spec = cases.generate(family, **params)
        text = BOUNDED_TA if row == "ta_m2_bnd" else spec.formula_text
        model_path, _ = cases.write_case(spec, tmp_path)
        assert json_variable_count(model_path, text) == encode_main(spec.mdp, parse_formula(text))[0].variable_count()

    def test_json_reports_guarded_count(self, tmp_path):
        # s2 is unreachable from the init state, so the guarded encoding drops it
        path = tmp_path / "guarded.mdpx"
        path.write_text(UNREACHABLE_TEXT)
        f = "exists sched s. forall st x(s). init(x) -> P(F a(x)) = 1"
        mdp = parse_mdp(UNREACHABLE_TEXT)
        guarded = encode_main(mdp, parse_formula(f))[0]
        assert guarded.meta.tuples == (("s0",), ("s1",))
        code, out = run_cli("check", str(path), "--formula", f, "--json")
        assert code == 0
        assert json.loads(out)["encoding"]["variables"] == guarded.variable_count()

    @pytest.mark.parametrize("extra", [("--json",), ("--emit", "x.smt2"), ("--engine", "smt-external")])
    @pytest.mark.parametrize("formula, message", [
        ("exists sched s. exists st x(s). a(y)", "'y' is not bound"),
        ("exists sched s. exists st x(s). zzz(x)", "['zzz']"),
    ])
    def test_invalid_formula_is_a_plain_error_before_encoding(self, coin_path, tmp_path, capsys, monkeypatch,
                                                              extra, formula, message):
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli("check", coin_path, "--formula", formula, "--solver", "never-run", *extra)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x.smt2").exists()


class TestEncode:
    def test_writes_file_and_prints_counts(self, coin_path, tmp_path):
        out_path = tmp_path / "coin.smt2"
        code, out = run_cli("encode", coin_path, "--formula", REACH_ONE,
                            "--emit", str(out_path))
        assert code == 0
        assert "variables=" in out and "constraints=" in out
        # REACH_ONE's folded (subformula, point) values: a(x) at s0..s2, the
        # until at s1 and s2, true, the constant 1 and init(x) at s0
        assert "fixed=8" in out
        assert out_path.exists()

    def test_golden_encoding(self, coin_path, tmp_path):
        out_path = tmp_path / "coin.smt2"
        run_cli("encode", coin_path, "--formula", REACH_ONE, "--emit", str(out_path))
        with open(os.path.join(GOLDEN_DIR, "m_coin_reach.smt2")) as fh:
            assert out_path.read_text() == fh.read()

    def test_missing_output_directory_exits_two(self, coin_path, tmp_path):
        code, _ = run_cli("encode", coin_path, "--formula", REACH_ONE,
                          "--emit", str(tmp_path / "nope" / "x.smt2"))
        assert code == 2

    def test_mixed_block_exits_two(self, coin_path, tmp_path):
        f = ("exists sched s1. forall sched s2. exists st x(s1). forall st y(s2). "
             "P(F a(x)) >= P(F a(y))")
        code, _ = run_cli("encode", coin_path, "--formula", f,
                          "--emit", str(tmp_path / "x.smt2"))
        assert code == 2

    @pytest.mark.parametrize("formula, message", [
        ("exists sched s. exists st x(s). a(y)", "'y' is not bound"),
        ("exists sched s. exists st x(s). zzz(x)", "['zzz']"),
    ])
    def test_invalid_formula_is_a_plain_error(self, coin_path, tmp_path, capsys, formula, message):
        out_path = tmp_path / "x.smt2"
        code, _ = run_cli("encode", coin_path, "--formula", formula, "--emit", str(out_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "internal error" not in err
        assert not out_path.exists()


class TestGen:
    def test_pc_reports_reference_side_by_side(self, tmp_path):
        code, out = run_cli("gen", "pc", "--tier", "s0", "--out-dir", str(tmp_path))
        assert code == 0
        assert "states=20 (reference: 20)" in out
        assert (tmp_path / "pc_s0.mdpx").exists()
        assert (tmp_path / "pc_s0.hpctl").exists()

    def test_ts_reports_reference(self, tmp_path):
        code, out = run_cli("gen", "ts", "--h", "0", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert "(reference: 7)" in out and "(reference: 13)" in out

    def test_unreferenced_parameters_report_na(self, tmp_path):
        code, out = run_cli("gen", "ta", "--m", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert "(reference: n/a)" in out

    def test_bad_parameter_exits_two(self, tmp_path):
        code, _ = run_cli("gen", "ta", "--m", "0", "--out-dir", str(tmp_path))
        assert code == 2

    def test_generated_files_round_trip(self, tmp_path):
        run_cli("gen", "ts", "--h", "0", "1", "--out-dir", str(tmp_path))
        mdp = parse_mdp((tmp_path / "ts_h0_1.mdpx").read_text())
        f = parse_formula((tmp_path / "ts_h0_1.hpctl").read_text())
        code, out = run_cli("check", str(tmp_path / "ts_h0_1.mdpx"),
                            "--formula-file", str(tmp_path / "ts_h0_1.hpctl"))
        assert code == 1  # the scheduling channel leaks


class TestStats:
    def test_model_stats(self, coin_path):
        code, out = run_cli("stats", coin_path)
        assert code == 0
        assert "states=3" in out and "scheduler-space=2" in out

    def test_formula_stats(self, coin_path):
        code, out = run_cli("stats", coin_path, "--formula", REACH_ONE)
        assert code == 0
        assert "state-vars=1" in out


class TestExternalSolver:
    def _write_fake_solver(self, tmp_path, response: str, sleep: float = 0) -> str:
        answer = tmp_path / "answer.txt"
        answer.write_text(response)
        script = tmp_path / "fakesolver.py"
        script.write_text(
            "#!/usr/bin/env python3\n"
            "import sys, time\n"
            f"time.sleep({sleep})\n"
            f"sys.stdout.write(open({str(answer)!r}).read())\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        return str(script)

    @pytest.fixture
    def private_tmp(self, tmp_path, monkeypatch):
        """A temp directory of its own for the solver script files."""
        path = tmp_path / "tmp"
        path.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(path))
        return path

    @staticmethod
    def _sat_response(model: dict) -> str:
        """``sat`` and a ``(get-model)`` answer giving ``model``'s values."""
        lines = ["sat", "(model"]
        for name, value in model.items():
            if isinstance(value, bool):
                lines.append(f"  (define-fun {name} () Bool {'true' if value else 'false'})")
            else:
                real = f"(/ {abs(value.numerator)} {value.denominator})"
                lines.append(f"  (define-fun {name} () Real {real if value >= 0 else f'(- {real})'})")
        lines.append(")")
        return "\n".join(lines) + "\n"

    def test_sat_model_is_decoded(self, coin_path, tmp_path):
        # canned response: what a solver returns for the eager engine's witness
        mdp = parse_mdp(M_COIN_TEXT)
        f = parse_formula(REACH_ONE)
        cs, _ = encode_main(mdp, f)
        model = solver_model(cs, mdp, solve_eager(mdp, f).decoded.schedulers)
        solver = self._write_fake_solver(tmp_path, self._sat_response(model))
        code, out = run_cli("check", coin_path, "--formula", REACH_ONE,
                            "--engine", "smt-external", "--solver", solver)
        assert code == 0
        assert "s0: alpha" in out

    def test_coupled_guarded_model_decodes_to_the_eager_counterexample(self, tmp_path):
        # ts_h0_1 couples x and y under init guards: the solver's model
        # holds exactly the declared variables, and decodes to the
        # counterexample that the eager engine finds
        spec = cases.generate("ts", h1=0, h2=1)
        cs, _ = encode_main(spec.mdp, spec.formula)
        eager = solve_eager(spec.mdp, spec.formula).decoded
        model = solver_model(cs, spec.mdp, eager.schedulers)
        assert model.keys() == cs.variables.keys() | {
            choice_sym(family, state, a) for (family, state), actions in cs.choice_domains.items()
            for a in actions}
        solver = self._write_fake_solver(tmp_path, self._sat_response(model))
        result = smt.check_external(cs, emit_smtlib2(cs), solver)
        assert result.decoded == eager
        assert result.decoded.mode == "counterexample"
        assert replay(spec.mdp, spec.formula, result.decoded) is False

    def test_script_file_is_removed(self, coin_path, tmp_path, private_tmp):
        solver = self._write_fake_solver(tmp_path, "unsat\n")
        code, _ = run_cli("check", coin_path, "--formula", REACH_HALF,
                          "--engine", "smt-external", "--solver", solver)
        assert code == 1
        assert list(private_tmp.iterdir()) == []

    def test_script_file_is_removed_when_the_write_fails(self, tmp_path, private_tmp):
        # a lone surrogate has no encoding, so writing the script raises
        with pytest.raises(UnicodeEncodeError):
            smt.run_external_solver(str(tmp_path / "no-solver"), "(check-sat)\ud800\n")
        assert list(private_tmp.iterdir()) == []

    def test_timeout_is_incomplete_and_cleans_up(self, coin_path, tmp_path, private_tmp,
                                                 monkeypatch):
        solver = self._write_fake_solver(tmp_path, "unsat\n", sleep=30)
        with pytest.raises(IncompleteModel):
            smt.run_external_solver(solver, "(check-sat)\n", timeout=0.5)
        monkeypatch.setattr(smt, "run_external_solver",
                            functools.partial(smt.run_external_solver, timeout=0.5))
        code, _ = run_cli("check", coin_path, "--formula", REACH_HALF,
                          "--engine", "smt-external", "--solver", solver)
        assert code == 2
        assert list(private_tmp.iterdir()) == []

    def test_timeout_option_exits_two_and_cleans_up(self, coin_path, tmp_path, private_tmp, capsys):
        # the solver would answer unsat (exit 1) after 30 s; --timeout cuts
        # it off first, and expiry is "undecided" (2), never "false" (1)
        solver = self._write_fake_solver(tmp_path, "unsat\n", sleep=30)
        start = time.perf_counter()
        code, out = run_cli("check", coin_path, "--formula", REACH_HALF, "--engine", "smt-external",
                            "--solver", solver, "--timeout", "0.5")
        assert code == 2 and time.perf_counter() - start < 20
        assert "no answer within 0.5 s" in capsys.readouterr().err
        assert "verdict" not in out
        assert list(private_tmp.iterdir()) == []
        assert cli.build_parser().parse_args(["check", coin_path]).timeout == 600

    def test_emit_encodes_once(self, coin_path, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return encode_main(*args, **kwargs)

        monkeypatch.setattr(cli, "encode_main", counting)
        monkeypatch.setattr(smt, "encode_main", counting)
        solver = self._write_fake_solver(tmp_path, "unsat\n")
        out_path = tmp_path / "out.smt2"
        code, _ = run_cli("check", coin_path, "--formula", REACH_HALF, "--engine", "smt-external",
                          "--solver", solver, "--emit", str(out_path))
        assert code == 1
        assert len(calls) == 1
        assert out_path.read_text() == emit_smtlib2(encode_main(*calls[0])[0])

    def test_unknown_names_the_solver_stderr(self, coin_path, tmp_path, capsys):
        solver = self._write_fake_solver(tmp_path, "unknown\n")
        script = open(solver).read()
        with open(solver, "w") as fh:
            fh.write(script + "sys.stderr.write('line one\\nline two\\nout of memory\\n')\n")
        with pytest.raises(IncompleteModel, match="out of memory"):
            smt.run_external_solver(solver, "(check-sat)\n")
        code, _ = run_cli("check", coin_path, "--formula", REACH_HALF,
                          "--engine", "smt-external", "--solver", solver)
        assert code == 2
        assert "line two | out of memory" in capsys.readouterr().err

    def test_unsat_response(self, coin_path, tmp_path):
        solver = self._write_fake_solver(tmp_path, "unsat\n")
        code, out = run_cli("check", coin_path, "--formula", REACH_HALF,
                            "--engine", "smt-external", "--solver", solver)
        assert code == 1

    def test_env_var_supplies_solver(self, coin_path, tmp_path, monkeypatch):
        solver = self._write_fake_solver(tmp_path, "unsat\n")
        monkeypatch.setenv("HYPERPROB_SOLVER", solver)
        code, _ = run_cli("check", coin_path, "--formula", REACH_HALF,
                          "--engine", "smt-external")
        assert code == 1

    def test_missing_solver_exits_two(self, coin_path, monkeypatch):
        monkeypatch.delenv("HYPERPROB_SOLVER", raising=False)
        code, _ = run_cli("check", coin_path, "--formula", REACH_ONE,
                          "--engine", "smt-external")
        assert code == 2

    @pytest.mark.skipif(
        not os.environ.get("HYPERPROB_REAL_SOLVER"),
        reason="set HYPERPROB_REAL_SOLVER to a QF_LRA solver binary to run",
    )
    def test_real_solver_agrees_with_eager(self, coin_path):
        solver = os.environ["HYPERPROB_REAL_SOLVER"]
        code, _ = run_cli("check", coin_path, "--formula", REACH_ONE,
                          "--engine", "smt-external", "--solver", solver)
        assert code == 0


def test_module_entry_point(coin_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hypermdp.cli", "check", coin_path,
         "--formula", REACH_ONE, "--engine", "enum"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verdict: true" in proc.stdout
