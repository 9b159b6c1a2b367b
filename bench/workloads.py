"""Cases, ops and expected verdicts of the hypermdp benchmark.

One op is ``load_mdp`` on a model file, ``parse_formula`` on a formula
file and one engine call with default arguments: ``check`` (enum),
``solve_eager(...).decoded`` (smt-eager), or ``encode_main`` +
``emit_smtlib2`` + a file write (export).  One pass runs every op of a
workload once, in an order drawn from the run's seed.

Why each workload exists, which layer it loads and which it bypasses:

paper-early
    The paper's leak rows (ta, pw, ts) and its conformance row (pc) on
    both engines, plus ta_m2_bnd, the only op that exercises the
    bounded-until recursion.  The verdict comes at the first few scheduler
    combinations, so the dense until solve on one 100-441-state
    composition dominates.  Loads analysis (until, qualitative sets,
    bounded until); enumeration and composition stay small.
sweep-true
    A true universal independence formula: no early exit, so all 64
    scheduler pairs are tried.  The body has two one-variable path
    formulas and one coupled two-variable one, so per-scheduler caching
    and projection show here, while the coupled operand keeps composed
    work that projection cannot remove.  Loads enumeration, composition
    and the loop over scheduler combinations.
smt-export
    The SMT route: encode, emit SMT-LIB2 and write it.  Solves nothing,
    so the analysis layer and scheduler enumeration are bypassed.  Loads
    the encoder and the emitter; ta_m2_bnd shows the k-fold bounded-until
    unrolling.

Ops are kept short so that a run holds many passes and every op many
samples: the machine's speed moves within seconds, and only medians over
many short samples, each read against the machine's speed at the time,
stayed steady from run to run.  Two long ops are therefore left out:
ta_m2_indep (all 256 pairs of ta_m2, about 10 s per engine) and the
export of pc_s0 (about 20 s and 600 MB).  They belong in a workload of
their own once the until solver is faster.

Published rows left out, because the code at the time this benchmark was
defined cannot finish them (a workload that always fails cannot be
steady): ta_m4 (over 60 s, or MemoryError under a 2 GB cap), pw_m4,
pw_m6, ta_m6, ts_h0_15, ts_h8_15, pc_s01 and pc_s012 (the last two
unmeasured).  They belong in a later workload once scheduler combinations
are streamed and path formulas are solved per component.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

EXCLUDED_ROWS = {
    "ta_m4": "over 60 s on enum; MemoryError under a 2 GB cap on smt-eager",
    "pw_m4": "does not finish on the scheduler sweep",
    "pw_m6": "does not finish on the scheduler sweep",
    "ta_m6": "does not finish on the scheduler sweep",
    "ts_h0_15": "does not finish on the scheduler sweep",
    "ts_h8_15": "does not finish on the scheduler sweep",
    "pc_s01": "unmeasured; larger scheduler space than pc_s0",
    "pc_s012": "unmeasured; larger scheduler space than pc_s0",
}

BOUNDED_TA = (
    "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2).\n"
    "(init(x) & init(y)) -> (P(F<=20 j=0(x)) = P(F<=20 j=0(y))"
    " & P(F<=20 j=1(x)) = P(F<=20 j=1(y)))\n"
)


@dataclass(frozen=True)
class Case:
    model: str  # name of the generated case whose model file is loaded
    family: str
    params: Tuple[Tuple[str, object], ...]
    formula: Optional[str]  # None: the generated case's own formula
    truth: bool
    mode: str  # expected verdict mode: 'witness' | 'counterexample' | 'none'


CASES: Dict[str, Case] = {
    "ts_h0_1": Case("ts_h0_1", "ts", (("h1", 0), ("h2", 1)), None, False, "counterexample"),
    "ta_m2": Case("ta_m2", "ta", (("m", 2),), None, False, "counterexample"),
    "pw_m2": Case("pw_m2", "pw", (("m", 2),), None, False, "counterexample"),
    "pc_s0": Case("pc_s0", "pc", (("tier", "s0"),), None, True, "witness"),
    "ta_m2_bnd": Case("ta_m2", "ta", (("m", 2),), BOUNDED_TA, False, "counterexample"),
    "ts_h0_1_indep": Case(
        "ts_h0_1", "ts", (("h1", 0), ("h2", 1)),
        "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2).\n"
        "(init(x) & init(y)) -> P(F (l=1(x) & l=1(y))) = P(F l=1(x)) * P(F l=1(y))\n",
        True, "none",
    ),
}

CHECK_ENGINES = ("enum", "smt-eager")

Op = Tuple[str, str]  # (case, engine); engine is 'enum' | 'smt-eager' | 'export'

WORKLOADS: Dict[str, Tuple[Op, ...]] = {
    "paper-early": tuple(
        (case, engine)
        for case in ("ts_h0_1", "ta_m2", "pw_m2", "pc_s0", "ta_m2_bnd")
        for engine in CHECK_ENGINES
    ),
    "sweep-true": tuple(("ts_h0_1_indep", engine) for engine in CHECK_ENGINES),
    "smt-export": tuple((case, "export") for case in ("ts_h0_1", "ta_m2", "ta_m2_bnd")),
}

# the smoke check runs one ts_h0_1 op per workload
SMOKE_OPS: Dict[str, Tuple[Op, ...]] = {
    name: (next(op for op in ops if op[0].startswith("ts_h0_1")),) for name, ops in WORKLOADS.items()
}


def model_path(casedir: str, case: str) -> str:
    return os.path.join(casedir, CASES[case].model + ".mdpx")


def formula_path(casedir: str, case: str) -> str:
    return os.path.join(casedir, case + ".hpctl")


def write_cases(hypermdp_cases, ops, casedir: str) -> None:
    """Generate the models the ops load and write them with their formulas."""
    os.makedirs(casedir, exist_ok=True)
    specs = {}
    for case in sorted({case for case, _ in ops}):
        c = CASES[case]
        spec = specs.get(c.model)
        if spec is None:
            spec = specs[c.model] = hypermdp_cases.generate(c.family, **dict(c.params))
            hypermdp_cases.write_case(spec, casedir)
        with open(formula_path(casedir, case), "w", encoding="utf-8") as fh:
            fh.write(spec.formula_text if c.formula is None else c.formula)


def run_op(api, case: str, engine: str, casedir: str, smt_path: str):
    """One op through the public API; returns (mdp, formula, result).

    The result is the decoded verdict for the check engines and
    ``(constraint system, SMT-LIB text)`` for export.  Every call goes
    through an attribute of ``api`` so that the traced run sees it.
    """
    mdp = api.load_mdp(model_path(casedir, case))
    with open(formula_path(casedir, case), encoding="utf-8") as fh:
        f = api.parse_formula(fh.read())
    if engine == "enum":
        return mdp, f, api.check(mdp, f)
    if engine == "smt-eager":
        return mdp, f, api.solve_eager(mdp, f).decoded
    cs, _polarity = api.encode_main(mdp, f)
    text = api.emit_smtlib2(cs)
    with open(smt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return mdp, f, (cs, text)


def verdict_problem(case: str, verdict) -> Optional[str]:
    """Why a verdict differs from the hand-written expectation, or None."""
    c = CASES[case]
    if (verdict.truth, verdict.mode) != (c.truth, c.mode):
        return f"expected {c.truth}/{c.mode}, got {verdict.truth}/{verdict.mode}"
    if c.mode != "none" and not verdict.schedulers:
        return f"{c.mode} carries no scheduler"
    return None
