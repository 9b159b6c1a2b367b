"""Command-line front-end: check, encode, gen, stats.

Exit codes: 0 verdict true, 1 verdict false, 2 anything else: a usage or
validation error, an undecided external solver, or an internal error.

The engines (``enumcheck``, ``smt``, ``constraints``) are imported inside
the functions that read them, so ``gen``, and ``stats`` without a formula,
load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from typing import Optional

from . import cases
from .errors import HyperMdpError, MixedSchedulerBlock
from .formula import (
    Formula,
    check_well_formed,
    count_quantifiers,
    parse_formula,
    state_var_index,
)
from .model import load_mdp

REPORT_SCHEMA = "hypermdp-report/1"


def _load_formula(args) -> Formula:
    if bool(args.formula) == bool(args.formula_file):
        raise HyperMdpError("exactly one of --formula and --formula-file is required")
    if args.formula:
        return parse_formula(args.formula)
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read())


def subformula_count(f: Formula) -> int:
    """The encoder's subformula table's size: distinct subformulas of the
    body, counting the reduced-bound windows of its bounded untils."""
    from .smt import encoding_supports

    return len(encoding_supports(f.body, state_var_index(f)))


def _verdict_json(verdict) -> dict:
    return {
        "truth": verdict.truth,
        "mode": verdict.mode,
        "schedulers": {name: a.as_dict() for name, a in verdict.schedulers.items()},
        "states": dict(verdict.states),
    }


def _print_human(verdict, out):
    print(f"verdict: {'true' if verdict.truth else 'false'}", file=out)
    if verdict.mode != "none":
        print(f"{verdict.mode}:", file=out)
        for name, assignment in verdict.schedulers.items():
            print(f"  scheduler {name}:", file=out)
            for state, action in assignment.as_dict().items():
                print(f"    {state}: {action}", file=out)
        for name, state in verdict.states.items():
            print(f"  state {name}: {state}", file=out)


def cmd_check(args, out) -> int:
    from .constraints import emit_smtlib2
    from .enumcheck import check, validate_inputs
    from .smt import check_external, encode_main, solve_eager, transform_for_encoding

    mdp = load_mdp(args.model)
    f = _load_formula(args)
    engine = args.engine
    solver = args.solver or os.environ.get("HYPERPROB_SOLVER")
    notice = None

    start = time.perf_counter()
    encode_ms, cs = 0.0, None
    if engine in ("smt-eager", "smt-external"):
        try:
            if engine == "smt-external" and not solver:
                raise HyperMdpError("smt-external needs --solver or HYPERPROB_SOLVER")
            validate_inputs(mdp, f, args.max_sched_vars, args.max_state_vars)  # before any encoding
            if engine == "smt-external" or args.emit or args.json:
                t0 = time.perf_counter()
                cs, _ = encode_main(mdp, f)
                smt_text = emit_smtlib2(cs) if engine == "smt-external" or args.emit else None
                encode_ms = (time.perf_counter() - t0) * 1000
                if args.emit:
                    with open(args.emit, "w", encoding="utf-8") as fh:
                        fh.write(smt_text)
            if engine == "smt-external":
                verdict = check_external(cs, smt_text, solver, args.timeout).decoded
            else:
                verdict = solve_eager(mdp, f, max_sched_vars=args.max_sched_vars,
                                      max_state_vars=args.max_state_vars).decoded
        except MixedSchedulerBlock:
            notice = "notice: mixed scheduler block, falling back to the enum engine"
            engine = "enum"
    if engine == "enum":
        verdict = check(mdp, f, max_sched_vars=args.max_sched_vars,
                        max_state_vars=args.max_state_vars)
    solve_ms = (time.perf_counter() - start) * 1000 - encode_ms

    if notice:
        print(notice, file=sys.stderr)

    m, n = count_quantifiers(f)
    report = {
        "schema": REPORT_SCHEMA,
        "engine": engine,
        "verdict": _verdict_json(verdict),
        "model": {
            "states": len(mdp.states),
            "transitions": mdp.transition_count(),
            "scheduler_space": mdp.scheduler_space_size(),
            "composed_states": len(mdp.states) ** n,
        },
        "formula": {
            "scheduler_vars": m,
            "state_vars": n,
            "subformulas": subformula_count(transform_for_encoding(f)[0] if engine != "enum" else f),
        },
        "encoding": None if cs is None else {"variables": cs.variable_count()},
        "timings_ms": {"encode": round(encode_ms, 3), "solve": round(solve_ms, 3)},
    }
    if args.json:
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        _print_human(verdict, out)
        stats = report["model"]
        print(
            f"engine: {engine}  states={stats['states']} transitions={stats['transitions']} "
            f"scheduler-space={stats['scheduler_space']} composed-states={stats['composed_states']} "
            f"subformulas={report['formula']['subformulas']}",
            file=out,
        )
        print(f"timings: encode {encode_ms:.1f} ms, solve {solve_ms:.1f} ms", file=out)
    return 0 if verdict.truth else 1


def cmd_encode(args, out) -> int:
    from .constraints import emit_smtlib2
    from .enumcheck import validate_inputs
    from .smt import encode_main

    mdp = load_mdp(args.model)
    f = _load_formula(args)
    validate_inputs(mdp, f, math.inf, math.inf)  # encoding has no quantifier caps
    cs, polarity = encode_main(mdp, f)
    text = emit_smtlib2(cs)
    with open(args.emit, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(
        f"wrote {args.emit}: polarity={polarity} variables={cs.variable_count()} "
        f"constraints={cs.constraint_count()} subformulas={len(cs.subformula_text)} "
        f"fixed={sum(len(values) for values in cs.meta.fixed)}",
        file=out,
    )
    return 0


def cmd_gen(args, out) -> int:
    if args.family in ("ta", "pw"):
        if args.m is None:
            raise HyperMdpError(f"{args.family} needs --m")
        spec = cases.generate(args.family, m=args.m)
    elif args.family == "ts":
        if args.secrets is None:
            raise HyperMdpError("ts needs --h H1 H2")
        spec = cases.generate("ts", h1=args.secrets[0], h2=args.secrets[1])
    else:
        if args.tier is None:
            raise HyperMdpError("pc needs --tier")
        spec = cases.generate("pc", tier=args.tier)
    model_path, formula_path = cases.write_case(spec, args.out_dir)
    print(f"wrote {model_path} and {formula_path}", file=out)
    ref_s, ref_t = spec.reference or ("n/a", "n/a")
    print(f"states={len(spec.mdp.states)} (reference: {ref_s})  transitions={spec.mdp.transition_count()} "
          f"(reference: {ref_t})", file=out)
    return 0


def cmd_stats(args, out) -> int:
    mdp = load_mdp(args.model)
    print(f"states={len(mdp.states)} transitions={mdp.transition_count()} "
          f"actions={len(mdp.actions)} propositions={len(mdp.ap)} "
          f"scheduler-space={mdp.scheduler_space_size()}", file=out)
    if args.formula or args.formula_file:
        f = _load_formula(args)
        check_well_formed(f)
        m, n = count_quantifiers(f)
        print(f"scheduler-vars={m} state-vars={n} subformulas={subformula_count(f)} "
              f"composed-states={len(mdp.states) ** n}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermdp",
        description="Check probabilistic hyperproperties on explicit-state MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_args(p):
        p.add_argument("--formula", help="formula text")
        p.add_argument("--formula-file", help="file containing one formula")

    p_check = sub.add_parser("check", help="decide a formula on a model")
    p_check.add_argument("model", help=".mdpx model file")
    add_formula_args(p_check)
    p_check.add_argument("--engine", choices=("enum", "smt-eager", "smt-external"),
                         default="smt-eager")
    p_check.add_argument("--solver", help="external solver binary (or HYPERPROB_SOLVER)")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.add_argument("--emit", help="also write the SMT-LIB2 encoding to this file (smt engines)")
    p_check.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                         help="seconds the external solver may run (smt-external; default 600)")
    p_check.add_argument("--max-sched-vars", type=int, default=3)
    p_check.add_argument("--max-state-vars", type=int, default=3)

    p_encode = sub.add_parser("encode", help="emit the SMT-LIB2 encoding")
    p_encode.add_argument("model")
    add_formula_args(p_encode)
    p_encode.add_argument("--emit", required=True, help="output .smt2 path")

    p_gen = sub.add_parser("gen", help="generate a benchmark model and formula")
    p_gen.add_argument("family", choices=cases.GENERATORS)
    p_gen.add_argument("--m", type=int, help="loop length for ta/pw")
    p_gen.add_argument("--h", dest="secrets", type=int, nargs=2, metavar=("H1", "H2"),
                       help="secret pair for ts")
    p_gen.add_argument("--tier", choices=cases.TIER_SOURCES, help="pc tier")
    p_gen.add_argument("--out-dir", default=".")

    p_stats = sub.add_parser("stats", help="print model (and formula) statistics")
    p_stats.add_argument("model")
    add_formula_args(p_stats)

    return parser


def main(argv: Optional[list] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "check": cmd_check,
        "encode": cmd_encode,
        "gen": cmd_gen,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.command](args, out)
    except (HyperMdpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # RecursionError and MemoryError included
        # exit code 1 means "false"; a crash must never be read as a verdict
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
