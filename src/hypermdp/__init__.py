"""Exact model checking of probabilistic hyperproperties on MDPs.

Two engines decide formulas with scheduler and state quantifiers over
explicit-state Markov decision processes: direct quantifier enumeration
and an eager constraint-encoding procedure with witness extraction.
All probability arithmetic is exact rational.

``import hypermdp`` loads none of its modules.  Each public name, and
each submodule name such as ``hypermdp.analysis``, loads its module on
first use (PEP 562), so a process that reads only the model and the
formula parser never compiles either engine.
"""

import importlib

__all__ = [
    "Dtmc",
    "Formula",
    "Mdp",
    "SchedulerAssignment",
    "SmtVerdict",
    "Verdict",
    "bounded_until_probs",
    "check",
    "check_well_formed",
    "count_quantifiers",
    "decode_witness",
    "dtmc_as_mdp",
    "emit_smtlib2",
    "encode_main",
    "enumerate_schedulers",
    "format_formula",
    "format_mdp",
    "induce_dtmc",
    "load_mdp",
    "next_probs",
    "parse_formula",
    "parse_mdp",
    "qualitative_sets",
    "replay",
    "self_compose",
    "solve_eager",
    "until_probs",
    "until_probs_vi",
    "validate_mdp",
]

# the submodule that defines each public name
_EXPORTS = {
    "analysis": ("bounded_until_probs", "next_probs", "qualitative_sets", "until_probs", "until_probs_vi"),
    "constraints": ("emit_smtlib2",),
    "enumcheck": ("Verdict", "check", "replay"),
    "formula": ("Formula", "check_well_formed", "count_quantifiers", "format_formula", "parse_formula"),
    "model": ("Dtmc", "Mdp", "SchedulerAssignment", "dtmc_as_mdp", "enumerate_schedulers", "format_mdp",
              "induce_dtmc", "load_mdp", "parse_mdp", "self_compose", "validate_mdp"),
    "smt": ("SmtVerdict", "decode_witness", "encode_main", "solve_eager"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset(("analysis", "cases", "cli", "constraints", "enumcheck", "errors", "formula", "model",
                         "record", "smt"))


def __getattr__(name: str):
    """Import the module behind ``name`` on its first read and keep the
    value in the package namespace, so later reads skip this hook."""
    if name in _HOMES:
        value = getattr(importlib.import_module("." + _HOMES[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
