"""Constraint-system representation and SMT-LIB2 emission.

The system mixes Boolean structure over three atom kinds: Boolean
variables, scheduler-choice equalities (enumerated domains, compiled to
one-hot Booleans on emission) and comparisons of linear rational
expressions.  A term that the encoder folded to a constant is Python's
``True`` or ``False``; the ``t_*`` constructors fold constants out of the
terms they build, so a constant appears only as a whole constraint.
Everything is immutable and deterministic: iteration follows
registration order, so emitted text is reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .record import Frozen, Record

ZERO = Fraction(0)
ONE = Fraction(1)


class BoolRef(Frozen):
    __slots__ = _fields = ("name",)


class ChoiceIs(Frozen):
    __slots__ = _fields = ("family", "state", "action")


class Lin(Frozen):
    """const + sum of coeff*var."""

    __slots__ = _fields = ("const", "terms")
    _defaults = {"const": ZERO, "terms": ()}


class Cmp(Frozen):
    """``left op right`` over two ``Lin``; op is one of = < <= > >=."""

    __slots__ = _fields = ("op", "left", "right")


class MulEq(Frozen):
    """result = left * right over variables; only produced, as a top-level
    constraint, by a variable-times-variable product in the source formula."""

    __slots__ = _fields = ("result", "left", "right")


class NotT(Frozen):
    __slots__ = _fields = ("operand",)


class AndT(Frozen):
    __slots__ = _fields = ("items",)


class OrT(Frozen):
    __slots__ = _fields = ("items",)


class ImpliesT(Frozen):
    __slots__ = _fields = ("antecedent", "consequent")


class XorT(Frozen):
    __slots__ = _fields = ("left", "right")


Term = object


def var(name: str) -> Lin:
    return Lin(ZERO, ((ONE, name),))


_SHARED = {0: Lin(ZERO, ()), 1: Lin(ONE, ())}  # the constants every path rule writes


def const(value) -> Lin:
    shared = _SHARED.get(value)
    return Lin(Fraction(value), ()) if shared is None else shared


def eq(left: Lin, right: Lin) -> Cmp:
    return Cmp("=", left, right)


def lin_add(left: Lin, right: Lin, factor: Fraction = ONE) -> Lin:
    """``left + factor * right``."""
    return Lin(left.const + factor * right.const, left.terms + tuple((factor * c, n) for c, n in right.terms))


def t_not(term: Term) -> Term:
    return (not term) if isinstance(term, bool) else NotT(term)


def t_and(items) -> Term:
    """The conjunction of ``items`` with their constants folded out."""
    if any(t is False for t in items):
        return False
    kept = tuple(t for t in items if t is not True)
    return AndT(kept) if kept else True


def t_or(items) -> Term:
    """The disjunction of ``items`` with their constants folded out."""
    if any(t is True for t in items):
        return True
    kept = tuple(t for t in items if t is not False)
    return OrT(kept) if kept else False


def t_implies(antecedent: Term, consequent: Term) -> Term:
    if antecedent is False or consequent is True:
        return True
    if antecedent is True:
        return consequent
    return t_not(antecedent) if consequent is False else ImpliesT(antecedent, consequent)


# -- system -------------------------------------------------------------------


class ConstraintSystem(Record):
    """Variable pool plus constraints; the output of the encoding."""

    __slots__ = _fields = ("choice_domains", "variables", "constraints", "truth", "subformula_text", "meta")
    _defaults = {"choice_domains": {}, "variables": {}, "constraints": [], "truth": None, "subformula_text": [],
                 "meta": None}
    # (family, state) -> enabled actions, in order
    choice_domains: Dict[Tuple[int, str], Tuple[str, ...]]
    # name -> kind: 'holds' | 'prob' | 'value' | 'toint' | 'dist'
    variables: Dict[str, str]
    constraints: List[Term]
    truth: Optional[Term]
    # each subformula's printable form, by its position in the plan's numbering
    subformula_text: List[str]
    # decode metadata, filled by the encoder
    meta: Optional[object]

    def declare(self, name: str, kind: str) -> str:
        existing = self.variables.get(name)
        if existing is None:
            self.variables[name] = kind
        return name

    def add(self, term: Term):
        if term is not True:
            self.constraints.append(term)

    def variable_count(self) -> int:
        one_hot = sum(len(dom) for dom in self.choice_domains.values())
        return one_hot + len(self.variables)

    def constraint_count(self) -> int:
        return len(self.constraints)


# -- evaluation ---------------------------------------------------------------


def evaluate_lin(lin: Lin, values: Dict[str, Fraction]) -> Fraction:
    acc = lin.const
    for coeff, name in lin.terms:
        acc += coeff * values[name]
    return acc


def evaluate_term(term: Term, values: Dict[str, Fraction], choices: Dict[Tuple[int, str], str]) -> bool:
    """Evaluate a term under a full assignment (used by tests and the
    eager engine's self-check)."""
    if isinstance(term, bool):
        return term
    if isinstance(term, BoolRef):
        return bool(values[term.name])
    if isinstance(term, ChoiceIs):
        return choices[(term.family, term.state)] == term.action
    if isinstance(term, Cmp):
        left = evaluate_lin(term.left, values)
        right = evaluate_lin(term.right, values)
        return {
            "=": left == right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[term.op]
    if isinstance(term, MulEq):
        return values[term.result] == values[term.left] * values[term.right]
    if isinstance(term, NotT):
        return not evaluate_term(term.operand, values, choices)
    if isinstance(term, AndT):
        return all(evaluate_term(t, values, choices) for t in term.items)
    if isinstance(term, OrT):
        return any(evaluate_term(t, values, choices) for t in term.items)
    if isinstance(term, ImpliesT):
        return (not evaluate_term(term.antecedent, values, choices)) or evaluate_term(
            term.consequent, values, choices
        )
    if isinstance(term, XorT):
        return evaluate_term(term.left, values, choices) != evaluate_term(term.right, values, choices)
    raise AssertionError(term)


def evaluate_system(cs: ConstraintSystem, values, choices) -> bool:
    return all(evaluate_term(t, values, choices) for t in cs.constraints)


# -- SMT-LIB2 emission ----------------------------------------------------------


def choice_sym(family: int, state: str, action: str) -> str:
    """``ch_<family>_<state>.<action>``: names may hold ``_`` but never ``.``."""
    return f"ch_{family}_{state}.{action}"


def _frac_sexpr(value: Fraction) -> str:
    if value < 0:
        return f"(- {_frac_sexpr(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    return f"(/ {value.numerator} {value.denominator})"


def _lin_sexpr(lin: Lin) -> str:
    parts = []
    if lin.const != 0 or not lin.terms:
        parts.append(_frac_sexpr(lin.const))
    for coeff, name in lin.terms:
        if coeff == 1:
            parts.append(name)
        else:
            parts.append(f"(* {_frac_sexpr(coeff)} {name})")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def term_sexpr(term: Term) -> str:
    return _SEXPR[type(term)](term)


def _items_sexpr(op: str, empty: str):
    """The formatter of an ``AndT`` or ``OrT``: one item stands alone."""
    def sexpr(term) -> str:
        items = term.items
        if len(items) > 1:
            return f"({op} " + " ".join(map(term_sexpr, items)) + ")"
        return term_sexpr(items[0]) if items else empty
    return sexpr


# one formatter per term type, found with one lookup
_SEXPR = {
    bool: lambda term: "true" if term else "false",
    BoolRef: attrgetter("name"),
    ChoiceIs: lambda term: choice_sym(term.family, term.state, term.action),
    Cmp: lambda term: f"({term.op} {_lin_sexpr(term.left)} {_lin_sexpr(term.right)})",
    MulEq: lambda term: f"(= {term.result} (* {term.left} {term.right}))",
    NotT: lambda term: f"(not {term_sexpr(term.operand)})",
    AndT: _items_sexpr("and", "true"),
    OrT: _items_sexpr("or", "false"),
    ImpliesT: lambda term: f"(=> {term_sexpr(term.antecedent)} {term_sexpr(term.consequent)})",
    XorT: lambda term: f"(xor {term_sexpr(term.left)} {term_sexpr(term.right)})",
}


def emit_smtlib2(cs: ConstraintSystem) -> str:
    """Deterministic SMT-LIB2 script for the system.

    Enumerated choice variables are compiled to one-hot Boolean
    selectors; distance variables are plain reals (only their ordering
    matters).
    """
    lines = []
    if cs.subformula_text:
        lines.append("; subformulas:")
        for idx, text in enumerate(cs.subformula_text):
            lines.append(f";   [{idx}] {text}")
    logic = "QF_NRA" if any(isinstance(t, MulEq) for t in cs.constraints) else "QF_LRA"
    lines.append(f"(set-logic {logic})")

    for (family, state), actions in cs.choice_domains.items():
        for action in actions:
            lines.append(f"(declare-const {choice_sym(family, state, action)} Bool)")
        for i, first in enumerate(actions):
            for second in actions[i + 1:]:
                lines.append(
                    "(assert (not (and "
                    f"{choice_sym(family, state, first)} "
                    f"{choice_sym(family, state, second)})))"
                )

    for name, kind in cs.variables.items():
        if kind == "holds":
            lines.append(f"(declare-const {name} Bool)")
        else:
            lines.append(f"(declare-const {name} Real)")
            if kind == "prob":
                lines.append(f"(assert (and (<= 0 {name}) (<= {name} 1)))")

    for term in cs.constraints:
        lines.append(f"(assert {term_sexpr(term)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
