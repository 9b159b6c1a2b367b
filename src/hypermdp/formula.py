"""HyperPCTL concrete syntax, AST, desugaring and well-formedness.

Concrete syntax (ASCII)::

    forall sched s. exists st x(s). P(F a(x)) = 1

Quantifier prefix: ``forall|exists sched <id> .`` then
``forall|exists st <id>(<sched-id>) .``.  Propositions are written
``name(statevar)``; proposition names may carry one ``=`` segment
(``die=3``, ``j=0``).  Path operators: ``X``, ``U``, ``U[k1,k2]``,
``U<=k``; sugar ``F``, ``G`` with optional bounds.  Probability
expressions: ``P(<path>)``, rational/decimal constants, ``+ - *`` and
unary minus.  Boolean sugar ``false |, ->, <->, xor`` and comparison
sugar ``<= >= > = !=`` all desugar into the core ``true``, propositions,
``&``, ``!`` and ``<``.  ``P``, ``X``, ``U``, ``F``, ``G``, ``true``,
``false`` and the quantifier keywords are reserved.

The parsed AST is fully desugared; only core constructs appear below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (
    FormulaSyntaxError,
    QuantifierOrderViolation,
    UnboundSchedulerVariable,
    UnboundStateVariable,
)

# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchedQuant:
    exists: bool
    name: str


@dataclass(frozen=True)
class StateQuant:
    exists: bool
    name: str
    sched: str


Quantifier = Union[SchedQuant, StateQuant]


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class Prop:
    name: str
    var: str


@dataclass(frozen=True)
class And:
    left: "Body"
    right: "Body"


@dataclass(frozen=True)
class NotF:
    operand: "Body"


@dataclass(frozen=True)
class Less:
    left: "PExpr"
    right: "PExpr"


Body = Union[TrueF, Prop, And, NotF, Less]


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class ProbOf:
    path: "Path"


@dataclass(frozen=True)
class Arith:
    op: str  # '+', '-', '*'
    left: "PExpr"
    right: "PExpr"


PExpr = Union[Const, ProbOf, Arith]


@dataclass(frozen=True)
class Next:
    operand: Body


@dataclass(frozen=True)
class Until:
    left: Body
    right: Body


@dataclass(frozen=True)
class BoundedUntil:
    left: Body
    right: Body
    k1: int
    k2: int


Path = Union[Next, Until, BoundedUntil]

TRUE = TrueF()


@dataclass(frozen=True)
class Formula:
    """Quantifier prefix (in source order) over a desugared body."""

    prefix: Tuple[Quantifier, ...]
    body: Body


# -- desugaring helpers --------------------------------------------------------

def f_or(a: Body, b: Body) -> Body:
    return NotF(And(NotF(a), NotF(b)))


def f_implies(a: Body, b: Body) -> Body:
    return f_or(NotF(a), b)


def f_iff(a: Body, b: Body) -> Body:
    return And(f_implies(a, b), f_implies(b, a))


def f_xor(a: Body, b: Body) -> Body:
    return NotF(f_iff(a, b))


FALSE = NotF(TRUE)


def cmp_eq(a: PExpr, b: PExpr) -> Body:
    return NotF(f_or(Less(a, b), Less(b, a)))


def cmp_le(a: PExpr, b: PExpr) -> Body:
    return f_or(Less(a, b), cmp_eq(a, b))


def desugar_cmp(op: str, a: PExpr, b: PExpr) -> Body:
    if op == "<":
        return Less(a, b)
    if op == ">":
        return Less(b, a)
    if op == "=":
        return cmp_eq(a, b)
    if op == "!=":
        return NotF(cmp_eq(a, b))
    if op == "<=":
        return cmp_le(a, b)
    if op == ">=":
        return cmp_le(b, a)
    raise AssertionError(op)


# -- tokenizer ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:=[A-Za-z0-9_]+)?)
  | (?P<op><->|->|<=|>=|!=|[().,\[\]<>=+*&|!^-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "sched", "st", "true", "false", "P", "X", "U", "F", "G", "xor"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            if kind == "name" and value in _KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Backtrack(Exception):
    """Internal: comparison attempt failed, retry as Boolean."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # deepest failure, for error messages after backtracking
        self.far_pos = 0
        self.far_msg = "syntax error"

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, soft: bool = False):
        tok = self.peek()
        if self.pos >= self.far_pos:
            self.far_pos = self.pos
            self.far_msg = message
        if soft:
            raise _Backtrack()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    def fail_far(self):
        tok = self.tokens[self.far_pos]
        raise FormulaSyntaxError(self.far_msg, tok.line, tok.col)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None, soft: bool = False) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {self.peek().text!r}", soft=soft)
        return tok

    # -- grammar ---------------------------------------------------------

    def parse_formula(self) -> Formula:
        prefix = []
        while True:
            tok = self.peek()
            if tok.kind == "kw" and tok.text in ("forall", "exists"):
                nxt = self.tokens[self.pos + 1]
                if nxt.kind != "kw" or nxt.text not in ("sched", "st"):
                    break  # quantifier keyword used elsewhere is a syntax error later
                self.advance()
                exists = tok.text == "exists"
                kind = self.advance().text
                name = self.expect("name").text
                if kind == "sched":
                    prefix.append(SchedQuant(exists, name))
                else:
                    self.expect("op", "(")
                    sched = self.expect("name").text
                    self.expect("op", ")")
                    prefix.append(StateQuant(exists, name, sched))
                self.expect("op", ".")
            else:
                break
        body = self.parse_body()
        if self.peek().kind != "eof":
            self.error(f"trailing input {self.peek().text!r}")
        return Formula(prefix=tuple(prefix), body=body)

    def parse_body(self, soft: bool = False) -> Body:
        return self.parse_iff(soft)

    def parse_iff(self, soft: bool = False) -> Body:
        left = self.parse_implies(soft)
        while self.accept("op", "<->"):
            right = self.parse_implies(soft)
            left = f_iff(left, right)
        return left

    def parse_implies(self, soft: bool = False) -> Body:
        left = self.parse_or(soft)
        if self.accept("op", "->"):
            right = self.parse_implies(soft)  # right associative
            return f_implies(left, right)
        return left

    def parse_or(self, soft: bool = False) -> Body:
        left = self.parse_and(soft)
        while self.accept("op", "|"):
            left = f_or(left, self.parse_and(soft))
        return left

    def parse_and(self, soft: bool = False) -> Body:
        left = self.parse_xor(soft)
        while self.accept("op", "&"):
            left = And(left, self.parse_xor(soft))
        return left

    def parse_xor(self, soft: bool = False) -> Body:
        left = self.parse_unary(soft)
        while self.accept("op", "^") or self.accept("kw", "xor"):
            left = f_xor(left, self.parse_unary(soft))
        return left

    def parse_unary(self, soft: bool = False) -> Body:
        if self.accept("op", "!"):
            return NotF(self.parse_unary(soft))
        return self.parse_atom(soft)

    def parse_atom(self, soft: bool = False) -> Body:
        # Comparison of probability expressions first; on failure fall back
        # to the Boolean alternatives from the same position.
        save = self.pos
        try:
            left = self.parse_pexpr(soft=True)
            op_tok = self.peek()
            if op_tok.kind == "op" and op_tok.text in ("<", "<=", ">", ">=", "=", "!="):
                self.advance()
                right = self.parse_pexpr(soft=True)
                return desugar_cmp(op_tok.text, left, right)
            self.error("expected comparison operator", soft=True)
        except _Backtrack:
            self.pos = save

        if self.accept("kw", "true"):
            return TRUE
        if self.accept("kw", "false"):
            return FALSE
        if self.accept("op", "("):
            inner = self.parse_body(soft)
            self.expect("op", ")", soft=soft)
            return inner
        name = self.accept("name")
        if name is not None:
            self.expect("op", "(", soft=soft)
            var = self.expect("name", soft=soft).text
            self.expect("op", ")", soft=soft)
            return Prop(name.text, var)
        if not soft and self.far_pos > self.pos:
            self.fail_far()  # deepest diagnostic from the comparison attempt
        self.error(f"expected formula, found {self.peek().text!r}", soft=soft)

    # probability expressions --------------------------------------------

    def parse_pexpr(self, soft: bool = False) -> PExpr:
        left = self.parse_term(soft)
        while True:
            if self.accept("op", "+"):
                left = Arith("+", left, self.parse_term(soft))
            elif self.accept("op", "-"):
                left = Arith("-", left, self.parse_term(soft))
            else:
                return left

    def parse_term(self, soft: bool = False) -> PExpr:
        left = self.parse_factor(soft)
        while self.accept("op", "*"):
            left = Arith("*", left, self.parse_factor(soft))
        return left

    def parse_factor(self, soft: bool = False) -> PExpr:
        if self.accept("op", "-"):
            # unary minus is represented as 0 - x
            return Arith("-", Const(Fraction(0)), self.parse_factor(soft))
        num = self.accept("number")
        if num is not None:
            try:
                return Const(Fraction(num.text))
            except ZeroDivisionError:
                self.error("zero denominator in constant", soft=soft)
        if self.accept("kw", "P"):
            self.expect("op", "(", soft=soft)
            path_expr = self.parse_path(soft)
            self.expect("op", ")", soft=soft)
            return path_expr
        if self.accept("op", "("):
            inner = self.parse_pexpr(soft)
            self.expect("op", ")", soft=soft)
            return inner
        self.error(f"expected probability expression, found {self.peek().text!r}", soft=soft)

    def parse_int(self, soft: bool) -> int:
        tok = self.expect("number", soft=soft)
        if not tok.text.isdigit():
            self.error(f"expected a nonnegative integer, found {tok.text!r}", soft=soft)
        return int(tok.text)

    def parse_bounds(self, soft: bool) -> Optional[Tuple[int, int]]:
        if self.accept("op", "["):
            k1 = self.parse_int(soft)
            self.expect("op", ",", soft=soft)
            k2 = self.parse_int(soft)
            self.expect("op", "]", soft=soft)
            if k1 > k2:
                self.error(f"bounds [{k1},{k2}] need k1 <= k2", soft=soft)
            return (k1, k2)
        if self.accept("op", "<="):
            return (0, self.parse_int(soft))
        return None

    def parse_path(self, soft: bool = False) -> PExpr:
        """Parse a path formula inside P(...); sugar folds into PExpr."""
        if self.accept("kw", "X"):
            return ProbOf(Next(self.parse_body(soft)))
        if self.accept("kw", "F"):
            bounds = self.parse_bounds(soft)
            operand = self.parse_body(soft)
            if bounds is None:
                return ProbOf(Until(TRUE, operand))
            return ProbOf(BoundedUntil(TRUE, operand, *bounds))
        if self.accept("kw", "G"):
            # P(G phi) = 1 - P(F !phi), also with bounds
            bounds = self.parse_bounds(soft)
            operand = self.parse_body(soft)
            if bounds is None:
                inner = ProbOf(Until(TRUE, NotF(operand)))
            else:
                inner = ProbOf(BoundedUntil(TRUE, NotF(operand), *bounds))
            return Arith("-", Const(Fraction(1)), inner)
        left = self.parse_body(soft)
        self.expect("kw", "U", soft=soft)
        bounds = self.parse_bounds(soft)
        right = self.parse_body(soft)
        if bounds is None:
            return ProbOf(Until(left, right))
        return ProbOf(BoundedUntil(left, right, *bounds))


def parse_formula(text: str) -> Formula:
    """Parse formula text into a desugared AST."""
    parser = _Parser(text)
    try:
        return parser.parse_formula()
    except _Backtrack:
        parser.fail_far()


def load_formula(path) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read())


# -- well-formedness -------------------------------------------------------------


def subformulas(node):
    """``node`` and every node below it, operands first."""
    for fld in fields(node):
        value = getattr(node, fld.name)
        if is_dataclass(value):
            yield from subformulas(value)
    yield node


def check_well_formed(f: Formula) -> None:
    """Scheduler-then-state prefix order, binding of every variable use."""
    all_sched = {q.name for q in f.prefix if isinstance(q, SchedQuant)}
    sched_vars = []
    state_vars = []
    state_seen = False
    for q in f.prefix:
        if isinstance(q, SchedQuant):
            if state_seen:
                raise QuantifierOrderViolation(
                    f"scheduler quantifier {q.name!r} after a state quantifier"
                )
            if q.name in sched_vars:
                raise UnboundSchedulerVariable(f"scheduler variable {q.name!r} bound twice")
            sched_vars.append(q.name)
        else:
            state_seen = True
            if q.sched not in sched_vars:
                if q.sched in all_sched:
                    raise QuantifierOrderViolation(
                        f"state quantifier {q.name!r} precedes its scheduler quantifier {q.sched!r}"
                    )
                raise UnboundSchedulerVariable(
                    f"state quantifier {q.name!r} uses unbound scheduler variable {q.sched!r}"
                )
            if q.name in state_vars:
                raise UnboundStateVariable(f"state variable {q.name!r} bound twice")
            state_vars.append(q.name)
    used = {node.var for node in subformulas(f.body) if isinstance(node, Prop)}
    for var in sorted(used):
        if var not in state_vars:
            raise UnboundStateVariable(f"state variable {var!r} is not bound")


def count_quantifiers(f: Formula) -> Tuple[int, int]:
    m = sum(1 for q in f.prefix if isinstance(q, SchedQuant))
    n = len(f.prefix) - m
    return (m, n)


def state_var_index(f: Formula) -> dict:
    """Map state-variable name -> 1-based composition component index."""
    index = {}
    for q in f.prefix:
        if isinstance(q, StateQuant):
            index[q.name] = len(index) + 1
    return index


def reduced_windows(node: ProbOf):
    """The reduced-bound windows below a bounded until ``[k1,k2]``, which
    its encoding steps through, outermost first:
    ``[max(k1-1,0), k2-1]``, ..., ``[0,0]``."""
    path = node.path
    k1, k2 = path.k1, path.k2
    while k2 > 0:
        k1, k2 = max(k1 - 1, 0), k2 - 1
        yield ProbOf(BoundedUntil(path.left, path.right, k1, k2))


def subformula_supports(body, var_index: dict) -> dict:
    """Every subformula, with its support: the sorted 0-based composition
    components its state variables map to.

    A proposition on x has support (x,); ``true`` and constants have the
    empty one; every other node takes the union of its operands'.  The
    dict's order is the registration order of the encoding: a node comes
    before its operands, and a bounded until before its reduced-bound
    windows, which are walked in a loop so that a deep bound does not
    recurse.
    """
    support = {}

    def visit(node) -> Tuple[int, ...]:
        if node in support:
            return support[node]
        support[node] = ()  # holds the node's place in registration order
        if isinstance(node, Prop):
            result = (var_index[node.var] - 1,)
        elif isinstance(node, (TrueF, Const)):
            result = ()
        elif isinstance(node, NotF):
            result = visit(node.operand)
        elif isinstance(node, (And, Less, Arith)):
            result = tuple(sorted(set(visit(node.left)) | set(visit(node.right))))
        elif isinstance(node.path, Next):
            result = visit(node.path.operand)
        else:
            windows = []
            if isinstance(node.path, BoundedUntil):
                for window in reduced_windows(node):
                    if window in support:
                        break
                    support[window] = ()
                    windows.append(window)
            result = tuple(sorted(set(visit(node.path.left)) | set(visit(node.path.right))))
            for window in windows:
                support[window] = result
        support[node] = result
        return result

    visit(body)
    return support


def rename_vars(node, names: dict):
    """``node`` with every state variable ``v`` replaced by ``names[v]``."""
    if isinstance(node, Prop):
        return Prop(node.name, names[node.var])
    return type(node)(*(
        rename_vars(value, names) if is_dataclass(value) else value
        for value in (getattr(node, fld.name) for fld in fields(node))
    ))


def body_propositions(body: Body) -> set:
    """All proposition names used in a body."""
    return {node.name for node in subformulas(body) if isinstance(node, Prop)}


# -- printing ---------------------------------------------------------------------


def format_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_body(body: Body) -> str:
    if isinstance(body, TrueF):
        return "true"
    if isinstance(body, Prop):
        return f"{body.name}({body.var})"
    if isinstance(body, And):
        return f"({format_body(body.left)} & {format_body(body.right)})"
    if isinstance(body, NotF):
        return f"!{format_body(body.operand)}"
    if isinstance(body, Less):
        return f"({format_pexpr(body.left)} < {format_pexpr(body.right)})"
    raise AssertionError(body)


def format_pexpr(p: PExpr) -> str:
    if isinstance(p, Const):
        return format_const(p.value)
    if isinstance(p, Arith):
        return f"({format_pexpr(p.left)} {p.op} {format_pexpr(p.right)})"
    if isinstance(p, ProbOf):
        return f"P({format_path(p.path)})"
    raise AssertionError(p)


def format_path(path: Path) -> str:
    if isinstance(path, Next):
        return f"X {format_body(path.operand)}"
    if isinstance(path, Until):
        return f"{format_body(path.left)} U {format_body(path.right)}"
    if isinstance(path, BoundedUntil):
        return f"{format_body(path.left)} U[{path.k1},{path.k2}] {format_body(path.right)}"
    raise AssertionError(path)


def format_formula(f: Formula) -> str:
    """Sugar-free rendering; reparsing yields an equal AST."""
    parts = []
    for q in f.prefix:
        word = "exists" if q.exists else "forall"
        if isinstance(q, SchedQuant):
            parts.append(f"{word} sched {q.name}.")
        else:
            parts.append(f"{word} st {q.name}({q.sched}).")
    parts.append(format_body(f.body))
    return " ".join(parts)
