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

Binary operators, loosest first; ``->`` associates to the right,
comparisons do not associate, the others associate to the left::

    <->    ->    |    &    ^ xor    < <= > >= = !=    + -    *

Comparisons and arithmetic take probability expressions, the Boolean
operators formulas.  Prefix ``!`` takes a comparison (``!P(X a(x)) < 1``
negates ``<``), unary minus a factor; path operands are whole formulas.

The parsed AST is fully desugared; only core constructs appear below.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from .errors import (
    FormulaSyntaxError,
    QuantifierOrderViolation,
    UnboundSchedulerVariable,
    UnboundStateVariable,
)
from .record import Frozen

# -- AST ----------------------------------------------------------------------


class SchedQuant(Frozen):
    __slots__ = _fields = ("exists", "name")


class StateQuant(Frozen):
    __slots__ = _fields = ("exists", "name", "sched")


Quantifier = Union[SchedQuant, StateQuant]


def _same_node(a, b) -> bool:
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if type(x) is not type(y) or hash(x) != hash(y):
            return False
        for u, v in zip(x._values, y._values):
            if u is v:
                continue
            if isinstance(u, Node):
                pairs.append((u, v))
            elif u != v:
                return False
    return True


class Node(Frozen):
    """An AST node, whose hash and equality do not recurse: a node's hash
    and ``height`` (nodes on its longest path down) are computed when it is
    built, from its fields', and equality walks both in a loop."""

    __slots__ = ("height",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        values, height = self._values, 0
        for v in values:  # a loop: a generator would double the cost of building a node
            if isinstance(v, Node) and v.height > height:
                height = v.height
        object.__setattr__(self, "_hash", hash(values))
        object.__setattr__(self, "height", height + 1)

    __eq__ = _same_node
    __hash__ = Frozen.__hash__


class TrueF(Node):
    __slots__ = _fields = ()


class Prop(Node):
    __slots__ = _fields = ("name", "var")


class And(Node):
    __slots__ = _fields = ("left", "right")


class NotF(Node):
    __slots__ = _fields = ("operand",)


class Less(Node):
    __slots__ = _fields = ("left", "right")


BODY_KINDS = (TrueF, Prop, And, NotF, Less)
Body = Union[BODY_KINDS]


class Const(Node):
    __slots__ = _fields = ("value",)


class ProbOf(Node):
    __slots__ = _fields = ("path",)


class Arith(Node):
    """``left op right``; op is one of + - *."""

    __slots__ = _fields = ("op", "left", "right")


PExpr = Union[Const, ProbOf, Arith]
ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class Next(Node):
    __slots__ = _fields = ("operand",)


class Until(Node):
    __slots__ = _fields = ("left", "right")


class BoundedUntil(Node):
    __slots__ = _fields = ("left", "right", "k1", "k2")


Path = Union[Next, Until, BoundedUntil]

TRUE = TrueF()


class Formula(Frozen):
    """Quantifier prefix (in source order) over a desugared body."""

    __slots__ = _fields = ("prefix", "body")


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


class Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'kw' | 'eof'
    text: str
    offset: int  # into the formula text; line and column are found only on error


def _syntax_error(text: str, offset: int, message: str) -> FormulaSyntaxError:
    """The error at ``offset`` of ``text``, at its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise _syntax_error(text, pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            value = m.group()
            tokens.append(Token("kw" if kind == "name" and value in _KEYWORDS else kind, value, pos))
        pos = m.end()
    tokens.append(Token("eof", "", pos))
    return tokens


# The binary operators of the docstring's table: token -> (precedence, builder).
_CMP = 6  # operands below it are formulas, from it up probability expressions
_BINARY = {
    "<->": (1, f_iff),
    "->": (2, f_implies),
    "|": (3, f_or),
    "&": (4, And),
    "^": (5, f_xor), "xor": (5, f_xor),
    "<": (_CMP, Less), ">": (_CMP, lambda a, b: Less(b, a)),
    "<=": (_CMP, cmp_le), ">=": (_CMP, lambda a, b: cmp_le(b, a)),
    "=": (_CMP, cmp_eq), "!=": (_CMP, lambda a, b: NotF(cmp_eq(a, b))),
    "+": (7, lambda a, b: Arith("+", a, b)), "-": (7, lambda a, b: Arith("-", a, b)),
    "*": (8, lambda a, b: Arith("*", a, b)),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        raise _syntax_error(self.text, self.peek().offset, message)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {self.peek().text!r}")
        return tok

    # -- grammar ---------------------------------------------------------

    def parse_formula(self) -> Formula:
        prefix = []
        while self.peek().text in ("forall", "exists") and self.tokens[self.pos + 1].text in ("sched", "st"):
            exists = self.advance().text == "exists"
            kind = self.advance().text
            name = self.expect("name").text
            if kind == "sched":
                prefix.append(SchedQuant(exists, name))
            else:
                self.expect("op", "(")
                prefix.append(StateQuant(exists, name, self.expect("name").text))
                self.expect("op", ")")
            self.expect("op", ".")
        body = self.parse_body()
        if self.peek().kind != "eof":
            self.error(f"trailing input {self.peek().text!r}")
        return Formula(prefix=tuple(prefix), body=body)

    def parse_body(self, floor: int = 0) -> Body:
        body = self.parse_expr(floor)
        if not isinstance(body, BODY_KINDS):
            self.error("expected comparison operator")
        return body

    def parse_expr(self, floor: int = 0, pexpr: bool = False):
        """An operand, then the binary operators of precedence ``floor`` or
        tighter; with ``pexpr`` only ``+ - *``, so the result is a
        probability expression."""
        left = self.parse_operand(pexpr)
        while True:
            prec, build = _BINARY.get(self.peek().text, (-1, None))
            if prec < floor or (pexpr and prec <= _CMP):
                return left
            if isinstance(left, BODY_KINDS):
                if prec >= _CMP:
                    return left  # a formula is no operand here; the caller reports
            elif prec < _CMP:
                self.error("expected comparison operator")
            op = self.advance().text
            if prec < _CMP:
                right = self.parse_body(prec if op == "->" else prec + 1)
            else:
                right = self.parse_expr(prec + 1, pexpr=True)
            left = build(left, right)

    def parse_operand(self, pexpr: bool):
        """One operand: a run of ``!`` over a comparison or of unary minus
        (``0 - x``) over a factor, a constant, ``P(path)``, a parenthesized
        expression, or, unless ``pexpr``, ``true``, ``false`` or a
        proposition."""
        op = self.peek().text
        if op == "-" or (op == "!" and not pexpr):
            count = 0
            while self.accept("op", op):
                count += 1
            node = self.parse_body(_CMP) if op == "!" else self.parse_operand(pexpr=True)
            for _ in range(count):
                node = NotF(node) if op == "!" else Arith("-", Const(Fraction(0)), node)
            return node
        num = self.accept("number")
        if num is not None:
            try:
                return Const(Fraction(num.text))
            except ZeroDivisionError:
                self.error("zero denominator in constant")
        if self.accept("kw", "P"):
            self.expect("op", "(")
            path_expr = self.parse_path()
            self.expect("op", ")")
            return path_expr
        if self.accept("op", "("):
            inner = self.parse_expr(pexpr=pexpr)
            self.expect("op", ")")
            return inner
        if not pexpr:
            if self.accept("kw", "true"):
                return TRUE
            if self.accept("kw", "false"):
                return FALSE
            name = self.accept("name")
            if name is not None:
                self.expect("op", "(")
                var = self.expect("name").text
                self.expect("op", ")")
                return Prop(name.text, var)
        want = "probability expression" if pexpr else "formula"
        self.error(f"expected {want}, found {self.peek().text!r}")

    def parse_int(self) -> int:
        tok = self.expect("number")
        if not tok.text.isdigit():
            self.error(f"expected a nonnegative integer, found {tok.text!r}")
        return int(tok.text)

    def parse_bounds(self) -> Optional[Tuple[int, int]]:
        if self.accept("op", "["):
            k1 = self.parse_int()
            self.expect("op", ",")
            k2 = self.parse_int()
            self.expect("op", "]")
            if k1 > k2:
                self.error(f"bounds [{k1},{k2}] need k1 <= k2")
            return (k1, k2)
        if self.accept("op", "<="):
            return (0, self.parse_int())
        return None

    def parse_path(self) -> PExpr:
        """Parse a path formula inside P(...); sugar folds into PExpr."""
        if self.accept("kw", "X"):
            return ProbOf(Next(self.parse_body()))
        globally = self.accept("kw", "G") is not None
        if globally or self.accept("kw", "F"):
            left = TRUE  # P(F phi) = P(true U phi); P(G phi) = 1 - P(F !phi)
        else:
            left = self.parse_body()
            self.expect("kw", "U")
        bounds = self.parse_bounds()
        right = NotF(self.parse_body()) if globally else self.parse_body()
        reach = ProbOf(Until(left, right) if bounds is None else BoundedUntil(left, right, *bounds))
        return Arith("-", Const(Fraction(1)), reach) if globally else reach


# Compiling, encoding and printing recurse once per level of a formula; this
# bound leaves some 300 frames of the default recursion limit to the caller.
MAX_HEIGHT = 700


def parse_formula(text: str) -> Formula:
    """Parse formula text into a desugared AST."""
    parser = _Parser(text)
    try:
        f = parser.parse_formula()
    except RecursionError:
        parser.error("formula nested too deeply")
    if f.body.height > MAX_HEIGHT:
        parser.error(f"formula nested too deeply ({f.body.height} levels, at most {MAX_HEIGHT})")
    return f


# -- well-formedness -------------------------------------------------------------


def subformulas(node):
    """``node`` and every node below it, each node object once (desugaring
    shares subtrees), in a loop, so any depth is walked."""
    stack, seen = [node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(v for v in node._values if isinstance(v, Node))


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
    values = []  # a loop, not a generator: one frame per level of ``node``
    for value in node._values:
        values.append(rename_vars(value, names) if isinstance(value, Node) else value)
    return type(node)(*values)


def body_propositions(body: Body) -> set:
    """All proposition names used in a body."""
    return {node.name for node in subformulas(body) if isinstance(node, Prop)}


# -- printing ---------------------------------------------------------------------


def format_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_node(node, operand=None) -> str:
    """A body, probability expression or path node, each operand printed by
    ``operand``: by default in full, so that reparsing yields an equal AST."""
    sub = operand or format_node
    if isinstance(node, TrueF):
        return "true"
    if isinstance(node, Prop):
        return f"{node.name}({node.var})"
    if isinstance(node, Const):
        return format_const(node.value)
    if isinstance(node, NotF):
        return f"!{sub(node.operand)}"
    if isinstance(node, ProbOf):
        return f"P({format_node(node.path, sub)})"
    if isinstance(node, Next):
        return f"X {sub(node.operand)}"
    if isinstance(node, (Until, BoundedUntil)):
        bounds = f"[{node.k1},{node.k2}]" if isinstance(node, BoundedUntil) else ""
        return f"{sub(node.left)} U{bounds} {sub(node.right)}"
    op = "&" if isinstance(node, And) else "<" if isinstance(node, Less) else node.op
    return f"({sub(node.left)} {op} {sub(node.right)})"


def format_formula(f: Formula) -> str:
    """Sugar-free rendering; reparsing yields an equal AST."""
    parts = []
    for q in f.prefix:
        word = "exists" if q.exists else "forall"
        if isinstance(q, SchedQuant):
            parts.append(f"{word} sched {q.name}.")
        else:
            parts.append(f"{word} st {q.name}({q.sched}).")
    parts.append(format_node(f.body))
    return " ".join(parts)
