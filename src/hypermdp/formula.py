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
``operands`` is its one child relation.  A bounded until's reduced-bound
windows are no subformulas here: only ``smt``'s encoding has them.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Optional, Tuple, Union

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
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = tuple(self._complete(args, kwargs))
        height = i = 0
        for v in args:  # one pass, in a loop: a generator would double the cost of building a node
            setters[i](self, v)
            i += 1
            if isinstance(v, Node) and v.height > height:
                height = v.height
        _set_hash(self, hash(args))  # the slots' own setters, which the frozen __setattr__ does not guard
        _set_height(self, height + 1)

    __eq__ = _same_node
    __hash__ = Frozen.__hash__


_set_hash, _set_height = Frozen._hash.__set__, Node.height.__set__


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

# One scan over the text: white space is what no group matches, so the scan
# skips it; every other character starts a match, and the last group takes
# any that starts no token or comment, which the scan reports as unexpected
# at its line and column.
_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:=[A-Za-z0-9_]+)?)
  | (?P<op><->|->|<=|>=|!=|[().,\[\]<>=+*&|!^-])
  | (?P<unexpected>\S)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "sched", "st", "true", "false", "P", "X", "U", "F", "G", "xor"}


def _syntax_error(text: str, offset: int, message: str) -> FormulaSyntaxError:
    """The error at ``offset`` of ``text``, at its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str):
    """The (kind, text, offset) of each token, kind one of 'number', 'name',
    'op', 'kw' and, last, 'eof'; line and column are found only on error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "comment":
            value = m.group()
            if kind == "unexpected":
                raise _syntax_error(text, m.start(), f"unexpected character {value!r}")
            tokens.append(("kw" if kind == "name" and value in _KEYWORDS else kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
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
    """Recursive descent over the tokens' kinds, texts and offsets, at
    ``pos``; a keyword or operator token is known by its text alone."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.offsets = zip(*_tokenize(text))
        self.pos = 0

    def error(self, message: str):
        raise _syntax_error(self.text, self.offsets[self.pos], message)

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.error(f"expected {text!r}, found {self.texts[self.pos]!r}")
        self.pos += 1

    def expect_kind(self, kind: str) -> str:
        """The text of the next token, which must be a 'name' or 'number'."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.error(f"expected {kind!r}, found {self.texts[pos]!r}")
        self.pos = pos + 1
        return self.texts[pos]

    # -- grammar ---------------------------------------------------------

    def parse_formula(self) -> Formula:
        prefix = []
        texts = self.texts
        while texts[self.pos] in ("forall", "exists") and texts[self.pos + 1] in ("sched", "st"):
            exists = texts[self.pos] == "exists"
            kind = texts[self.pos + 1]
            self.pos += 2
            name = self.expect_kind("name")
            if kind == "sched":
                prefix.append(SchedQuant(exists, name))
            else:
                prefix.append(StateQuant(exists, name, self.parse_var()))
            self.expect(".")
        body = self.parse_body()
        if self.kinds[self.pos] != "eof":
            self.error(f"trailing input {texts[self.pos]!r}")
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
        texts = self.texts
        while True:
            op = texts[self.pos]
            prec, build = _BINARY.get(op, (-1, None))
            if prec < floor or (pexpr and prec <= _CMP):
                return left
            if isinstance(left, BODY_KINDS):
                if prec >= _CMP:
                    return left  # a formula is no operand here; the caller reports
            elif prec < _CMP:
                self.error("expected comparison operator")
            self.pos += 1
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
        pos = self.pos
        text = self.texts[pos]
        if text == "-" or (text == "!" and not pexpr):
            texts, end = self.texts, pos + 1
            while texts[end] == text:
                end += 1
            self.pos = end
            node = self.parse_body(_CMP) if text == "!" else self.parse_operand(pexpr=True)
            for _ in range(end - pos):
                node = NotF(node) if text == "!" else Arith("-", Const(Fraction(0)), node)
            return node
        kind = self.kinds[pos]
        self.pos = pos + 1  # taken, unless the last line reports it
        if kind == "number":
            try:
                return Const(Fraction(text))
            except ZeroDivisionError:
                self.error("zero denominator in constant")
        if text == "P":
            self.expect("(")
            path_expr = self.parse_path()
            self.expect(")")
            return path_expr
        if text == "(":
            inner = self.parse_expr(pexpr=pexpr)
            self.expect(")")
            return inner
        if not pexpr:
            if text == "true":
                return TRUE
            if text == "false":
                return FALSE
            if kind == "name":
                return Prop(text, self.parse_var())
        self.pos = pos
        want = "probability expression" if pexpr else "formula"
        self.error(f"expected {want}, found {text!r}")

    def parse_var(self) -> str:
        """``( name )``: a state quantifier's scheduler, a proposition's state."""
        self.expect("(")
        name = self.expect_kind("name")
        self.expect(")")
        return name

    def parse_int(self) -> int:
        text = self.expect_kind("number")
        if not text.isdigit():
            self.error(f"expected a nonnegative integer, found {text!r}")
        return int(text)

    def parse_bounds(self) -> Optional[Tuple[int, int]]:
        text = self.texts[self.pos]
        if text == "[":
            self.pos += 1
            k1 = self.parse_int()
            self.expect(",")
            k2 = self.parse_int()
            self.expect("]")
            if k1 > k2:
                self.error(f"bounds [{k1},{k2}] need k1 <= k2")
            return (k1, k2)
        if text == "<=":
            self.pos += 1
            return (0, self.parse_int())
        return None

    def parse_path(self) -> PExpr:
        """Parse a path formula inside P(...); sugar folds into PExpr."""
        word = self.texts[self.pos]
        if word == "X":
            self.pos += 1
            return ProbOf(Next(self.parse_body()))
        if word == "F" or word == "G":
            self.pos += 1
            left = TRUE  # P(F phi) = P(true U phi); P(G phi) = 1 - P(F !phi)
        else:
            left = self.parse_body()
            self.expect("U")
        bounds = self.parse_bounds()
        right = NotF(self.parse_body()) if word == "G" else self.parse_body()
        reach = ProbOf(Until(left, right) if bounds is None else BoundedUntil(left, right, *bounds))
        return Arith("-", Const(Fraction(1)), reach) if word == "G" else reach


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


def operands(node) -> tuple:
    """The subformulas directly below ``node``: a ``P(...)``'s path operands.
    The one child relation of the AST, which every walk of it follows."""
    if isinstance(node, NotF):
        return (node.operand,)
    if isinstance(node, (And, Less, Arith)):
        return node.left, node.right
    if not isinstance(node, ProbOf):
        return ()
    return (node.path.operand,) if isinstance(node.path, Next) else (node.path.left, node.path.right)


def subformulas(node):
    """``node`` and every subformula below it (``operands``), each node object
    once (desugaring shares subtrees), in a loop, so any depth is walked."""
    stack, seen = [node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(operands(node))


def check_well_formed(f: Formula) -> set:
    """Scheduler-then-state prefix order, binding of every variable use.
    Returns the body's propositions, found by the same walk."""
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
    props = {node for node in subformulas(f.body) if isinstance(node, Prop)}
    for var in sorted({node.var for node in props}):
        if var not in state_vars:
            raise UnboundStateVariable(f"state variable {var!r} is not bound")
    return props


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


def subformula_supports(body, var_index: dict) -> dict:
    """Every subformula of ``body``, with its support: the sorted 0-based
    composition components its state variables map to.

    A proposition on x has support (x,); every other node takes the union
    of its ``operands``', so ``true`` and constants have the empty one.
    The dict lists a node before its operands, the left one first; the
    encoder's table (``smt.encoding_supports``) adds the windows.
    """
    support = {}

    def visit(node) -> Tuple[int, ...]:
        if node in support:
            return support[node]
        support[node] = ()  # holds the node's place in registration order
        if isinstance(node, Prop):
            result = (var_index[node.var] - 1,)
        else:
            result = ()
            for below in map(visit, operands(node)):
                if below and below != result:
                    result = tuple(sorted({*result, *below})) if result else below
        support[node] = result
        return result

    visit(body)
    del visit  # empties the cell through which visit calls itself: no reference cycle
    return support


def substitute(node, replacements: dict):
    """``node`` with each subformula in ``replacements`` replaced by its value.  Those
    met enter it, so a shared one is rebuilt once, and one left whole is not rebuilt."""
    if node in replacements:
        return replacements[node]
    values = []  # a loop, not a generator: one frame per level of ``node``
    for value in node._values:
        values.append(substitute(value, replacements) if isinstance(value, Node) else value)
    replacements[node] = node if all(map(operator.is_, values, node._values)) else type(node)(*values)
    return replacements[node]


def interned_key(node, names: dict, table: dict) -> int:
    """An int that names ``node`` up to the operand order of ``&``, ``+``
    and ``*``, each state variable ``v`` read as ``names.get(v, v)``.

    ``table`` interns one key per distinct (kind, non-node fields, operand
    keys) tuple, the operand keys sorted at those three kinds, so nodes keyed
    through one table are equal that way iff their keys are.  One post-order
    loop over the shared subtrees, each keyed once, so any depth is walked."""
    keys = {}  # id of a node -> its key
    stack = [(node, None)]
    while stack:
        top, values = stack.pop()
        if values is None:  # first met: read its fields, come back once its operands are keyed
            if id(top) not in keys:
                values = top._values
                stack.append((top, values))
                for v in values:
                    if isinstance(v, Node) and id(v) not in keys:
                        stack.append((v, None))
            continue
        kind = type(top)
        if kind is Prop:
            fields = (top.name, names.get(top.var, top.var))
        else:
            fields = tuple([keys[id(v)] if isinstance(v, Node) else v for v in values])
            if kind is And or (kind is Arith and top.op != "-"):
                *head, left, right = fields
                fields = (*head, left, right) if left <= right else (*head, right, left)
        keys[id(top)] = table.setdefault((kind, fields), len(table))
    return keys[id(node)]


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
