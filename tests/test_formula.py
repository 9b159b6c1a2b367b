import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermdp.cases import generate
from hypermdp.errors import (
    FormulaSyntaxError,
    QuantifierOrderViolation,
    UnboundSchedulerVariable,
    UnboundStateVariable,
)
from hypermdp.formula import (
    FALSE,
    MAX_HEIGHT,
    And,
    Arith,
    BoundedUntil,
    Const,
    Formula,
    Less,
    Next,
    NotF,
    ProbOf,
    Prop,
    SchedQuant,
    StateQuant,
    TrueF,
    Until,
    check_well_formed,
    cmp_eq,
    cmp_le,
    count_quantifiers,
    f_iff,
    f_implies,
    f_or,
    f_xor,
    format_formula,
    parse_formula,
    subformulas,
)
from .helpers import random_formula, scope_check

TRUE = TrueF()
QE = "exists sched s. exists st x(s). "
_TOKEN = re.compile(r"<->|->|<=|>=|!=|\d+(?:/\d+|\.\d+)?|\w+(?:=\w+)?|\S")


class TestParse:
    def test_reach_equality(self):
        f = parse_formula("forall sched s. forall st x(s). P(F a(x)) = 1")
        assert f.prefix == (SchedQuant(False, "s"), StateQuant(False, "x", "s"))
        reach = ProbOf(Until(TRUE, Prop("a", "x")))
        assert f.body == cmp_eq(reach, Const(Fraction(1)))

    def test_globally_is_one_minus_reach_of_negation(self):
        f = parse_formula("forall sched s. forall st x(s). P(G a(x)) < 1")
        expected = Arith("-", Const(Fraction(1)), ProbOf(Until(TRUE, NotF(Prop("a", "x")))))
        assert f.body == Less(expected, Const(Fraction(1)))

    def test_conformance_prefix_shape(self):
        f = parse_formula(
            "exists sched s. forall st x(s). exists st y(s)."
            " (init(x) & init(y)) -> P(F a(x)) = P(F a(y))"
        )
        kinds = [(q.exists, type(q).__name__) for q in f.prefix]
        assert kinds == [
            (True, "SchedQuant"),
            (False, "StateQuant"),
            (True, "StateQuant"),
        ]

    def test_decimal_and_rational_constants_are_exact(self):
        f = parse_formula("forall sched s. forall st x(s). P(X a(x)) < 0.5")
        g = parse_formula("forall sched s. forall st x(s). P(X a(x)) < 1/2")
        assert f.body == g.body

    def test_bounded_until_sugar(self):
        f = parse_formula("exists sched s. exists st x(s). P(true U<=3 a(x)) > 0")
        g = parse_formula("exists sched s. exists st x(s). P(F[0,3] a(x)) > 0")
        assert f.body == g.body

    def test_proposition_names_with_equals_segment(self):
        f = parse_formula("forall sched s. forall st x(s). P(F die=3(x)) = 1/6")
        props = [n for n in str(f.body).split() if "die=3" in n]
        assert props  # parsed as a single proposition token

    def test_unary_minus(self):
        f = parse_formula("forall sched s. forall st x(s). -1/2 < P(X a(x)) - 1/2")
        assert isinstance(f.body, Less)
        assert f.body.left == Arith("-", Const(Fraction(0)), Const(Fraction(1, 2)))

    def test_xor_sugar(self):
        f = parse_formula("forall sched s. forall st x(s). forall st y(s). a(x) xor a(y)")
        g = parse_formula("forall sched s. forall st x(s). forall st y(s). a(x) ^ a(y)")
        assert f.body == g.body
        assert isinstance(f.body, NotF)

    def test_thresholds_outside_unit_interval(self):
        f = parse_formula("exists sched s. exists st x(s). P(F a(x)) + P(F b(x)) < 3/2")
        assert isinstance(f.body, Less)
        assert f.body.right == Const(Fraction(3, 2))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("forall sched s. forall st x(s). P(F a(x)")
        assert exc.value.line == 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists sched s. exists st x(s). P(true U[3,1] a(x)) > 0")

    def test_non_integer_bound_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists sched s. exists st x(s). P(true U[1/2,2] a(x)) > 0")

    def test_zero_denominator_constant_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists sched s. exists st x(s). P(X a(x)) < 1/0")

    def test_garbage_input_raises_only_package_errors(self):
        # malformed input must never escape as a raw Python exception
        from hypermdp.errors import HyperMdpError

        rng = random.Random(99)
        alphabet = "abxs01 ()[]<>=+-*&|!^./,#\nPXUFG"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            try:
                parse_formula(text)
            except HyperMdpError:
                pass

        # token-level mutations of valid formulas get past the quantifier
        # prefix, which random strings rarely do
        seeds = [generate(family, **params).formula_text for family, params in (
            ("ta", {"m": 2}), ("pw", {"m": 2}), ("ts", {"h1": 0, "h2": 1}), ("pc", {"tier": "s0"}))]
        seeds += [format_formula(random_formula(rng)) for _ in range(20)]
        vocab = ["(", ")", "P", "X", "U", "F", "G", "[", "]", ",", "<=", "<", "=", "!=",
                 "->", "<->", "&", "|", "^", "xor", "!", "-", "+", "*", "1", "1/2",
                 "0.5", "true", "false", "a", "x", ".", "forall", "st", "sched"]
        for _ in range(2000):
            tokens = _TOKEN.findall(rng.choice(seeds))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(tokens))
                edit = rng.randrange(4)
                if edit == 0:
                    del tokens[i]
                elif edit == 1:
                    tokens.insert(i, rng.choice(vocab))
                elif edit == 2:
                    tokens[i] = rng.choice(vocab)
                elif i + 1 < len(tokens):
                    tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
            try:
                parse_formula(" ".join(tokens))
            except FormulaSyntaxError:
                pass

    @pytest.mark.parametrize("text, line, col", [
        (QE + "P(F a(x)", 1, 41),                  # unclosed P(
        (QE + "P(F a(x)) > 0 b(x)", 1, 47),        # trailing input
        (QE + "a(x) + 1", 1, 38),
        (QE + "0.25 1", 1, 38),
        (QE + "P(true U[3,1] a(x)) > 0", 1, 47),
        (QE + "P(true U[1/2,2] a(x)) > 0", 1, 45),
        (QE + "P(X a(x)) < 1/0", 1, 48),
        ("exists sched s exists st x(s). P(F a(x)) > 0", 1, 16),  # missing '.'
        (QE + "\n  P(F a(x)\n  > 0", 3, 3),
    ])
    def test_error_positions(self, text, line, col):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize("text, message", [
        (QE + "\n  a(x) @ b(x)", "2:8: unexpected character '@'"),
        (QE + "a(x) &\n b(x)%", "2:6: unexpected character '%'"),  # the text's last character
        (QE + "a(x) # comment @\n & b(x)$", "2:8: unexpected character '$'"),
    ])
    def test_unexpected_character_is_reported_where_it_is(self, text, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

    def test_deep_parentheses_parse(self):
        f = parse_formula("(" * 300 + "a(x)" + ")" * 300)
        assert f.body == Prop("a", "x")

    def test_long_negation_chain_parses(self):
        node = parse_formula("!" * 600 + "a(x)").body
        depth = 0
        while isinstance(node, NotF):
            node, depth = node.operand, depth + 1
        assert (depth, node) == (600, Prop("a", "x"))

    def test_nesting_too_deep_is_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(" * 5000 + "a(x)" + ")" * 5000)

    def test_a_body_above_the_height_bound_is_a_syntax_error(self):
        assert parse_formula("!" * (MAX_HEIGHT - 1) + "a(x)").body.height == MAX_HEIGHT
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse_formula("!" * MAX_HEIGHT + "a(x)")

    def test_shared_subtrees_are_walked_once(self):
        # each <-> desugars into two implications over the same operands
        nodes = list(subformulas(parse_formula(" <-> ".join(["a(x)"] * 12)).body))
        assert len(nodes) == len({id(node) for node in nodes}) < 150

    def test_deep_nodes_hash_and_compare_in_a_loop(self):
        def chain(n, leaf=Prop("a", "x")):
            for _ in range(n):
                leaf = NotF(leaf)
            return leaf

        deep = chain(5000)
        assert hash(deep) == hash(chain(5000)) and deep == chain(5000)
        assert deep != chain(5000, Prop("b", "x")) and deep != chain(4999)
        assert {deep: 1}[chain(5000)] == 1


# -- sugared trees for the grammar property -----------------------------------
# A tree is ("leaf", text, ast), ("bin", op, left, right), ("not", x),
# ("neg", x) or ("P", path); a path is ("X", body), ("F"|"G", bounds, body)
# or ("U", bounds, left, right), with bounds None, ("<=", k) or (k1, k2).

PREC = {"<->": 1, "->": 2, "|": 3, "&": 4, "^": 5, "xor": 5,
        "<": 6, "<=": 6, ">": 6, ">=": 6, "=": 6, "!=": 6,
        "+": 7, "-": 7, "*": 8}
CMP, ATOM = 6, 9
BUILD = {"<->": f_iff, "->": f_implies, "|": f_or, "&": And, "^": f_xor, "xor": f_xor,
         "<": Less, ">": lambda a, b: Less(b, a), "=": cmp_eq,
         "!=": lambda a, b: NotF(cmp_eq(a, b)), "<=": cmp_le, ">=": lambda a, b: cmp_le(b, a),
         "+": lambda a, b: Arith("+", a, b), "-": lambda a, b: Arith("-", a, b),
         "*": lambda a, b: Arith("*", a, b)}
BODY_LEAVES = [("a(x)", Prop("a", "x")), ("b(y)", Prop("b", "y")), ("die=3(x)", Prop("die=3", "x")),
               ("true", TRUE), ("false", FALSE)]
PEXPR_LEAVES = [(text, Const(Fraction(text))) for text in ("0", "1", "3", "1/2", "0.25")]


def draw_tree(draw, kind, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        text, ast = draw(st.sampled_from(BODY_LEAVES if kind == "body" else PEXPR_LEAVES))
        return ("leaf", text, ast)
    if kind == "body":
        shape = draw(st.sampled_from(["bool", "bool", "bool", "cmp", "not"]))
        if shape == "not":
            return ("not", draw_tree(draw, "body", depth - 1))
        ops = ["<->", "->", "|", "&", "^", "xor"] if shape == "bool" else ["<", "<=", ">", ">=", "=", "!="]
        operand = "body" if shape == "bool" else "pexpr"
    else:
        shape = draw(st.sampled_from(["arith", "neg", "P"]))
        if shape == "neg":
            return ("neg", draw_tree(draw, "pexpr", depth - 1))
        if shape == "P":
            return ("P", draw_path(draw, depth - 1))
        ops, operand = ["+", "-", "*"], "pexpr"
    return ("bin", draw(st.sampled_from(ops)),
            draw_tree(draw, operand, depth - 1), draw_tree(draw, operand, depth - 1))


def draw_path(draw, depth):
    op = draw(st.sampled_from(["X", "F", "G", "U"]))
    if op == "X":
        return ("X", draw_tree(draw, "body", depth))
    bounds = draw(st.sampled_from([None, ("<=", 2), (0, 0), (1, 3)]))
    if op == "U":
        return ("U", bounds, draw_tree(draw, "body", depth), draw_tree(draw, "body", depth))
    return (op, bounds, draw_tree(draw, "body", depth))


def render(tree, minimal):
    """Text of ``tree``: with the fewest parentheses the precedence table
    allows, or with every compound operand parenthesized."""
    def wrap(node, floor):
        text = render(node, minimal)
        below = (PREC[node[1]] if node[0] == "bin" else ATOM) < floor
        return f"({text})" if below or (not minimal and node[0] != "leaf") else text

    kind = tree[0]
    if kind == "leaf":
        return tree[1]
    if kind == "not":
        return "! " + wrap(tree[1], CMP)
    if kind == "neg":
        return "- " + wrap(tree[1], ATOM)
    if kind == "P":
        return "P(" + render_path(tree[1], wrap) + ")"
    op, left, right = tree[1:]
    prec = PREC[op]
    right_assoc = op == "->"
    left_floor = prec + 1 if right_assoc or prec == CMP else prec
    return f"{wrap(left, left_floor)} {op} {wrap(right, prec if right_assoc else prec + 1)}"


def render_path(path, wrap):
    def bound(b):
        if b is None:
            return ""
        return f"<={b[1]}" if b[0] == "<=" else f"[{b[0]},{b[1]}]"

    if path[0] == "X":
        return "X " + wrap(path[1], 0)
    if path[0] == "U":
        return f"{wrap(path[2], 0)} U{bound(path[1])} {wrap(path[3], 0)}"
    return f"{path[0]}{bound(path[1])} {wrap(path[2], 0)}"


def desugar(tree):
    kind = tree[0]
    if kind == "leaf":
        return tree[2]
    if kind == "not":
        return NotF(desugar(tree[1]))
    if kind == "neg":
        return Arith("-", Const(Fraction(0)), desugar(tree[1]))
    if kind == "bin":
        return BUILD[tree[1]](desugar(tree[2]), desugar(tree[3]))
    path = tree[1]
    if path[0] == "X":
        return ProbOf(Next(desugar(path[1])))
    left, right = (desugar(path[2]), desugar(path[3])) if path[0] == "U" else (TRUE, desugar(path[2]))
    if path[0] == "G":
        right = NotF(right)
    bounds = path[1] if path[1] is None or path[1][0] != "<=" else (0, path[1][1])
    reach = ProbOf(Until(left, right) if bounds is None else BoundedUntil(left, right, *bounds))
    return Arith("-", Const(Fraction(1)), reach) if path[0] == "G" else reach


class TestWellFormed:
    def test_good_prefix(self):
        f = parse_formula("forall sched s. exists st x(s). P(X a(x)) < 1/2")
        check_well_formed(f)

    def test_unbound_state_variable(self):
        f = parse_formula("P(X a(x)) < 1/2")
        with pytest.raises(UnboundStateVariable):
            check_well_formed(f)

    def test_state_quantifier_before_its_scheduler(self):
        f = Formula(
            prefix=(StateQuant(False, "x", "s"), SchedQuant(True, "s")),
            body=Less(ProbOf(Next(Prop("a", "x"))), Const(Fraction(1, 2))),
        )
        with pytest.raises(QuantifierOrderViolation):
            check_well_formed(f)

    @pytest.mark.parametrize("prefix, error, message", [
        ("exists sched s. exists st x(s). exists sched t.", QuantifierOrderViolation,
         "scheduler quantifier 't' after a state quantifier"),
        ("exists sched s. exists sched s. exists st x(s).", UnboundSchedulerVariable,
         "scheduler variable 's' bound twice"),
        ("exists sched s. exists st x(s). exists st x(s).", UnboundStateVariable, "state variable 'x' bound twice"),
        ("exists sched s. exists st x(t).", UnboundSchedulerVariable,
         "state quantifier 'x' uses unbound scheduler variable 't'"),
    ])
    def test_prefix_rejections(self, prefix, error, message):
        with pytest.raises(error) as exc:
            check_well_formed(parse_formula(prefix + " a(x)"))
        assert type(exc.value) is error and str(exc.value) == message

    def test_matches_independent_scope_checker(self):
        rng = random.Random(42)
        agree = 0
        for _ in range(200):
            f = random_formula(rng)
            ours = None
            try:
                check_well_formed(f)
            except Exception as exc:
                ours = exc
            theirs = scope_check(f)
            assert (ours is None) == (theirs is None), (f, ours, theirs)
            agree += 1
        assert agree == 200

    def test_bound_variable_renaming_preserves_verdict(self):
        rng = random.Random(43)
        for _ in range(100):
            f = random_formula(rng)

            def rename(name):
                return name + "_r"

            renamed_prefix = []
            for q in f.prefix:
                if isinstance(q, SchedQuant):
                    renamed_prefix.append(SchedQuant(q.exists, rename(q.name)))
                else:
                    renamed_prefix.append(StateQuant(q.exists, rename(q.name), rename(q.sched)))

            def rename_body(node):
                if isinstance(node, Prop):
                    return Prop(node.name, rename(node.var))
                if isinstance(node, And):
                    return And(rename_body(node.left), rename_body(node.right))
                if isinstance(node, NotF):
                    return NotF(rename_body(node.operand))
                if isinstance(node, Less):
                    return Less(rename_p(node.left), rename_p(node.right))
                return node

            def rename_p(node):
                if isinstance(node, Arith):
                    return Arith(node.op, rename_p(node.left), rename_p(node.right))
                if isinstance(node, ProbOf):
                    path = node.path
                    if isinstance(path, Next):
                        return ProbOf(Next(rename_body(path.operand)))
                    if isinstance(path, Until):
                        return ProbOf(Until(rename_body(path.left), rename_body(path.right)))
                    return ProbOf(
                        type(path)(rename_body(path.left), rename_body(path.right), path.k1, path.k2)
                    )
                return node

            g = Formula(prefix=tuple(renamed_prefix), body=rename_body(f.body))
            assert scope_check(f) == scope_check(g)


class TestCounts:
    def test_conformance_counts(self):
        f = parse_formula(
            "exists sched s. forall st x(s). exists st y(s)."
            " (init(x) & init(y)) -> P(F a(x)) = P(F a(y))"
        )
        assert count_quantifiers(f) == (1, 2)

    def test_two_scheduler_counts(self):
        f = parse_formula(
            "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2)."
            " (init(x) & init(y)) -> P(F a(x)) = P(F a(y))"
        )
        assert count_quantifiers(f) == (2, 2)

    def test_closed_body(self):
        f = parse_formula("1/2 < 1")
        assert count_quantifiers(f) == (0, 0)
        check_well_formed(f)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sugar_parses_the_same_with_minimal_and_full_parentheses(self, data):
        tree = draw_tree(data.draw, "body", 5)
        expected = desugar(tree)
        for minimal in (True, False):
            text = render(tree, minimal)
            assert parse_formula(QE + text).body == expected, text

    def test_print_parse_identity_on_random_asts(self):
        rng = random.Random(17)
        for _ in range(150):
            f = random_formula(rng)
            printed = format_formula(f)
            again = parse_formula(printed)
            assert again == f, printed

    def test_desugaring_preserves_constant_arithmetic(self):
        # closed comparisons: evaluate the sugared text directly with exact
        # arithmetic and compare against evaluating the desugared AST
        cases = [
            ("1/2 + 1/4 <= 3/4", True),
            ("1/2 * 1/2 = 1/4", True),
            ("1 - 1/3 != 2/3", False),
            ("2/3 > 1/2 + 1/6", False),
            ("1/3 >= 1/3", True),
            ("0.25 = 1/4", True),
        ]

        def eval_const_body(body):
            if isinstance(body, TrueF):
                return True
            if isinstance(body, And):
                return eval_const_body(body.left) and eval_const_body(body.right)
            if isinstance(body, NotF):
                return not eval_const_body(body.operand)
            if isinstance(body, Less):
                return eval_const_pexpr(body.left) < eval_const_pexpr(body.right)
            raise AssertionError(body)

        def eval_const_pexpr(p):
            if isinstance(p, Const):
                return p.value
            ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
            return ops[p.op](eval_const_pexpr(p.left), eval_const_pexpr(p.right))

        for text, expected in cases:
            f = parse_formula(text)
            assert eval_const_body(f.body) is expected
