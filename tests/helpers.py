"""Shared test machinery: independent oracles, random model generators and
the models a solver would return.

The oracles here deliberately avoid the library's solver paths: until
probabilities come from explicit path enumeration, well-formedness from a
separate scope evaluator, so library bugs cannot cancel out.
"""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

from hypermdp.formula import (
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
    cmp_eq,
    f_implies,
    f_or,
    subformulas,
    substitute,
)
from hypermdp.constraints import choice_sym
from hypermdp import enumcheck
from hypermdp.enumcheck import Evaluator, build_composition, truth_eval
from hypermdp.model import Dtmc, Mdp, enumerate_schedulers, induce_dtmc, self_compose
from hypermdp.smt import full_assignment

ZERO = Fraction(0)
ONE = Fraction(1)


def rename_vars(node, names: dict):
    """``node`` with every state variable ``v`` replaced by ``names[v]``."""
    return substitute(node, {p: Prop(p.name, names[p.var]) for p in subformulas(node) if isinstance(p, Prop)})


# -- path-enumeration oracles -------------------------------------------------

def is_absorbing(d: Dtmc, s) -> bool:
    row = d.trans[s]
    return len(row) == 1 and row[0][0] == s


def brute_until(d: Dtmc, phi1, phi2, start) -> Fraction:
    """P(phi1 U phi2) by path enumeration.

    Only valid when every cycle is an absorbing self-loop; raises if a
    longer path than |S| shows up.
    """
    limit = len(d.states) + 1

    def walk(s, prob, depth):
        if phi2[s]:
            return prob
        if not phi1[s]:
            return ZERO
        if is_absorbing(d, s):
            return ZERO
        if depth > limit:
            raise RuntimeError("model is not acyclic enough for brute_until")
        total = ZERO
        for t, p in d.trans[s]:
            total += walk(t, prob * p, depth + 1)
        return total

    return walk(start, ONE, 0)


def brute_bounded_until(d: Dtmc, phi1, phi2, k1, k2, start) -> Fraction:
    """P(phi1 U[k1,k2] phi2) by enumerating all length-k2 prefixes."""

    def qualifies(path) -> bool:
        for j in range(k1, min(k2, len(path) - 1) + 1):
            if phi2[path[j]] and all(phi1[path[i]] for i in range(j)):
                return True
        return False

    def walk(path, prob):
        # once a prefix qualifies, every extension does
        if qualifies(path):
            return prob
        if len(path) - 1 == k2:
            return ZERO
        total = ZERO
        for t, p in d.trans[path[-1]]:
            total += walk(path + [t], prob * p)
        return total

    return walk([start], ONE)


def reference_bounded_steps(d: Dtmc, phi1, phi2, k1: int, k2: int):
    """Every step of ``P(phi1 U[k1,k2] phi2)``, as the library took them
    before its phases stopped at their fixed point or squared their step
    map: k2 - k1 windowed steps, then k1 plain ones, over integers with D,
    the common denominator, so that ``unit = D^j`` stands for 1.  Yields
    ``(window, unit, vec)`` after each step j, from (0, 0) on."""
    scale = math.lcm(*(p.denominator for s in d.states for _, p in d.trans[s]))
    rows = {s: [(t, p.numerator * (scale // p.denominator)) for t, p in d.trans[s]]
            for s in d.states if phi1[s]}
    vec = {s: (1 if phi2[s] else 0) for s in d.states}
    unit = 1  # the integer that stands for probability 1 after this step
    yield (0, 0), unit, vec
    for step in range(k2):
        windowed = step < k2 - k1
        unit *= scale
        nxt = {}
        for s in d.states:
            if windowed and phi2[s]:
                nxt[s] = unit
            elif not phi1[s]:
                nxt[s] = 0
            else:
                nxt[s] = sum([w * vec[t] for t, w in rows[s] if vec[t]])
        vec = nxt
        yield (max(step + 1 - (k2 - k1), 0), step + 1), unit, vec


# -- interval-iteration oracle ----------------------------------------------------

def prob0_states(d: Dtmc, phi1, phi2) -> frozenset:
    """States with P(phi1 U phi2) = 0: those that cannot reach a phi2 state
    along phi1 states (backward reachability from phi2)."""
    preds = {s: [] for s in d.states}
    for s in d.states:
        for t, p in d.trans[s]:
            if p > 0:
                preds[t].append(s)
    can_reach = {s for s in d.states if phi2[s]}
    frontier = list(can_reach)
    while frontier:
        t = frontier.pop()
        for s in preds[t]:
            if s not in can_reach and phi1[s]:
                can_reach.add(s)
                frontier.append(s)
    return frozenset(s for s in d.states if s not in can_reach)


def dense_until(d: Dtmc, phi1, phi2):
    """P(phi1 U phi2) by one dense exact linear system over every state
    outside Prob0 and phi2 (Gaussian elimination with partial pivoting),
    as the library solved it before its SCC-ordered solver."""
    zero = prob0_states(d, phi1, phi2)
    result = {}
    unknown = []
    for s in d.states:
        if phi2[s]:
            result[s] = ONE
        elif s in zero:
            result[s] = ZERO
        else:
            unknown.append(s)
    index = {s: i for i, s in enumerate(unknown)}
    m = len(unknown)
    # p_s - sum_{s' unknown} P(s,s') p_s' = sum_{s' phi2} P(s,s')
    matrix = [[ZERO] * m for _ in range(m)]
    rhs = [ZERO] * m
    for s in unknown:
        i = index[s]
        matrix[i][i] = ONE
        for t, p in d.trans[s]:
            if t in index:
                matrix[i][index[t]] -= p
            elif phi2[t]:
                rhs[i] += p
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(matrix[r][col]))
        if matrix[pivot][col] == 0:
            raise ArithmeticError(f"singular system: no pivot in column {col}")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, m):
            factor = matrix[r][col] / matrix[col][col]
            if factor:
                for c in range(col, m):
                    matrix[r][c] -= factor * matrix[col][c]
                rhs[r] -= factor * rhs[col]
    solution = [ZERO] * m
    for r in range(m - 1, -1, -1):
        acc = rhs[r] - sum((matrix[r][c] * solution[c] for c in range(r + 1, m)), ZERO)
        solution[r] = acc / matrix[r][r]
    result.update(zip(unknown, solution))
    return result


def until_step(d: Dtmc, phi1, phi2, vec):
    """One value-iteration step for P(phi1 U phi2): phi2 states stay 1,
    states outside phi1 stay 0, the rest take the one-step expectation."""
    return {s: (ONE if phi2[s] else
                ZERO if not phi1[s] else
                sum((p * vec[t] for t, p in d.trans[s]), ZERO))
            for s in d.states}


def until_upper_start(d: Dtmc, phi1, phi2):
    """Start vector of the iteration from above: 0 on the Prob0 states, 1
    everywhere else.  It lies above P(phi1 U phi2), and ``until_step`` keeps
    it above while it descends to it (Haddad & Monmege, interval iteration)."""
    zero = prob0_states(d, phi1, phi2)
    return {s: (ZERO if s in zero else ONE) for s in d.states}


# -- random models ------------------------------------------------------------

AP_POOL = ("a", "b", "init")


def _random_row(rng: random.Random, targets):
    den = rng.choice((1, 2, 2, 3, 4, 4))
    k = rng.randint(1, min(den, len(targets)))
    chosen = rng.sample(list(targets), k)
    # random composition of den into k positive parts
    cuts = sorted(rng.sample(range(1, den), k - 1)) if k > 1 else []
    parts = []
    prev = 0
    for cut in cuts + [den]:
        parts.append(cut - prev)
        prev = cut
    return tuple((t, Fraction(p, den)) for t, p in zip(chosen, parts))


def _action_names(max_actions: int) -> tuple:
    """``go`` and ``jump``, then ``a2``, ``a3``, ...: as many as asked for,
    so draws with at most two actions are those of the two-name helpers."""
    return ("go", "jump") + tuple(f"a{i}" for i in range(2, max_actions))


def random_mdp(rng: random.Random, max_states=4, max_actions=2) -> Mdp:
    n = rng.randint(2, max_states)
    states = tuple(f"q{i}" for i in range(n))
    action_names = _action_names(max_actions)
    enabled = {}
    trans = {}
    for s in states:
        k = rng.randint(1, max_actions)
        acts = action_names[:k]
        enabled[s] = acts
        for a in acts:
            trans[(s, a)] = _random_row(rng, states)
    # alphabet kept stable so formula templates always bind
    labels = {s: frozenset(p for p in AP_POOL if rng.random() < 0.4) for s in states}
    return Mdp(states=states, actions=action_names[:max_actions], enabled=enabled,
               trans=trans, ap=AP_POOL, labels=labels)


def random_acyclic_mdp(rng: random.Random, max_states=4, max_actions=2) -> Mdp:
    """Forward-edge-only MDP; the last state is absorbing."""
    n = rng.randint(2, max_states)
    states = tuple(f"q{i}" for i in range(n))
    action_names = _action_names(max_actions)
    enabled = {}
    trans = {}
    for i, s in enumerate(states):
        if i == n - 1:
            enabled[s] = ("go",)
            trans[(s, "go")] = ((s, ONE),)
            continue
        k = rng.randint(1, max_actions)
        acts = action_names[:k]
        enabled[s] = acts
        later = states[i + 1:]
        for a in acts:
            trans[(s, a)] = _random_row(rng, later)
    labels = {s: frozenset(p for p in AP_POOL if rng.random() < 0.4) for s in states}
    return Mdp(states=states, actions=action_names[:max_actions], enabled=enabled,
               trans=trans, ap=AP_POOL, labels=labels)


# -- second-opinion scope checker ----------------------------------------------

def scope_check(f: Formula):
    """Independent well-formedness verdict (None = ok, else reason string)."""
    bound_sched = set()
    bound_state = {}
    stage = "sched"
    for q in f.prefix:
        if isinstance(q, SchedQuant):
            if stage != "sched":
                return "order"
            if q.name in bound_sched:
                return "dup-sched"
            bound_sched.add(q.name)
        else:
            stage = "state"
            if q.sched not in bound_sched:
                return "unbound-sched"
            if q.name in bound_state:
                return "dup-state"
            bound_state[q.name] = q.sched

    def walk(node):
        if isinstance(node, Prop):
            return node.var in bound_state
        if isinstance(node, And):
            return walk(node.left) and walk(node.right)
        if isinstance(node, NotF):
            return walk(node.operand)
        if isinstance(node, Less):
            return walk_p(node.left) and walk_p(node.right)
        return True

    def walk_p(node):
        if isinstance(node, Arith):
            return walk_p(node.left) and walk_p(node.right)
        if isinstance(node, ProbOf):
            path = node.path
            if isinstance(path, Next):
                return walk(path.operand)
            return walk(path.left) and walk(path.right)
        return True

    return None if walk(f.body) else "unbound-state"


# -- strongly connected components ----------------------------------------------

def bottom_sccs(d: Dtmc):
    """Bottom SCCs of the chain's digraph (iterative Tarjan)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(root):
        work = [(root, iter([t for t, _ in d.trans[root]]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([t for t, _ in d.trans[w]])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)

    for s in d.states:
        if s not in index:
            strongconnect(s)

    bottoms = []
    for comp in sccs:
        if all(t in comp for s in comp for t, _ in d.trans[s]):
            bottoms.append(frozenset(comp))
    return bottoms


# -- random core ASTs for the print/parse round trip ------------------------------

def random_body(rng: random.Random, vars_, depth=3):
    choices = ["true", "prop", "and", "not", "less"]
    kind = rng.choice(choices if depth > 0 else ["true", "prop"])
    if kind == "true":
        return TrueF()
    if kind == "prop":
        return Prop(rng.choice(("a", "b", "init")), rng.choice(vars_))
    if kind == "and":
        return And(random_body(rng, vars_, depth - 1), random_body(rng, vars_, depth - 1))
    if kind == "not":
        return NotF(random_body(rng, vars_, depth - 1))
    return Less(random_pexpr(rng, vars_, depth - 1), random_pexpr(rng, vars_, depth - 1))


def random_pexpr(rng: random.Random, vars_, depth=2):
    kind = rng.choice(["const", "prob", "arith"] if depth > 0 else ["const", "prob"])
    if kind == "const":
        return Const(Fraction(rng.randint(0, 8), rng.randint(1, 8)))
    if kind == "arith":
        return Arith(rng.choice("+-*"),
                     random_pexpr(rng, vars_, depth - 1),
                     random_pexpr(rng, vars_, depth - 1))
    path_kind = rng.choice(["next", "until", "bounded"])
    if path_kind == "next":
        return ProbOf(Next(random_body(rng, vars_, 1)))
    if path_kind == "until":
        return ProbOf(Until(random_body(rng, vars_, 1), random_body(rng, vars_, 1)))
    k1 = rng.randint(0, 2)
    return ProbOf(BoundedUntil(random_body(rng, vars_, 1), random_body(rng, vars_, 1), k1, k1 + rng.randint(0, 2)))


def random_formula(rng: random.Random) -> Formula:
    m = rng.randint(1, 2)
    n = rng.randint(1, 2)
    prefix = [SchedQuant(rng.random() < 0.5, f"sig{j}") for j in range(m)]
    svars = [f"x{i}" for i in range(n)]
    prefix += [StateQuant(rng.random() < 0.5, v, f"sig{rng.randrange(m)}") for v in svars]
    return Formula(prefix=tuple(prefix), body=random_body(rng, svars))


GUARDS = ("a", "b", "init", "never")  # no state of a ``random_mdp`` carries ``never``


def guarded_formula(rng: random.Random) -> Formula:
    """One or two scheduler quantifiers, mixed or not, over one to three
    state variables whose body puts proposition guards, some under double
    negation, in a conjunct or in an implication's antecedent, next to
    negated propositions, which guard nothing."""
    sched = [SchedQuant(rng.random() < 0.5, f"s{j}") for j in range(rng.randint(1, 2))]
    svars = ("x", "y", "z")[:rng.randint(1, 3)]
    prefix = sched + [StateQuant(rng.random() < 0.5, v, rng.choice(sched).name) for v in svars]
    guard = TrueF()
    for _ in range(rng.randint(1, 3)):
        g = Prop(rng.choice(GUARDS), rng.choice(svars))
        guard = And(guard, rng.choice((g, g, NotF(NotF(g)), NotF(g))))
    rest = random_body(rng, svars, 2)
    shape = rng.choice(("conjunct", "antecedent", "negated conjunct"))
    if shape == "conjunct":
        body = And(guard, rest)
    elif shape == "antecedent":
        body = f_implies(guard, rest)
    else:
        body = NotF(NotF(NotF(And(rest, guard))))
    return Formula(prefix=tuple(prefix), body=body)


def with_never(mdp: Mdp) -> Mdp:
    """``mdp`` with the proposition ``never`` in its alphabet and on no state."""
    return Mdp(states=mdp.states, actions=mdp.actions, enabled=mdp.enabled, trans=mdp.trans,
               ap=mdp.ap + ("never",), labels=mdp.labels)


def valued_formula(rng: random.Random, mdp: Mdp) -> Formula:
    """One or two scheduler quantifiers, mixed or not, over x and perhaps
    y, whose body compares a random ``P(...)``, coupled over x and y where
    both exist, by ``=`` or ``!=`` with its value at a random tuple under a
    random combination.  The body's truth then turns with nearly every
    choice the value can reach, as a threshold's seldom does."""
    sched = [SchedQuant(rng.random() < 0.5, f"s{j}") for j in range(rng.randint(1, 2))]
    names = ("x", "y")[:rng.randint(1, 2)]
    prefix = (*sched, *(StateQuant(rng.random() < 0.5, v, rng.choice(sched).name) for v in names))
    atoms = [TrueF(), *(Prop(p, v) for p in ("a", "b") for v in names)]
    if len(names) == 2:
        atoms.append(And(Prop("a", "x"), Prop(rng.choice(("a", "b")), "y")))

    def operand():
        return rng.choice(atoms)

    k1 = rng.randint(0, 1)
    prob = ProbOf(rng.choice((Next(operand()), Until(operand(), operand()),
                              BoundedUntil(operand(), operand(), k1, k1 + rng.randint(0, 3)))))
    probe = Formula(prefix=prefix, body=Less(Const(ZERO), prob))
    ev, schedulers = Evaluator(mdp, probe), list(enumerate_schedulers(mdp))
    ev.bind(build_composition(probe, {q.name: rng.choice(schedulers) for q in sched}))
    equal = cmp_eq(prob, Const(ev.value(prob, tuple(rng.choice(mdp.states) for _ in names))))
    return Formula(prefix=prefix, body=equal if rng.random() < 0.5 else NotF(equal))


def late_case(rng: random.Random):
    """``(mdp, f)``: a ``random_mdp`` of up to three states and a formula
    that the first assignment of its outer scheduler quantifier cannot
    decide, so that its witness or counterexample, if it has one, comes
    from a later outer assignment.

    One or two scheduler quantifiers and their state variables x and y,
    all of one kind, over a strict threshold on a random ``P(...)`` at x:
    past c under ``exists``, not past c under ``forall``, where c is its
    value under the first assignment at the one state labelled ``mark``,
    which guards x.  Models are drawn until a later assignment changes the
    value at some state; ``mark`` goes to one of those, and "past" points
    the way it changes there.  Half of the bodies join the threshold with a
    random body over x and y, by ``&`` under ``exists`` and ``|`` under
    ``forall``."""
    kind, m = rng.random() < 0.5, rng.randint(1, 2)

    def operand():
        return rng.choice((TrueF(), Prop("a", "x"), Prop("b", "x"), random_body(rng, ["x"], 1)))

    for _ in range(20):
        mdp = random_mdp(rng, max_states=3)
        prob = ProbOf(rng.choice((Next(operand()), Until(operand(), operand()),
                                  BoundedUntil(operand(), operand(), rng.randint(0, 1), rng.randint(1, 3)))))
        one = Formula(prefix=(SchedQuant(kind, "s1"), StateQuant(kind, "x", "s1")), body=Less(Const(ONE), prob))
        ev, values = Evaluator(mdp, one), []
        for a in enumerate_schedulers(mdp):
            ev.bind(build_composition(one, {"s1": a}))
            values.append({s: ev.value(prob, (s,)) for s in mdp.states})
        changed = [s for s in mdp.states if any(v[s] != values[0][s] for v in values)]
        if changed:
            break
    mark = rng.choice(changed or mdp.states)
    mdp = Mdp(states=mdp.states, actions=mdp.actions, enabled=mdp.enabled, trans=mdp.trans, ap=mdp.ap + ("mark",),
              labels={s: labels | {"mark"} if s == mark else labels for s, labels in mdp.labels.items()})
    c = Const(values[0][mark])
    threshold = Less(c, prob) if any(v[mark] > c.value for v in values) else Less(prob, c)
    names = ("x", "y")[:m]
    prefix = [SchedQuant(kind, f"s{j + 1}") for j in range(m)]
    prefix += [StateQuant(kind, v, f"s{j + 1}") for j, v in enumerate(names)]
    body = And(Prop("mark", "x"), threshold) if kind else f_implies(Prop("mark", "x"), NotF(threshold))
    if rng.random() < 0.5:
        rest = random_body(rng, list(names), 1)
        body = And(body, rest) if kind else f_or(body, rest)
    return mdp, Formula(prefix=tuple(prefix), body=body)


# -- published rows ---------------------------------------------------------------

# every row of ``cases.REFERENCE_SIZES``: (family, generator parameters)
PUBLISHED_ROWS = {
    **{f"{family}_m{m}": (family, {"m": m}) for family in ("ta", "pw") for m in (2, 4, 6)},
    **{f"ts_h{h1}_{h2}": ("ts", {"h1": h1, "h2": h2}) for h1, h2 in ((0, 1), (0, 15), (4, 8), (8, 15))},
    **{f"pc_{tier}": ("pc", {"tier": tier}) for tier in ("s0", "s01", "s012")},
}
# a true universal independence claim with a coupled operand, P(F (l=1(x) & l=1(y))):
# the benchmark's sweep on ts_h0_1
TS_INDEP = ("forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
            "(init(x) & init(y)) -> P(F (l=1(x) & l=1(y))) = P(F l=1(x)) * P(F l=1(y))")
# the benchmark's bounded-until export case, on ta_m2
BOUNDED_TA = ("forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
              "(init(x) & init(y)) -> (P(F<=20 j=0(x)) = P(F<=20 j=0(y)) & P(F<=20 j=1(x)) = P(F<=20 j=1(y)))")


# -- the full product -----------------------------------------------------------------

def full_product(mdp: Mdp, assignments) -> Dtmc:
    """The whole n-fold self-composition under ``assignments``, one per
    component (``enumcheck.build_composition``); components that run under
    one assignment share its induced chain.  The reference for the
    per-support values, which no library path builds."""
    induced = {a: induce_dtmc(mdp, a) for a in dict.fromkeys(assignments)}
    return self_compose([induced[a] for a in assignments])


def reference_decide(mdp: Mdp, f: Formula, pinned=None):
    """``enumcheck.decide`` without its savings: every scheduler combination
    in lexicographic order, no mirrored pair skipped, a fresh ``Evaluator``
    bound to each, and the state quantifiers over every state (or their
    pinned one).  Returns the truth and the values on the deciding branch,
    keyed by prefix position."""
    pinned = pinned or {}
    m = sum(isinstance(q, SchedQuant) for q in f.prefix)
    state_quants = f.prefix[m:]
    domains = [(pinned[m + d],) if m + d in pinned else mdp.states for d in range(len(state_quants))]
    chosen = {}

    def walk(i):
        if i == m:
            ev = Evaluator(mdp, f)
            ev.bind(build_composition(f, chosen))
            truth, picks = truth_eval(state_quants, domains, ev.holds)
            return truth, {m + depth: s for depth, s in picks.items()}
        q = f.prefix[i]
        for v in (pinned[i],) if i in pinned else enumerate_schedulers(mdp):
            chosen[q.name] = v
            truth, trace = walk(i + 1)
            if truth == q.exists:
                return truth, {i: v, **trace}
        return not q.exists, {}

    return walk(0)


@contextlib.contextmanager
def counting_combinations():
    """The scheduler combinations ``enumcheck.decide`` forms
    (``build_composition``), in order, while the block runs: one per
    combination it tries, each bound to the evaluator."""
    combos = []

    def counting(f, chosen):
        combos.append(build_composition(f, chosen))
        return combos[-1]

    with mock.patch.object(enumcheck, "build_composition", counting):
        yield combos


# -- plan tables and solver models ---------------------------------------------------

def at_node(cs, table: str, node):
    """``node``'s row of the plan table ``table`` of ``cs`` (``"fixed"``,
    ``"points"`` or ``"supports"``, each per position), found through the
    plan's numbering ``cs.meta.index``."""
    return getattr(cs.meta, table)[cs.meta.index[node]]


def solver_model(cs, mdp: Mdp, schedulers) -> dict:
    """The model a QF_LRA solver returns for ``cs`` when it picks
    ``schedulers`` (name -> assignment): every declared variable's exact
    value, plus one Boolean per scheduler choice."""
    values, choices = full_assignment(cs, mdp, schedulers)
    model = dict(values)
    for (family, state), actions in cs.choice_domains.items():
        for a in actions:
            model[choice_sym(family, state, a)] = choices[(family, state)] == a
    return model
