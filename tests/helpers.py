"""Shared test machinery: independent oracles, random model generators and
the models a solver would return.

The oracles here deliberately avoid the library's solver paths: until
probabilities come from explicit path enumeration, well-formedness from a
separate scope evaluator, so library bugs cannot cancel out.
"""

import random
from fractions import Fraction

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
    f_implies,
)
from hypermdp.constraints import choice_sym
from hypermdp.model import Dtmc, Mdp
from hypermdp.smt import full_assignment

ZERO = Fraction(0)
ONE = Fraction(1)


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


def random_mdp(rng: random.Random, max_states=4, max_actions=2) -> Mdp:
    n = rng.randint(2, max_states)
    states = tuple(f"q{i}" for i in range(n))
    action_names = ("go", "jump")
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
    action_names = ("go", "jump")
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


# -- published rows ---------------------------------------------------------------

# every row of ``cases.REFERENCE_SIZES``: (family, generator parameters)
PUBLISHED_ROWS = {
    **{f"{family}_m{m}": (family, {"m": m}) for family in ("ta", "pw") for m in (2, 4, 6)},
    **{f"ts_h{h1}_{h2}": ("ts", {"h1": h1, "h2": h2}) for h1, h2 in ((0, 1), (0, 15), (4, 8), (8, 15))},
    **{f"pc_{tier}": ("pc", {"tier": tier}) for tier in ("s0", "s01", "s012")},
}
# the benchmark's bounded-until export case, on ta_m2
BOUNDED_TA = ("forall sched s1. forall sched s2. forall st x(s1). forall st y(s2). "
              "(init(x) & init(y)) -> (P(F<=20 j=0(x)) = P(F<=20 j=0(y)) & P(F<=20 j=1(x)) = P(F<=20 j=1(y)))")


# -- solver models ------------------------------------------------------------------

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
