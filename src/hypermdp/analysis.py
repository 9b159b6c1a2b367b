"""Exact probability computation on discrete-time Markov chains.

Qualitative reachability sets by graph analysis; unbounded until by Prob0
and Prob1 precomputation followed by an exact solve of the remaining
states one strongly connected component at a time, sinks first; bounded
until by one iteration that passes through every reduced-bound window,
stops a phase once it settles and, for the last window alone, squares the
step map of a phase still moving after |S| steps; one-step probabilities;
and a value-iteration oracle used only for cross-checking.  Every result is an exact ``Fraction``; nothing is
computed in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Mapping, Tuple

from .errors import BoundError, SingularSystem
from .model import Dtmc

Predicate = Mapping  # state -> bool, total over d.states
ProbVector = Dict

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NOTHING: Mapping = MappingProxyType({})  # no point outside the chain is solved


def qualitative_sets(d: Dtmc, phi1: Predicate, phi2: Predicate,
                     known: Mapping = _NOTHING) -> Tuple[FrozenSet, FrozenSet]:
    """(S_zero, S_yes) for ``phi1 U phi2``.

    S_yes is the phi2 states; S_zero the states with until-probability
    exactly 0, i.e. the complement of backward reachability from phi2
    through phi1 states.  A successor outside ``d.states`` whose ``known``
    value is positive counts as a phi2 state.
    """
    preds: Dict = {s: [] for s in d.states}
    s_yes = frozenset(s for s in d.states if phi2[s])
    reach = set(s_yes)
    for s in d.states:
        if phi1[s] and s not in s_yes:
            for t, p in d.trans[s]:
                if p:
                    if t in preds:
                        preds[t].append(s)
                    elif known[t]:
                        reach.add(s)
    frontier = list(reach)
    while frontier:
        t = frontier.pop()
        for s in preds[t]:
            if s not in reach:
                reach.add(s)
                frontier.append(s)
    s_zero = frozenset(s for s in d.states if s not in reach)
    return s_zero, s_yes


def until_probs(d: Dtmc, phi1: Predicate, phi2: Predicate, known: Mapping = _NOTHING) -> ProbVector:
    """Exact least-fixed-point solution of ``P(phi1 U phi2)`` per state.

    1 on S_yes and 0 on S_zero (which covers the not-phi1-nor-phi2
    states).  Of the other states, those that cannot reach S_zero without
    passing a phi2 state reach phi2 almost surely and get exactly 1
    (Prob1).  The rest are solved per strongly connected component in
    reverse topological order, so every successor outside a component is
    known when the component is solved: a singleton is one dot product, a
    self-loop of probability p divides it by 1 - p, and a larger component
    is an exact linear system of its own size.

    A row may lead out of ``d.states`` to a point solved earlier, whose
    value ``known`` gives: a positive one seeds Prob0 as a phi2 state does,
    one below 1 seeds Prob1 as S_zero does, and the components read it as a
    solved component.  The result covers ``d.states`` only.
    """
    s_zero, s_yes = qualitative_sets(d, phi1, phi2, known)
    result: ProbVector = {}
    unknown = []
    for s in d.states:
        if s in s_yes:
            result[s] = _ONE
        elif s in s_zero:
            result[s] = _ZERO
        else:
            unknown.append(s)
    if not unknown:
        return result

    # Prob1: an unknown state is below 1 iff it reaches S_zero through
    # unknown states; backward reachability from the states next to S_zero
    succ: Dict = {s: [] for s in unknown}
    preds: Dict = {s: [] for s in unknown}
    below = set()
    for s in unknown:
        for t, p in d.trans[s]:
            if not p:
                continue
            if t in succ:
                succ[s].append(t)
                preds[t].append(s)
            elif t in s_zero or (t not in s_yes and known[t] < 1):
                below.add(s)
    frontier = list(below)
    while frontier:
        t = frontier.pop()
        for s in preds[t]:
            if s not in below:
                below.add(s)
                frontier.append(s)
    for s in unknown:
        if s not in below:
            result[s] = _ONE

    for comp in _sccs([s for s in unknown if s in below], succ):
        if len(comp) == 1:
            s = comp[0]
            loop = _ZERO
            acc = _ZERO
            for t, p in d.trans[s]:
                if t == s:
                    loop += p
                else:
                    v = result[t] if t in result else known[t]
                    if v:
                        acc += p * v
            if loop:
                if loop == _ONE:
                    raise SingularSystem(f"self-loop of probability 1 at {s!r}")
                acc /= _ONE - loop
            result[s] = acc
            continue
        # p_s - sum_{s' in comp} P(s,s') p_s' = sum_{s' outside comp} P(s,s') p_s'
        index = {s: i for i, s in enumerate(comp)}
        m = len(comp)
        matrix = [[_ZERO] * m for _ in range(m)]
        rhs = [_ZERO] * m
        for s, i in index.items():
            row = matrix[i]
            row[i] = _ONE
            for t, p in d.trans[s]:
                j = index.get(t)
                if j is not None:
                    row[j] -= p
                else:
                    v = result[t] if t in result else known[t]
                    if v:
                        rhs[i] += p * v
        for s, value in zip(comp, _solve_linear(matrix, rhs)):
            result[s] = value
    return result


def _sccs(nodes, succ: Mapping) -> Iterator[List]:
    """Strongly connected components of the graph ``succ`` on ``nodes``,
    each one yielded after every component it can reach (Tarjan, with an
    explicit stack instead of recursion)."""
    index: Dict = {}
    low: Dict = {}
    stack: List = []
    on_stack = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    yield comp


def _solve_linear(matrix, rhs):
    """Gaussian elimination with partial pivoting, exact over Fractions."""
    m = len(matrix)
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(matrix[r][col]))
        if matrix[pivot][col] == 0:
            raise SingularSystem(f"no pivot in column {col}")
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / matrix[col][col]
        for r in range(col + 1, m):
            factor = matrix[r][col] * inv
            if factor == 0:
                continue
            row_r, row_c = matrix[r], matrix[col]
            for c in range(col, m):
                row_r[c] -= factor * row_c[c]
            rhs[r] -= factor * rhs[col]
    solution = [_ZERO] * m
    for r in range(m - 1, -1, -1):
        acc = rhs[r]
        row = matrix[r]
        for c in range(r + 1, m):
            acc -= row[c] * solution[c]
        solution[r] = acc / row[r]
    return solution


def _bounded_steps(d: Dtmc, phi1: Predicate, phi2: Predicate, k1: int, k2: int, every: bool = True):
    """The iteration behind ``P(phi1 U[k1,k2] phi2)``, from the phi2 indicator.

    The first k2 - k1 steps are windowed: phi2 states stay 1, the other
    states outside phi1 stay 0.  The last k1 steps are plain: states
    outside phi1 are 0 and every other state takes the one-step
    expectation, phi2 or not, since phi2 before step k1 does not count.
    After j steps the vector is that of the window
    ``(max(j - (k2 - k1), 0), j)``, so the steps pass through every
    reduced-bound window from (0, 0) up to (k1, k2).

    Within a phase the step map is fixed, so once a step leaves the vector
    unchanged, the phase has settled and takes no more steps.  Unless
    ``every`` step is asked for, a phase still moving after |S| steps has a
    cycle among its live states, and takes the rest of its steps as one
    power of its step map (``_power``) where that costs less.

    The arithmetic is exact over integers: with D the common denominator
    of the transition probabilities, the vector after j steps times D^j
    is integral.  Yields ``(first, last, unit, vec)``: ``vec`` over ``unit``
    is the vector after every step count from first to last.
    """
    if k1 < 0 or k2 < 0 or k1 > k2:
        raise BoundError(f"bad bounds [{k1},{k2}]")
    scale = math.lcm(*(p.denominator for s in d.states for _, p in d.trans[s]))
    rows = {s: [(t, p.numerator * (scale // p.denominator)) for t, p in d.trans[s]]
            for s in d.states if phi1[s]}
    vec = {s: (1 if phi2[s] else 0) for s in d.states}
    unit = 1  # the integer that stands for probability 1
    yield 0, 0, unit, vec
    step = 0
    for windowed, end in ((True, k2 - k1), (False, k2)):
        start = step
        while step < end:
            if step - start == len(d.states) and not every and (
                    power := _power(rows, phi2 if windowed else _NOTHING, scale, unit, vec, end - step)):
                unit, vec = power
                yield end, end, unit, vec
                break
            nxt = {}
            for s in d.states:
                if windowed and phi2[s]:
                    nxt[s] = unit * scale
                elif not phi1[s]:
                    nxt[s] = 0
                else:
                    nxt[s] = sum([w * vec[t] for t, w in rows[s] if vec[t]])
            step += 1
            if all(nxt[s] == scale * v for s, v in vec.items()):  # settled: vec over unit stays
                yield step, end, unit, vec
                break
            unit, vec = unit * scale, nxt
            yield step, step, unit, vec
        step = end


def _power(rows, held: Mapping, scale: int, unit: int, vec: dict, rest: int):
    """``(unit, vec)`` after ``rest`` more steps of a phase whose ``held``
    states stay 1, whose other states with ``rows`` are live and whose rest
    stay 0, by repeated squaring of the step map on the L live states plus
    the unit; None where the r steps over the live rows cost less than
    about log2(r) (L+1)^3 products."""
    index = {s: i for i, s in enumerate(t for t in rows if not held.get(t))}
    n = len(index)
    if rest.bit_length() * (n + 1) ** 3 >= rest * sum(len(rows[s]) for s in index):
        return None
    matrix = [[0] * (n + 1) for _ in index] + [[0] * n + [scale]]
    for s, i in index.items():
        for t, w in rows[s]:
            j = n if held.get(t) else index.get(t)
            if j is not None:
                matrix[i][j] += w
    x = [vec[s] for s in index] + [unit]
    while rest:
        if rest & 1:
            x = [sum([a * b for a, b in zip(row, x) if a]) for row in matrix]
        rest >>= 1
        if rest:
            cols = list(zip(*matrix))
            matrix = [[sum([a * b for a, b in zip(row, col) if a and b]) for col in cols] for row in matrix]
    return x[n], {s: x[index[s]] if s in index else x[n] if held.get(s) else 0 for s in vec}


def bounded_until_windows(d: Dtmc, phi1: Predicate, phi2: Predicate, k1: int, k2: int):
    """``((k1', k2'), P(phi1 U[k1',k2'] phi2))`` for every reduced-bound
    window of ``[k1, k2]``, innermost (0, 0) first, all from one iteration
    that squares nothing: the windows of a settled phase share its vector."""
    for first, last, unit, vec in _bounded_steps(d, phi1, phi2, k1, k2):
        probs = {s: Fraction(v, unit) for s, v in vec.items()}
        for step in range(first, last + 1):
            yield (max(step - (k2 - k1), 0), step), probs


def bounded_until_probs(d: Dtmc, phi1: Predicate, phi2: Predicate, k1: int, k2: int) -> ProbVector:
    """``P(phi1 U[k1,k2] phi2)``: the last vector of the iteration, which
    may square its step map, divided by its unit once at the end."""
    for _, _, unit, vec in _bounded_steps(d, phi1, phi2, k1, k2, every=False):
        pass
    return {s: Fraction(v, unit) for s, v in vec.items()}


def next_probs(d: Dtmc, phi: Predicate) -> ProbVector:
    """One-step probability of hitting a phi state."""
    return {
        s: sum((p for t, p in d.trans[s] if phi[t]), _ZERO)
        for s in d.states
    }


def until_probs_vi(d: Dtmc, phi1: Predicate, phi2: Predicate, iterations: int) -> ProbVector:
    """Value-iteration lower bound for ``P(phi1 U phi2)``.

    Starts from the indicator of the phi2 states and applies the one-step
    expectation, keeping phi2 states at 1 and unfit states at 0.  Converges
    monotonically from below to until_probs; oracle only, never on the
    verdict path.

    The error after ``iterations`` steps decays at the chain's own
    contraction rate (a 3/4 self-loop leaves (3/4)^n), so no fixed step
    count meets a fixed tolerance on every chain.  A tolerance must be
    certified with an upper bound, e.g. the same update iterated from 1
    on every state outside the probability-0 set.
    """
    vec = {s: (_ONE if phi2[s] else _ZERO) for s in d.states}
    for _ in range(iterations):
        nxt = {}
        for s in d.states:
            if phi2[s]:
                nxt[s] = _ONE
            elif not phi1[s]:
                nxt[s] = _ZERO
            else:
                nxt[s] = sum((p * vec[t] for t, p in d.trans[s]), _ZERO)
        vec = nxt
    return vec
