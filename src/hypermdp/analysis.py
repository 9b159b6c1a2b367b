"""Exact probability computation on discrete-time Markov chains.

One backward search over the edges of positive probability, which gives
the fewest steps to a target and so the Prob0 set (``step_distances``,
of which ``qualitative_sets`` is a view); unbounded until in one pass
over the strongly connected components of its live states, sinks first,
each settled as it closes, to 0 or 1 from its exits or by an exact solve
in integers; bounded until by one iteration that passes through every
reduced-bound window, stops a phase once it settles and, for the last
window alone, squares the step map of a phase still moving after |S|
steps; one-step probabilities; and a value-iteration oracle used only
for cross-checking.  Every result is an exact ``Fraction``; nothing is
computed in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Tuple

from .errors import BoundError, SingularSystem
from .model import Dtmc

Predicate = Mapping  # state -> bool, total over d.states
ProbVector = Dict

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NOTHING: Mapping = MappingProxyType({})  # no point outside the chain is solved


def step_distances(d: Dtmc, phi1: Predicate, phi2: Predicate) -> dict:
    """Fewest steps from each state of ``d`` to a phi2 state through phi1
    states, along edges of positive probability; the states it leaves out
    are the Prob0 set of ``phi1 U phi2``."""
    preds: Dict = {s: [] for s in d.states}
    for s in d.states:
        if phi1[s] and not phi2[s]:
            for t, p in d.trans[s]:
                if p:
                    preds[t].append(s)
    queue = [s for s in d.states if phi2[s]]
    dist = dict.fromkeys(queue, 0)
    for t in queue:  # breadth first: the loop reaches what it appends
        for s in preds[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist


def qualitative_sets(d: Dtmc, phi1: Predicate, phi2: Predicate) -> Tuple[FrozenSet, FrozenSet]:
    """(S_zero, S_yes) for ``phi1 U phi2``: the states with
    until-probability exactly 0, which ``step_distances`` leaves out, and
    the phi2 states."""
    dist = step_distances(d, phi1, phi2)
    return frozenset(s for s in d.states if s not in dist), frozenset(s for s in d.states if phi2[s])


def until_probs(d: Dtmc, phi1: Predicate, phi2: Predicate, known: Mapping = _NOTHING) -> ProbVector:
    """Exact least-fixed-point solution of ``P(phi1 U phi2)`` per state.

    1 on the phi2 states and 0 on the states that are neither.  The live
    states, phi1 and not phi2, are settled in one pass: a Tarjan search
    over their edges of positive probability, with an explicit stack
    instead of recursion, closes each strongly connected component after
    every component it can reach, and settles it there from its exits,
    its edges of positive probability out of it (``_settle``): to 0 when
    no exit has a positive value, to 1 when every exit has value 1, and
    otherwise by an exact solve in integers.  A row may lead out of
    ``d.states`` to a point solved earlier, whose value ``known`` gives,
    and which an exit reads as a settled state.  The result covers
    ``d.states`` only.
    """
    result: ProbVector = {}
    live = {}  # the live states, in the order of d.states
    for s in d.states:
        if phi2[s]:
            result[s] = _ONE
        elif phi1[s]:
            live[s] = None
        else:
            result[s] = _ZERO
    index: Dict = {}
    low: Dict = {}
    stack: List = []
    for root in live:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(d.trans[root]))]
        while work:
            v, edges = work[-1]
            for t, p in edges:
                if t in live and t not in result and p:  # new, or on the stack
                    if t not in index:
                        index[t] = low[t] = len(index)
                        stack.append(t)
                        work.append((t, iter(d.trans[t])))
                        break
                    if index[t] < low[v]:
                        low[v] = index[t]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    _settle(d, comp, result, known)
    return result


def _settle(d: Dtmc, comp: List, result: ProbVector, known: Mapping) -> None:
    """Enter into ``result`` the values of the strongly connected
    component ``comp``, each of whose exits leads to a state of ``result``
    or a point of ``known``.

    Unless its exits settle it to 0 or 1, the row of each state s, with D
    its common denominator, is the integer equation
    ``D x_s - sum w_t x_t = sum w_u v_u`` over its weights w, in-component
    on the left and exits on the right: a singleton is that dot product
    over D less its self-loop's weight, a larger component the integer
    system that ``_solve_linear`` solves.  Each value becomes one
    ``Fraction``.
    """
    inside = comp if len(comp) == 1 else dict.fromkeys(comp)
    positive, certain = False, True
    for s in comp:
        for t, p in d.trans[s]:
            if t not in inside and p:
                v = result[t] if t in result else known[t]
                if v:
                    positive = True
                    certain = certain and v == 1
                else:
                    certain = False
    if not positive or certain:
        value = _ONE if positive else _ZERO
        for s in comp:
            result[s] = value
        return
    position = {s: i for i, s in enumerate(comp)}
    matrix, rhs = [], []
    for s in comp:
        terms = []  # (position, or None for an exit, numerator, denominator)
        for t, p in d.trans[s]:
            if t in position:
                terms.append((position[t], p.numerator, p.denominator))
            elif p:
                v = result[t] if t in result else known[t]
                terms.append((None, p.numerator * v.numerator, p.denominator * v.denominator))
        scale = math.lcm(*[den for _, _, den in terms])
        row, b = [0] * len(comp), 0
        row[position[s]] = scale
        for j, num, den in terms:
            if j is None:
                b += num * (scale // den)
            else:
                row[j] -= num * (scale // den)
        matrix.append(row)
        rhs.append(b)
    if len(comp) == 1:
        if not matrix[0][0]:
            raise SingularSystem(f"self-loop of probability 1 at {comp[0]!r}")
        result[comp[0]] = Fraction(rhs[0], matrix[0][0])
        return
    nums, den = _solve_linear(matrix, rhs)
    for s, num in zip(comp, nums):
        result[s] = Fraction(num, den)


def _solve_linear(matrix, rhs):
    """``(nums, den)`` with ``nums[i] / den`` the solution of the integer
    system ``matrix x = rhs``, by fraction-free elimination (Bareiss): every
    division is exact, and the last pivot, the determinant up to its sign,
    is ``den``.  Integer arithmetic throughout."""
    m = len(matrix)
    for row, b in zip(matrix, rhs):
        row.append(b)
    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if matrix[r][k]), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {k}")
        matrix[k], matrix[pivot] = matrix[pivot], matrix[k]
        head = matrix[k]
        top, tail = head[k], head[k + 1:]
        for r in range(k + 1, m):
            row = matrix[r]
            lead = row[k]
            if lead:
                row[k + 1:] = [(top * a - lead * b) // prev for a, b in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [top * a // prev if a else 0 for a in row[k + 1:]]
        prev = top
    nums = [0] * m
    for r in range(m - 1, -1, -1):
        row = matrix[r]
        nums[r] = (prev * row[m] - sum([row[c] * nums[c] for c in range(r + 1, m)])) // row[r]
    return nums, prev


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
