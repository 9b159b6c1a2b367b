"""Deterministic builders for the four benchmark families.

TA  timing side channel in modular exponentiation (branchy loop timing)
PW  password leakage through early-exit string comparison
TS  thread-scheduling channel leaking a secret counter
PC  probabilistic conformance: synthesize a six-sided die from fair coins

Program-to-model abstractions are fixed here: thread timing is counted in
work units, each unit giving a concurrently running attacker counter a
1/2 chance to tick; interleaving in TS is a nondeterministic action per
live thread pair.  Identical parameters always produce byte-identical
model and formula files.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .formula import parse_formula
from .model import Mdp, parse_mdp
from .record import Frozen

# published benchmark sizes (states, transitions), reported next to
# generated sizes; generated models must stay within a factor of two
REFERENCE_SIZES: Dict[str, Dict[object, Tuple[int, int]]] = {
    "ta": {2: (24, 46), 4: (60, 136), 6: (112, 274)},
    "pw": {2: (24, 46), 4: (70, 146), 6: (140, 302)},
    "ts": {(0, 1): (7, 13), (0, 15): (35, 83), (4, 8): (21, 48), (8, 15): (35, 83)},
    "pc": {"s0": (20, 158), "s01": (20, 280), "s012": (20, 404)},
}


class CaseSpec(Frozen):
    """One generated case; ``reference`` is the published (states,
    transitions) of its row, or None."""

    __slots__ = _fields = ("family", "name", "mdp", "formula", "model_text", "formula_text", "reference")


def _case(family: str, name: str, model_text: str, formula_text: str, ref_key) -> CaseSpec:
    mdp = parse_mdp(model_text)
    formula = parse_formula(formula_text)
    return CaseSpec(
        family=family,
        name=name,
        mdp=mdp,
        formula=formula,
        model_text=model_text,
        formula_text=formula_text,
        reference=REFERENCE_SIZES[family].get(ref_key),
    )


def _equality_conjunction(props: List[str], left_var: str, right_var: str) -> str:
    parts = [f"P(F {p}({left_var})) = P(F {p}({right_var}))" for p in props]
    return " & ".join(parts)


# -- TA / PW: timing channels --------------------------------------------------


def _tick_edges(prefix_next: str, j: int) -> str:
    """One work unit: the attacker counter ticks with probability 1/2."""
    return f"{prefix_next}{j} 1/2, {prefix_next}{j + 1} 1/2"


def gen_timing_attack(m: int) -> CaseSpec:
    """Loop with a long (2 work units) and a short (1 unit) branch per
    iteration; the attacker counts units it wins."""
    if m < 1:
        raise ValueError("timing-attack size m must be >= 1")
    lines = ["# timing side channel: branchy loop vs attacker counter"]
    states = []
    for i in range(1, m + 1):
        states += [f"i{i}j{j}" for j in range(0, 2 * (i - 1) + 1)]
        states += [f"m{i}j{j}" for j in range(0, 2 * i)]
    states += [f"t{j}" for j in range(0, 2 * m + 1)]
    lines.append("states: " + " ".join(states))
    labels = ["i1j0: init"] + [f"t{j}: j={j}" for j in range(0, m + 1)]
    lines.append("labels: " + "; ".join(labels))
    for i in range(1, m + 1):
        nxt = f"i{i + 1}j" if i < m else "t"
        for j in range(0, 2 * (i - 1) + 1):
            lines.append(f"action i{i}j{j} b0: {_tick_edges(nxt, j)}")
            lines.append(f"action i{i}j{j} b1: {_tick_edges(f'm{i}j', j)}")
        for j in range(0, 2 * i):
            lines.append(f"action m{i}j{j} w: {_tick_edges(nxt, j)}")
    for j in range(0, 2 * m + 1):
        lines.append(f"action t{j} w: t{j} 1")
    model_text = "\n".join(lines) + "\n"
    props = [f"j={l}" for l in range(0, m + 1)]
    formula_text = (
        "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2).\n"
        f"(init(x) & init(y)) -> ({_equality_conjunction(props, 'x', 'y')})\n"
    )
    return _case("ta", f"ta_m{m}", model_text, formula_text, m)


def gen_password(m: int) -> CaseSpec:
    """Early-exit string comparison: a mismatch leaves after one unit, a
    match costs two units per character plus a final accept unit."""
    if m < 1:
        raise ValueError("password size m must be >= 1")
    lines = ["# password comparison: early exit on first mismatching character"]
    states = []
    for i in range(1, m + 1):
        states += [f"c{i}j{j}" for j in range(0, 2 * (i - 1) + 1)]
        states += [f"m{i}j{j}" for j in range(0, 2 * i)]
    states += [f"r{j}" for j in range(0, 2 * m + 1)]
    states += [f"t{j}" for j in range(0, 2 * m + 2)]
    lines.append("states: " + " ".join(states))
    labels = ["c1j0: init"] + [f"t{j}: j={j}" for j in range(0, m + 1)]
    lines.append("labels: " + "; ".join(labels))
    for i in range(1, m + 1):
        nxt = f"c{i + 1}j" if i < m else "r"
        for j in range(0, 2 * (i - 1) + 1):
            lines.append(f"action c{i}j{j} eq: {_tick_edges(f'm{i}j', j)}")
            lines.append(f"action c{i}j{j} neq: {_tick_edges('t', j)}")
        for j in range(0, 2 * i):
            lines.append(f"action m{i}j{j} w: {_tick_edges(nxt, j)}")
    for j in range(0, 2 * m + 1):
        lines.append(f"action r{j} w: {_tick_edges('t', j)}")
    for j in range(0, 2 * m + 2):
        lines.append(f"action t{j} w: t{j} 1")
    model_text = "\n".join(lines) + "\n"
    props = [f"j={l}" for l in range(0, m + 1)]
    formula_text = (
        "forall sched s1. forall sched s2. forall st x(s1). forall st y(s2).\n"
        f"(init(x) & init(y)) -> ({_equality_conjunction(props, 'x', 'y')})\n"
    )
    return _case("pw", f"pw_m{m}", model_text, formula_text, m)


# -- TS: thread-scheduling channel ------------------------------------------------


def gen_thread_sched(h1: int, h2: int) -> CaseSpec:
    """Two runs with different secrets in one model; thread one needs
    secret+1 steps to write its flag, thread two a single step, and the
    last writer wins.  Interleaving while both are live is a scheduler
    choice."""
    if h1 < 0 or h2 < 0:
        raise ValueError("secrets must be nonnegative")
    if h1 == h2:
        raise ValueError("the two runs need different secrets")
    lines = ["# thread-scheduling channel: two secrets, shared outcome states"]
    states: List[str] = []
    rows: List[str] = []

    def emit_variant(tag: str, secret: int):
        steps = secret + 1  # decrements plus the final write of flag 1
        for r1 in range(steps, 0, -1):
            states.append(f"{tag}r{r1}")  # thread two still pending
        states.append(f"{tag}r0")
        for r1 in range(steps, 0, -1):
            states.append(f"{tag}r{r1}d")  # thread two already wrote
        for r1 in range(steps, 0, -1):
            both = f"{tag}r{r1 - 1}" if r1 > 1 else f"{tag}r0"
            rows.append(f"action {tag}r{r1} t1: {both} 1")
            second = f"{tag}r{r1 - 1}d" if r1 > 1 else "fin1"
            rows.append(f"action {tag}r{r1} t2: {tag}r{r1}d 1")
            rows.append(f"action {tag}r{r1}d t1: {second} 1")
        rows.append(f"action {tag}r0 t2: fin2 1")

    emit_variant("a", h1)
    emit_variant("b", h2)
    states += ["fin1", "fin2"]
    rows.append("action fin1 w: fin1 1")
    rows.append("action fin2 w: fin2 1")
    lines.append("states: " + " ".join(states))
    lines.append(f"labels: ar{h1 + 1}: init h; br{h2 + 1}: init; fin1: l=1; fin2: l=2")
    lines += rows
    model_text = "\n".join(lines) + "\n"
    formula_text = (
        "forall sched s. forall st x(s). forall st y(s).\n"
        "(init(x) & init(y) & (h(x) ^ h(y))) ->\n"
        "(P(F l=1(x)) = P(F l=1(y)) & P(F l=2(x)) = P(F l=2(y)))\n"
    )
    return _case("ts", f"ts_h{h1}_{h2}", model_text, formula_text, (h1, h2))


# -- PC: probabilistic conformance --------------------------------------------------


KY_EDGES = {
    0: (1, 2),
    1: (3, 4),
    2: (5, 6),
    3: ("o1", "o2"),
    4: ("o3", 1),
    5: ("o4", "o5"),
    6: ("o6", 2),
}


def _ky_rows(prefix: str, action: str) -> List[str]:
    rows = []
    for src, (left, right) in KY_EDGES.items():
        lt = left if isinstance(left, str) else f"{prefix}{left}"
        rt = right if isinstance(right, str) else f"{prefix}{right}"
        rows.append(f"action {prefix}{src} {action}: {lt} 1/2, {rt} 1/2")
    return rows


def knuth_yao_die() -> Mdp:
    """The plain coin-to-die chain: every face is reached with exactly 1/6."""
    lines = ["states: " + " ".join([f"d{i}" for i in range(7)] + [f"o{l}" for l in range(1, 7)])]
    lines.append("labels: d0: init; " + "; ".join(f"o{l}: die={l}" for l in range(1, 7)))
    lines += _ky_rows("d", "flip")
    lines += [f"action o{l} stay: o{l} 1" for l in range(1, 7)]
    return parse_mdp("\n".join(lines) + "\n")


TIER_SOURCES = {"s0": (0,), "s01": (0, 1), "s012": (0, 1, 2)}


def gen_conformance(tier: str) -> CaseSpec:
    """Die chain next to a coin implementation skeleton sharing the six
    outcome states; tier sources additionally offer every half/half pair
    of implementation-side targets.  The known-correct wiring is each
    state's first action, so the first satisfying scheduler is the
    conforming implementation."""
    if tier not in TIER_SOURCES:
        raise ValueError(f"tier must be one of {sorted(TIER_SOURCES)}")
    impl = [f"c{i}" for i in range(7)]
    outcomes = [f"o{l}" for l in range(1, 7)]
    lines = ["# die conformance: reference chain plus implementation skeleton"]
    lines.append("states: " + " ".join([f"d{i}" for i in range(7)] + impl + outcomes))
    lines.append("labels: d0: init; c0: init; " + "; ".join(f"o{l}: die={l}" for l in range(1, 7)))
    lines += _ky_rows("d", "tick")
    lines += _ky_rows("c", "flip")
    pair_pool = impl + outcomes
    for src in TIER_SOURCES[tier]:
        others = [s for s in pair_pool if s != f"c{src}"]
        for i, left in enumerate(others):
            for right in others[i + 1:]:
                lines.append(f"action c{src} pair_{left}_{right}: {left} 1/2, {right} 1/2")
    lines += [f"action o{l} stay: o{l} 1" for l in range(1, 7)]
    model_text = "\n".join(lines) + "\n"
    props = [f"die={l}" for l in range(1, 7)]
    formula_text = (
        "exists sched s. forall st x(s). exists st y(s).\n"
        f"(init(x) & init(y)) -> ({_equality_conjunction(props, 'x', 'y')})\n"
    )
    return _case("pc", f"pc_{tier}", model_text, formula_text, tier)


# -- dispatch ----------------------------------------------------------------------


# the families in the paper's order, each with its keyword parameters; ``hypermdp gen`` offers these
GENERATORS = {"ta": gen_timing_attack, "pw": gen_password, "ts": gen_thread_sched, "pc": gen_conformance}


def generate(family: str, **params) -> CaseSpec:
    if family not in GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    return GENERATORS[family](**params)


def write_case(spec: CaseSpec, outdir) -> Tuple[str, str]:
    import os

    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, spec.name + ".mdpx")
    formula_path = os.path.join(outdir, spec.name + ".hpctl")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(spec.model_text)
    with open(formula_path, "w", encoding="utf-8") as fh:
        fh.write(spec.formula_text)
    return model_path, formula_path
