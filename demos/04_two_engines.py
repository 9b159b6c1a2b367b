#!/usr/bin/env python3
"""The two decision engines, side by side.

The enumeration engine instantiates quantifiers directly; the eager
engine decides the formula the constraint encoding states (negating
universal scheduler blocks, then trying choice assignments until the
truth constraint holds) with the same quantifier walk.  Both return
the same verdicts and, by construction, the same lexicographically-least
witnesses.
"""

from hypermdp import check, parse_mdp, parse_formula, solve_eager
from hypermdp.enumcheck import replay

COIN = """\
states: s0 s1 s2
labels: s0: init; s1: a
action s0 alpha: s0 1/2, s1 1/2
action s0 beta: s2 1
action s1 tau: s1 1
action s2 tau: s2 1
"""

mdp = parse_mdp(COIN)

queries = [
    ("exists sched s. exists st x(s). init(x) & P(F a(x)) = 1", "reach 1"),
    ("exists sched s. exists st x(s). init(x) & P(F a(x)) = 0", "reach 0"),
    ("exists sched s. exists st x(s). init(x) & P(F a(x)) = 1/2", "reach 1/2"),
    ("forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1", "always reach 1"),
]

for text, label in queries:
    f = parse_formula(text)
    enum_verdict = check(mdp, f)
    eager = solve_eager(mdp, f)
    agree = "agree" if enum_verdict.truth == eager.decoded.truth else "DISAGREE"
    print(f"{label:>15}: enum={enum_verdict.truth}  eager={eager.decoded.truth}  ({agree})")
    verdict = eager.decoded
    if verdict.mode != "none":
        print(f"                 {verdict.mode}:")
        for name, sched in verdict.schedulers.items():
            choices = ", ".join(f"{s}: {a}" for s, a in sched.as_dict().items())
            print(f"                   scheduler {name} = {{{choices}}}")
        for name, state in verdict.states.items():
            print(f"                   state {name} = {state}")
        print(f"                 replay confirms: {replay(mdp, f, verdict)}")
    print()

print("no memoryless choice hits 1/2 exactly: the flip action reaches the")
print("target with probability 1, the bypass with 0, and those are all the")
print("schedulers there are.")
