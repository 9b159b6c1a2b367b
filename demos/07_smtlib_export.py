#!/usr/bin/env python3
"""Exporting the constraint system as SMT-LIB2.

The encoding declares, per subformula and state of the components it
mentions, Boolean truth variables, probability reals, 0/1 step indicators
for next-operators and ordering-only distance variables enforcing the
least fixed point of until.  Values that no scheduler can change (every
proposition, an until at its targets and where they are unreachable) are
folded into constants first and get no variable.  Scheduler choices
compile to one-hot Booleans.  The script is deterministic byte for byte
and solvable by any QF_LRA solver.
"""

from hypermdp import emit_smtlib2, encode_main, parse_formula, parse_mdp

COIN = """\
states: s0 s1 s2
labels: s0: init; s1: a
action s0 alpha: s0 1/2, s1 1/2
action s0 beta: s2 1
action s1 tau: s1 1
action s2 tau: s2 1
"""

mdp = parse_mdp(COIN)
f = parse_formula("exists sched s. exists st x(s). init(x) & P(F a(x)) = 1")

cs, polarity = encode_main(mdp, f)
print(f"polarity: {polarity}")
print(f"variables: {cs.variable_count()}  constraints: {cs.constraint_count()}  "
      f"subformulas: {len(cs.subformula_text)}")
print(f"folded before encoding: {sum(len(v) for v in cs.meta.fixed)} (subformula, state) values")

text = emit_smtlib2(cs)
lines = text.splitlines()
print(f"\nscript: {len(lines)} lines; the header names every subformula index:")
for line in lines[:16]:
    print(" ", line)
print("  ...")

print("\nthe until equations appear guarded by the scheduler choice:")
for line in lines:
    if "ch_0_s0.alpha" in line and "pr_" in line:
        print(" ", line)

print("\nuniversal scheduler blocks flip: the encoder negates the body and")
print("dualizes the state quantifiers, and an unsatisfiable encoding then")
print("means the original formula holds.")
g = parse_formula("forall sched s. forall st x(s). init(x) -> P(F a(x)) = 1")
_, polarity = encode_main(mdp, g)
print(f"polarity for the universal query: {polarity}")
