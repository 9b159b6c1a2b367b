import os

import pytest
from hypothesis import settings

from hypermdp.model import parse_mdp

# CI (which sets the CI variable) runs every property test on the fixed
# example sequence and without a per-example deadline, so a slow runner
# cannot make one flake; a failure prints the blob that reproduces it.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

M_COIN_TEXT = """\
# two-action coin gadget
states: s0 s1 s2
labels: s0: init; s1: a
action s0 alpha: s0 1/2, s1 1/2
action s0 beta: s2 1
action s1 tau: s1 1
action s2 tau: s2 1
"""

D_HALF_TEXT = """\
states: u0 u1 u2
labels: u0: init; u1: a
action u0 tau: u1 1/2, u2 1/2
action u1 tau: u1 1
action u2 tau: u2 1
"""


@pytest.fixture(scope="session")
def m_coin():
    return parse_mdp(M_COIN_TEXT)


@pytest.fixture(scope="session")
def d_half():
    return parse_mdp(D_HALF_TEXT)
