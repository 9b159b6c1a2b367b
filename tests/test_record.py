"""The value classes (``hypermdp.record``) keep what ``dataclasses`` gave them:
typed value equality, hashing, immutability, defaults and the repr text."""

import copy
import pickle
from fractions import Fraction

import pytest

from hypermdp.constraints import ConstraintSystem, Lin
from hypermdp.enumcheck import Verdict
from hypermdp.formula import And, Prop, Until, parse_formula
from hypermdp.model import RawModel, SchedulerAssignment
from hypermdp.smt import SmtVerdict

A, B = Prop("a", "x"), Prop("b", "y")


def test_equality_keeps_the_type():
    assert And(A, B) != Until(A, B)
    assert Lin() != (Fraction(0), ())
    assert SchedulerAssignment(("s0",), ("a",)) == SchedulerAssignment(states=("s0",), actions=("a",))
    assert Verdict(True) != Verdict(False) and Verdict(True) == Verdict(True, "none", {}, {})


def test_equal_values_hash_equally():
    assert hash(And(A, B)) == hash(And(Prop("a", "x"), Prop("b", "y")))
    assert hash(Lin(Fraction(1), ((Fraction(2), "p"),))) == hash(Lin(const=Fraction(1), terms=((Fraction(2), "p"),)))
    assert hash(SchedulerAssignment(("s0",), ("a",))) == hash(SchedulerAssignment(("s0",), ("a",)))
    with pytest.raises(TypeError):
        hash(Verdict(True))  # mutable, so unhashable


def test_frozen_fields_cannot_be_assigned():
    for obj, field in ((And(A, B), "left"), (Lin(), "const"), (SchedulerAssignment((), ()), "actions")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        A.other = 1  # slots: no field beyond the declared ones
    verdict = Verdict(True)
    verdict.mode = "witness"
    assert verdict.mode == "witness"


def test_defaults_and_fresh_mutable_defaults():
    assert Lin() == Lin(Fraction(0), ())
    assert Verdict(True) == Verdict(truth=True, mode="none", schedulers={}, states={})
    assert SmtVerdict(False, "direct").decoded is None
    first, second = Verdict(True), Verdict(True)
    first.schedulers["s"] = SchedulerAssignment((), ())
    assert second.schedulers == {} and first.states is not second.states
    assert ConstraintSystem().constraints is not ConstraintSystem().constraints
    assert RawModel().rows is not RawModel().rows


def test_wrong_arguments_raise_type_error():
    for make in (lambda: Lin(1, (), 2), lambda: Lin(colour=1), lambda: Lin(1, const=1),
                 lambda: Verdict(), lambda: And(A)):
        with pytest.raises(TypeError):
            make()


def test_verdict_repr_is_the_dataclass_text():
    # the benchmark keys its replays on repr(verdict)
    verdict = Verdict(True, "witness", {"s": SchedulerAssignment(("s0", "s1"), ("a", "b"))}, {"x": "s0"})
    assert repr(verdict) == ("Verdict(truth=True, mode='witness', schedulers={'s': SchedulerAssignment("
                             "states=('s0', 's1'), actions=('a', 'b'))}, states={'x': 's0'})")
    assert repr(Lin()) == "Lin(const=Fraction(0, 1), terms=())"


def test_copy_and_pickle_rebuild_equal_values():
    f = parse_formula("exists sched s. exists st x(s). P(F a(x)) = 1")
    verdict = Verdict(True, "witness", {"s": SchedulerAssignment(("s0",), ("a",))}, {"x": "s0"})
    for obj in (f, verdict, Lin()):
        for rebuild in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
            assert rebuild(obj) == obj
    assert hash(copy.deepcopy(f)) == hash(f) and copy.deepcopy(f).body.height == f.body.height
