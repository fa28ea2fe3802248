"""The value classes: constructors, equality, hashing, immutability and
reprs, as the dataclasses they replace behaved."""
import copy
import pickle

import pytest

from cl15.cirquent import Cirquent
from cl15.cl15 import (
    AndIntro,
    Axiom,
    Contraction,
    Merging,
    OformulaExchange,
    OrIntro,
    OvergroupDuplication,
    OvergroupExchange,
    PcostIntro,
    Proof,
    ProofStep,
    PstIntro,
    Rule,
    Translator,
    UndergroupDuplication,
    UndergroupExchange,
    Violation,
    Weakening,
)
from cl15.formula import And, AtomRef, Cost, Formula, NegAtom, Or, Pcost, Pst, St
from cl15.harness import SeparationReport
from cl15.runs import TOP, InfiniteBitstring, Labmove, RunError
from cl15.strategy import GRANT, IDLE, MakeMove, SimResult

P, Q = AtomRef("P"), NegAtom("Q")
CIRQUENT = Cirquent((Q, P), (frozenset({1, 2}),), (frozenset({1, 2}),))


def _identity(move):
    return move


# One instance of every frozen value class: those that hold only data, and
# those that hold functions.
DATA = [
    Formula(), P, Q, And(P, Q), Or(P, Q), Pst(P), Pcost(Q), St(P), Cost(Q),
    CIRQUENT, Labmove(TOP, "1.m"), InfiniteBitstring("01", "1"),
    Violation("no"), Rule(), Axiom(), OformulaExchange(1), UndergroupExchange(1),
    OvergroupExchange(1), UndergroupDuplication(1), OvergroupDuplication(1), Merging(1),
    Weakening(1, 2), Contraction(1), OrIntro(1), AndIntro(1), PstIntro(1), PcostIntro(1),
    ProofStep(CIRQUENT, Axiom()), Proof(()), MakeMove("1.m"), GRANT, IDLE,
]
FROZEN = DATA + [Translator("t", _identity, _identity)]


def _class_exact_equality():
    assert And(P, Q) != Or(P, Q)
    assert AtomRef("P") != NegAtom("P")
    assert OformulaExchange(1) != UndergroupExchange(1)
    assert Contraction(1) != OrIntro(1)
    for value in FROZEN:
        twin = type(value)(*(getattr(value, name) for name in value.__match_args__))
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert value != (*(getattr(value, name) for name in value.__match_args__),)
    assert hash(And(P, Q)) == hash(And(AtomRef("P"), NegAtom("Q")))
    assert Pst(P) != Pst(AtomRef("Q"))


def _assignment_and_deletion_fail():
    for value in FROZEN:
        for name in value.__match_args__ or ("field",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)


def _keywords_and_defaults():
    assert PcostIntro(oformula=1) == PcostIntro(1, frozenset())
    assert PcostIntro(oformula=1).add_over == frozenset()
    assert InfiniteBitstring() == InfiniteBitstring("", "0")
    assert InfiniteBitstring(tail="1").render() == ":1"
    assert Translator("t", _identity, _identity).structural is False
    translator = Translator(name="t", outer_to_inner=_identity, inner_to_outer=_identity,
                            structural=True)
    assert translator.structural is True
    assert Labmove(move="1.m", player=TOP) == Labmove(TOP, "1.m")


def _validation():
    with pytest.raises(RunError, match="empty move"):
        Labmove(TOP, "")
    with pytest.raises(RunError, match="tail must be non-empty"):
        InfiniteBitstring("0", "")
    with pytest.raises(RunError, match="must be bitstrings"):
        InfiniteBitstring("2")


def _reprs():
    assert repr(AtomRef("P")) == "AtomRef(name='P')"
    assert repr(And(P, Q)) == "And(left=AtomRef(name='P'), right=NegAtom(name='Q'))"
    assert repr(Labmove(TOP, "1.m")) == "Labmove(player=<Player.TOP: 'T'>, move='1.m')"
    assert repr(PcostIntro(2)) == "PcostIntro(oformula=2, add_over=frozenset())"
    assert repr(GRANT) == "GrantPermission()"
    assert repr(MakeMove((1, (1,), "m"))) == "MakeMove(move=(1, (1,), 'm'))"


def _copy_and_pickle():
    for value in DATA:
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value
    result = SimResult((Labmove(TOP, "1.m"),), TOP, 1, 2, None, ["x"])
    assert pickle.loads(pickle.dumps(result)) == result


def _reports_stay_mutable():
    result = SimResult((), TOP, 0, 1, None, [])
    result.grants = 2
    assert result == SimResult((), TOP, 2, 1, None, [])
    assert repr(result) == ("SimResult(run=(), winner=<Player.TOP: 'T'>, grants=2, steps=1, "
                            "first_illegality=None, trace=[])")
    report = SeparationReport(1, 2, (), (), (), 0, True, None, None, False, [])
    report.lines.append("x")
    report.conclusive = True
    assert (report.lines, report.conclusive) == (["x"], True)
    for record in (result, report):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("check", [
    _class_exact_equality, _assignment_and_deletion_fail, _keywords_and_defaults, _validation,
    _reprs, _copy_and_pickle, _reports_stay_mutable,
], ids=lambda check: check.__name__.strip("_"))
def test_value_classes_behave_as_their_dataclasses_did(check):
    check()
