"""Formula parsing, negation normalization, rendering, atom scans, and
the interning of formula nodes."""
import copy
import pickle
import random

import pytest

from cl15 import formula
from cl15.formula import (
    And,
    AtomRef,
    Cost,
    Formula,
    FormulaError,
    NegAtom,
    Or,
    Pcost,
    Pst,
    St,
    atoms,
    negate,
    parse_formula,
    render_formula,
)
from cl15.harness import random_formula
from reference_parser import Neg, normalize_negation


def test_atoms_and_literals():
    assert parse_formula("P") == AtomRef("P")
    assert parse_formula("~P") == NegAtom("P")
    assert parse_formula("Foo9") == AtomRef("Foo9")
    assert parse_formula("~~P") == AtomRef("P")


def test_equal_formulas_are_one_node():
    f = parse_formula("!(P /\\ Q)")
    assert f is Pst(And(AtomRef("P"), AtomRef("Q")))
    assert negate(negate(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert AtomRef("P") is not NegAtom("P") and Pst(f) is not Pcost(f)
    rng = random.Random(7)
    for _ in range(100):
        g = random_formula(rng, ["P", "Q", "R"], 4)
        assert parse_formula(render_formula(g)) is g
    with pytest.raises(ValueError):
        And(f)


def test_formulas_compare_and_hash_by_identity_alone():
    # No formula class writes out a comparison: `object`'s are the only ones.
    for cls in (Formula, formula._Named, formula._Unary, formula._Binary,
                AtomRef, NegAtom, And, Or, Pst, Pcost, St, Cost):
        assert not {"__init__", "__eq__", "__hash__"} & vars(cls).keys(), cls
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_binary_precedence_and_grouping():
    assert parse_formula("P /\\ Q \\/ R") == Or(And(AtomRef("P"), AtomRef("Q")), AtomRef("R"))
    assert parse_formula("P \\/ Q /\\ R") == Or(AtomRef("P"), And(AtomRef("Q"), AtomRef("R")))
    assert parse_formula("(P \\/ Q) /\\ R") == And(Or(AtomRef("P"), AtomRef("Q")), AtomRef("R"))
    # Binary operators associate to the left.
    assert parse_formula("P \\/ Q \\/ R") == Or(Or(AtomRef("P"), AtomRef("Q")), AtomRef("R"))


def test_unary_operators_bind_tightly():
    assert parse_formula("!P /\\ Q") == And(Pst(AtomRef("P")), AtomRef("Q"))
    assert parse_formula("?P") == Pcost(AtomRef("P"))
    assert parse_formula("b!P") == St(AtomRef("P"))
    assert parse_formula("b?P") == Cost(AtomRef("P"))
    assert parse_formula("!(P /\\ Q)") == Pst(And(AtomRef("P"), AtomRef("Q")))
    assert parse_formula("!!P") == Pst(Pst(AtomRef("P")))


def test_implication_desugars_to_negation_normal_form():
    assert parse_formula("P -> Q") == Or(NegAtom("P"), AtomRef("Q"))
    # Implication is right-associative.
    assert parse_formula("P -> Q -> R") == Or(
        NegAtom("P"), Or(NegAtom("Q"), AtomRef("R"))
    )


def test_negation_pushes_through_all_operators():
    assert parse_formula("~(P /\\ Q)") == Or(NegAtom("P"), NegAtom("Q"))
    assert parse_formula("~(P \\/ Q)") == And(NegAtom("P"), NegAtom("Q"))
    assert parse_formula("~!P") == Pcost(NegAtom("P"))
    assert parse_formula("~?P") == Pst(NegAtom("P"))
    assert parse_formula("~b!P") == Cost(NegAtom("P"))
    assert parse_formula("~b?P") == St(NegAtom("P"))


def test_negate_is_an_involution():
    rng = random.Random(7)
    for _ in range(50):
        f = random_formula(rng, ("P", "Q", "R"), depth=3)
        assert negate(negate(f)) == f


def test_normalize_negation_handles_nested_neg_nodes():
    raw = Neg(And(AtomRef("P"), Neg(AtomRef("Q"))))
    assert normalize_negation(raw) == Or(NegAtom("P"), AtomRef("Q"))


def test_render_parse_roundtrip_on_random_formulas():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ("P", "Q", "R2"), depth=3)
        assert parse_formula(render_formula(f)) == f


def test_render_uses_minimal_parentheses():
    assert render_formula(parse_formula("P /\\ Q \\/ R")) == "P /\\ Q \\/ R"
    assert render_formula(parse_formula("(P \\/ Q) /\\ R")) == "(P \\/ Q) /\\ R"
    assert render_formula(parse_formula("!(P \\/ Q)")) == "!(P \\/ Q)"
    assert render_formula(parse_formula("!P \\/ ?Q")) == "!P \\/ ?Q"


def test_atoms_collects_every_name():
    f = parse_formula("P /\\ b!(Q -> P /\\ R) -> b!P")
    assert atoms(f) == frozenset({"P", "Q", "R"})


@pytest.mark.parametrize(
    "text",
    ["", "p", "P /\\", "(P", "P)", "P Q", "& P", "-> P", "P ~ Q", "P //\\ Q"],
)
def test_malformed_formulas_are_rejected(text):
    with pytest.raises(FormulaError):
        parse_formula(text)
