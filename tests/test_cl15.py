"""Proof checking: rule instances, corruption rejection, proof files."""
import hashlib
import random

import pytest

from cl15.cirquent import Cirquent, parse_cirquent, render_cirquent
from cl15.cl15 import (
    Axiom,
    Proof,
    ProofError,
    ProofStep,
    Rule,
    Violation,
    axiom_violation,
    check_step,
    parse_proof,
    render_proof,
    verify_proof,
)
from cl15.formula import parse_formula

from conftest import (
    C,
    RULE_CASES,
    instance_accepted,
    read_fixture,
    rule_case,
    single_corruptions,
)


@pytest.mark.parametrize("name", [case[0] for case in RULE_CASES])
def test_rule_instance_accepted(name):
    premise, conclusion, rule = rule_case(name)
    assert instance_accepted(premise, conclusion, rule), name


@pytest.mark.parametrize("name", [case[0] for case in RULE_CASES])
def test_single_corruptions_rejected(name):
    premise, conclusion, rule = rule_case(name)
    mutants = single_corruptions(premise, conclusion, rule)
    assert mutants, name
    for label, prem2, concl2, rule2 in mutants:
        assert not instance_accepted(prem2, concl2, rule2), f"{name} -- {label}"


def _check_step_verdicts() -> list[str]:
    """One line per check_step verdict over the rule cases that have a
    premise: the instance, each of its single corruptions, and each number
    parameter set to 0 and to 9."""
    lines = []
    for name, prem, _, _ in RULE_CASES:
        if prem is None:
            continue
        premise, conclusion, rule = rule_case(name)
        variants = [("instance", premise, conclusion, rule)]
        variants += single_corruptions(premise, conclusion, rule)
        fields = {key: getattr(rule, key) for key in rule.__match_args__}
        for key, current in fields.items():
            if isinstance(current, int):
                for value in (0, 9):
                    changed = type(rule)(**{**fields, key: value})
                    variants.append((f"{key}={value}", premise, conclusion, changed))
        for label, prem2, concl2, rule2 in variants:
            v = check_step(prem2, concl2, rule2)
            lines.append(f"{name} -- {label}: {'ok' if v is None else v.reason}")
    return lines


VERDICTS_SHA256 = "ef488456c7061f557bf856a4edaa1d6123b32938df63a9a62a058e183aa17d91"


def test_check_step_verdicts_are_pinned():
    # A different digest means some rule now accepts, rejects or explains an
    # instance differently; only an intended change of a rule may update it.
    lines = _check_step_verdicts()
    assert len(lines) == 554
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERDICTS_SHA256


def test_check_axiom_shape():
    assert axiom_violation(C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}")) is None
    # The axiom on ~P.
    assert axiom_violation(C("oformulas: P | ~P ; under: {1,2} ; over: {1,2}")) is None
    assert axiom_violation(C("oformulas: ~P | P ; under: {1}{2} ; over: {1,2}")) is not None
    assert axiom_violation(C("oformulas: ~P | P ; under: {1,2} ; over: {1}{2}")) is not None
    v = axiom_violation(C("oformulas: P ; under: {1} ; over: {1}"))
    assert v == Violation("axiom needs at least one formula")
    v = axiom_violation(C("oformulas: ~Q | P ; under: {1,2} ; over: {1,2}"))
    assert "not the axiom cirquent for P" in str(v)


def test_check_step_reports_invalid_cirquents():
    valid = C("oformulas: P ; under: {1} ; over: {1}")
    broken = Cirquent(valid.oformulas, (), valid.overgroups)
    rule = rule_case("or")[2]
    v = check_step(broken, valid, rule)
    assert v is not None and "invalid premise" in str(v)
    v = check_step(valid, broken, rule)
    assert v is not None and "invalid conclusion" in str(v)


def test_check_step_rejects_axiom_rule():
    c = C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}")
    v = check_step(c, c, Axiom())
    assert v is not None and "no premise" in str(v)


def test_check_step_rejects_unknown_rule():
    c = C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}")
    assert check_step(c, c, Rule()) == Violation("unknown rule Rule()")


def test_verify_p1_and_p2():
    p1 = parse_proof(read_fixture("p1.proof"))
    p2 = parse_proof(read_fixture("p2.proof"))
    assert verify_proof(p1) is None
    assert verify_proof(p2) is None
    assert verify_proof(p1, goal=parse_formula("~P \\/ P")) is None
    assert verify_proof(p2, goal=parse_formula("?~P \\/ !P")) is None


def test_verify_rejects_wrong_goal():
    p1 = parse_proof(read_fixture("p1.proof"))
    result = verify_proof(p1, goal=parse_formula("P \\/ ~P"))
    assert result is not None
    k, violation = result
    assert k == len(p1.steps)
    assert violation.reason == "last cirquent does not prove P \\/ ~P"


def test_verify_broken_proof_pinpoints_step():
    proof = parse_proof(read_fixture("p1-broken.proof"))
    result = verify_proof(proof)
    assert result is not None
    k, violation = result
    assert k == 2
    assert "premise does not split the disjunction as required" in str(violation)


def test_verify_structural_requirements():
    p1 = parse_proof(read_fixture("p1.proof"))
    k, violation = verify_proof(Proof(()))
    assert k == 1 and "empty proof" in str(violation)
    # First step must be an axiom.
    k, violation = verify_proof(Proof((p1.steps[1],)))
    assert k == 1 and "first step must be an axiom" in str(violation)
    # Axiom allowed only at step 1.
    doubled = Proof((p1.steps[0], p1.steps[0]))
    k, violation = verify_proof(doubled)
    assert k == 2 and "axiom allowed only at step 1" in str(violation)
    # A first step claiming the axiom rule on a one-oformula cirquent.
    bad_first = Proof((ProofStep(p1.steps[1].cirquent, p1.steps[0].rule),))
    k, violation = verify_proof(bad_first)
    assert k == 1 and "axiom needs at least one formula" in str(violation)


def test_parse_render_roundtrip_on_fixture_proofs():
    for name in ("p1.proof", "p2.proof"):
        proof = parse_proof(read_fixture(name))
        again = parse_proof(render_proof(proof))
        assert len(again.steps) == len(proof.steps)
        for a, b in zip(proof.steps, again.steps):
            assert a.rule == b.rule
            assert render_cirquent(a.cirquent) == render_cirquent(b.cirquent)


AXIOM_LINE = "oformulas: ~P | P ; under: {1,2} ; over: {1,2}"
PLAIN_LINE = "oformulas: P ; under: {1} ; over: {1}"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty proof file"),
        (f"step 2: rule=axiom\n{AXIOM_LINE}", "line 1: expected step 1, got 2"),
        ("step 1: rule=axiom", "step 1 has no cirquent"),
        (f"step 1: rule=frobnicate\n{PLAIN_LINE}", "unknown rule 'frobnicate'"),
        (f"step 1: rule=or\n{PLAIN_LINE}", "rule or needs parameter oformula"),
        (f"step 1: rule=or oformula=x\n{PLAIN_LINE}", "bad parameter"),
        (f"step 1: rule=axiom extra=1\n{AXIOM_LINE}", "rule axiom does not take extra"),
        (PLAIN_LINE, "expected a 'step <k>: rule=...' header"),
        ("step 1: rule=axiom\nnot a cirquent", "line 2"),
        (f"step 1: rule=pcost oformula=1 add_over={{1,2\n{PLAIN_LINE}", "bad set parameter"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos=2 pos=1\n{AXIOM_LINE}",
         "line 3: repeated parameter pos"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos={{1}}\n{AXIOM_LINE}",
         "line 3: pos must be a number, not a set"),
        ("step 1: rule=axiom\noformulas: ~P | P /\\ ; under: {1,2} ; over: {1,2}",
         "line 2: unexpected end of input"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos\n{AXIOM_LINE}",
         "line 3: bad parameter 'pos'"),
        (f"step 1: rule=pcost oformula=1 add_over=3\n{PLAIN_LINE}",
         "line 1: add_over must be a set like {1,2}"),
        # Numbers are ASCII digits only.
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos=+1\n{AXIOM_LINE}",
         "line 3: bad parameter 'pos=+1'"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos=1_0\n{AXIOM_LINE}",
         "line 3: bad parameter 'pos=1_0'"),
        (f"step \u0661: rule=axiom\n{AXIOM_LINE}", "line 1: expected a 'step <k>: rule=...' header"),
        (f"step 1: rule=pcost oformula=1 add_over={{\u0661,2}}\n{PLAIN_LINE}",
         "line 1: bad set parameter 'add_over={\u0661,2}'"),
        ("step 1: rule=axiom\noformulas: ~P | P ; under: {1, +2} ; over: {1,2}",
         "line 2: bad index in under group: '1, +2'"),
        # ... and canonical: no leading zeros.
        (f"step 01: rule=axiom\n{AXIOM_LINE}", "line 1: expected a 'step <k>: rule=...' header"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos=01\n{AXIOM_LINE}",
         "line 3: bad parameter 'pos=01'"),
        ("step 1: rule=axiom\noformulas: ~P | P ; under: {1,2} ; over: {01,2}",
         "line 2: bad index in over group: '01,2'"),
    ],
)
def test_parse_proof_errors(text, fragment):
    with pytest.raises(ProofError) as exc:
        parse_proof(text)
    assert fragment in str(exc.value)


def test_parse_proof_recovers_axiom_formulas():
    proof = parse_proof(read_fixture("p2.proof"))
    step1 = proof.steps[0]
    assert step1.rule == Axiom()
    assert step1.cirquent.oformulas[1::2] == (parse_formula("P"),)


def test_render_proof_mentions_rule_parameters():
    proof = parse_proof(read_fixture("p2.proof"))
    text = render_proof(proof)
    assert "rule=pcost" in text and "add_over=" in text
    assert "rule=pst" in text and "oformula=" in text
    assert "step 5:" in text
    assert parse_proof(text) == proof


def test_render_proof_matches_step_by_step_render():
    proofs = [parse_proof(read_fixture(name)) for name in ("p1.proof", "p2.proof")]
    rng = random.Random(8)
    for _ in range(30):
        # Sharing one formula dict makes equal oformulas one object, as
        # parse_proof does; a fresh dict per cirquent keeps them apart.
        formulas: dict = {} if rng.random() < 0.5 else None
        chain = [rng.choice(RULE_CASES) for _ in range(rng.randint(1, 12))]
        proofs.append(Proof(tuple(
            ProofStep(parse_cirquent(concl, formulas), rule) for _, _, concl, rule in chain
        )))
    for proof in proofs:
        lines = render_proof(proof).split("\n")
        assert lines[1::2] == [render_cirquent(step.cirquent) for step in proof.steps]
        assert parse_proof("\n".join(lines)) == proof


def test_repeated_cirquent_lines_parse_like_fresh_lines():
    text = read_fixture("p2.proof")
    lines = text.splitlines()
    # Steps 4 and 5 repeat step 3's line, the second time with leading blanks.
    repeated = "\n".join(lines[:4] + ["step 3: rule=dup_over pos=1",
                                       "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}{1,2}",
                                       "step 4: rule=exchange_overs pos=1",
                                       "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}{1,2}",
                                       "step 5: rule=exchange_overs pos=2",
                                       "  oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}{1,2}"])
    proof = parse_proof(repeated)
    fresh = [parse_cirquent(line.strip()) for line in repeated.splitlines()[1::2]]
    assert [step.cirquent for step in proof.steps] == fresh
    assert proof.steps[3].cirquent is proof.steps[4].cirquent
    assert verify_proof(proof) is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        # A good line seen before, under a header it does not fit.
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=or\n{AXIOM_LINE}",
         "line 3: rule or needs parameter oformula"),
        # A good line seen before, made bad by one more section.
        (f"step 1: rule=axiom\n{AXIOM_LINE}\nstep 2: rule=dup_over pos=1\n{AXIOM_LINE} ; extra: 1",
         "line 4: unknown sections: extra"),
    ],
)
def test_repeated_line_errors_keep_their_line_number(text, fragment):
    with pytest.raises(ProofError) as exc:
        parse_proof(text)
    assert fragment in str(exc.value)


def test_repeated_step_headers_give_each_step_its_own_rule():
    # Steps 2-3 and 5-6 share a header over different cirquents; step 4 is
    # an axiom again, over another cirquent, after other steps.
    steps = [
        ("rule=axiom", AXIOM_LINE),
        ("rule=dup_over pos=1", "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}"),
        ("rule=dup_over pos=1", "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}{1,2}"),
        ("rule=axiom", "oformulas: ~Q | Q | ~R | R ; under: {1,2}{3,4} ; over: {1,2}{3,4}"),
        ("rule=pcost oformula=1 add_over={2}", "oformulas: ?~P | P ; under: {1,2} ; over: {1,2}{2}"),
        ("rule=pcost oformula=1 add_over={2}", "oformulas: ?~Q | Q ; under: {1,2} ; over: {1,2}{2}"),
    ]
    proof = parse_proof("\n".join(f"step {k}: {header}\n{line}"
                                  for k, (header, line) in enumerate(steps, start=1)))
    alone = [parse_proof(f"step 1: {header}\n{line}").steps[0] for header, line in steps]
    assert list(proof.steps) == alone
    assert proof.steps[3].rule == proof.steps[0].rule == Axiom()


DUP_STEP = "step 2: rule=dup_over pos=1\noformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}"


@pytest.mark.parametrize(
    "text,fragment",
    [
        (f"step 1: rule=axiom\n{AXIOM_LINE}\n{DUP_STEP}\nstep 3: rule=dup_over pos=1\nunder: {{1}}",
         "line 6: missing sections: oformulas, over"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\n{DUP_STEP}\nstep 3: rule=dup_over pos=1\n"
         f"step 4: rule=dup_over pos=1", "line 6: step 3 has no cirquent"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\n{DUP_STEP}\nstep 4: rule=dup_over pos=1\n{AXIOM_LINE}",
         "line 5: expected step 3, got 4"),
        (f"step 1: rule=axiom\n{AXIOM_LINE}\n{DUP_STEP}\nstep 3: rule=axiom extra=1\n{AXIOM_LINE}",
         "line 5: rule axiom does not take extra"),
    ],
)
def test_repeated_header_errors_keep_their_line_number(text, fragment):
    with pytest.raises(ProofError) as exc:
        parse_proof(text)
    assert str(exc.value) == fragment
