"""Proof checking: rule instances, corruption rejection, proof files."""
import hashlib
import random

import pytest

from cl15.cirquent import Cirquent, is_valid, parse_cirquent, render_cirquent, validate_cirquent
from cl15.cl15 import (
    Axiom,
    PcostIntro,
    Proof,
    ProofError,
    ProofStep,
    PstIntro,
    Rule,
    Violation,
    Weakening,
    axiom_violation,
    check_step,
    parse_proof,
    render_proof,
    verify_proof,
)
from cl15.formula import parse_formula

from conftest import (
    C,
    LEMMA_CASES,
    RULE_CASES,
    benchmark_generator,
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


def _out_of_range_rules(rule: Rule) -> list[tuple[str, Rule]]:
    """`rule` with each number parameter set to 0 and to 9."""
    fields = {key: getattr(rule, key) for key in rule.__match_args__}
    return [(f"{key}={value}", type(rule)(**{**fields, key: value}))
            for key, current in fields.items() if isinstance(current, int)
            for value in (0, 9)]


def _check_step_variants():
    """(case name, label, premise, conclusion, rule) over the rule cases
    that have a premise: the instance, each of its single corruptions, and
    each number parameter set to 0 and to 9."""
    for name, prem, _, _ in RULE_CASES:
        if prem is None:
            continue
        premise, conclusion, rule = rule_case(name)
        variants = [("instance", premise, conclusion, rule)]
        variants += single_corruptions(premise, conclusion, rule)
        variants += [(label, premise, conclusion, changed) for label, changed in _out_of_range_rules(rule)]
        for label, prem2, concl2, rule2 in variants:
            yield name, label, prem2, concl2, rule2


def _check_step_verdicts() -> list[str]:
    """One line per check_step verdict over `_check_step_variants`."""
    lines = []
    for name, label, prem, concl, rule in _check_step_variants():
        v = check_step(prem, concl, rule)
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


def test_check_step_verdicts_keep_with_a_valid_premise():
    # The pinned verdicts validate both sides; a caller that vouches for a
    # valid premise must get the same verdict line.
    compared = 0
    for name, label, prem, concl, rule in _check_step_variants():
        if is_valid(prem):
            assert check_step(prem, concl, rule, True) == check_step(prem, concl, rule), f"{name} -- {label}"
            compared += 1
    assert compared == 490


def reference_check_step(premise, conclusion, rule, premise_valid=False):
    """check_step in the validate-first order: the premise unless
    `premise_valid`, then the conclusion, then the rule's check."""
    sides = (("premise", premise), ("conclusion", conclusion))
    for name, c in sides[premise_valid:]:
        issues = validate_cirquent(c)
        if issues:
            return Violation(f"invalid {name}: {issues[0]}")
    try:
        if rule.holds(premise, conclusion):
            return None
    except ValueError as exc:
        return Violation(str(exc))
    return Violation(rule.mismatch)


def _assert_same_verdicts(premise, conclusion, rule, label):
    """check_step agrees with the reference with both sides validated and,
    where the premise is valid, with the premise vouched for."""
    for premise_valid in (False, True) if is_valid(premise) else (False,):
        got = check_step(premise, conclusion, rule, premise_valid)
        assert got == reference_check_step(premise, conclusion, rule, premise_valid), (label, premise_valid)


def _generated_proof_texts():
    """Seeded deep-proof and long-play proofs of the benchmark's generator,
    each with a copy corrupted at a middle step."""
    gen = benchmark_generator()
    texts = []
    for seed in (1, 2, 3):
        texts.append(gen.deep_proof(random.Random(seed), 40 * seed).text())
        rng = random.Random(seed)
        texts += [gen.long_play(rng, overgroups, 2, 10).proof.text() for overgroups in (1, 2, 3)]
    return texts + [gen.corrupt(text, len(text.split("\n")) // 4) for text in texts]


def test_check_step_agrees_with_reference_on_generated_proofs():
    checked = 0
    for text in _generated_proof_texts():
        steps = parse_proof(text).steps
        for k in range(1, len(steps)):
            _assert_same_verdicts(steps[k - 1].cirquent, steps[k].cirquent, steps[k].rule, f"step {k + 1}")
            checked += 1
    assert checked > 1000


def _invalid_variants(c: Cirquent):
    """`c` made invalid one way at a time."""
    m = c.size
    for kind in ("undergroups", "overgroups"):
        groups = getattr(c, kind)

        def with_groups(gs):
            return Cirquent(c.oformulas, *((gs, c.overgroups) if kind == "undergroups" else (c.undergroups, gs)))

        yield f"{kind}: empty group first", with_groups((frozenset(),) + groups)
        yield f"{kind}: empty group last", with_groups(groups + (frozenset(),))
        yield f"{kind}: index 0", with_groups((groups[0] | {0},) + groups[1:])
        yield f"{kind}: index m+1", with_groups(groups[:-1] + (groups[-1] | {m + 1},))
        yield f"{kind}: none", with_groups(())
        for a in range(1, m + 1):
            yield f"{kind}: oformula {a} in none", with_groups(tuple(g - {a} for g in groups if g - {a}))
    yield "no oformulas", Cirquent((), c.undergroups, c.overgroups)


def test_check_step_agrees_with_reference_on_invalid_conclusions():
    checked = 0
    for name, prem, _, _ in RULE_CASES + LEMMA_CASES:
        if prem is None:
            continue
        premise, conclusion, rule = rule_case(name)
        for label, broken in _invalid_variants(conclusion):
            assert not is_valid(broken), (name, label)
            for params, rule2 in [("", rule)] + _out_of_range_rules(rule):
                _assert_same_verdicts(premise, broken, rule2, f"{name} -- {label} {params}")
                checked += 1
    assert checked == 1005


@pytest.mark.parametrize("rule,premise,conclusion", [
    (PstIntro(2), "~P | P ; under: {1,2} ; over: {1}{2}", "~P | !P ; under: {1,2} ; over: {1}"),
    (PcostIntro(1, frozenset({1})), "~P | P ; under: {1,2} ; over: {1,2}", "?~P | P ; under: {1,2} ; over: {2}"),
    (Weakening(1, 3), "~P | P ; under: {1,2} ; over: {1,2}", "~P | P | P ; under: {1,2,3} ; over: {1,2}"),
])
def test_backward_rules_validate_the_conclusions_they_accept(rule, premise, conclusion):
    # Each backward check holds on a valid premise and an invalid
    # conclusion, so these rules cannot skip validating it.
    premise, conclusion = C(f"oformulas: {premise}"), C(f"oformulas: {conclusion}")
    assert rule.holds(premise, conclusion)
    for premise_valid in (False, True):
        v = check_step(premise, conclusion, rule, premise_valid)
        assert v is not None and v.reason.startswith("invalid conclusion: oformula ")
        assert v.reason.endswith(" in no overgroup")


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
