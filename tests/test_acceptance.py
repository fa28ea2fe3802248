"""Acceptance criteria, one test per criterion.

Each test does the full workload, asserts correctness and the stated time
bound, and prints exactly one `criterion N: PASS` line (live, bypassing
capture) so a test-run transcript shows the checklist at a glance.
"""
import random
import time
from pathlib import Path

from cl15.cirquent import as_clubsuit
from cl15.cl15 import parse_proof, verify_proof
from cl15.formula import parse_formula, render_formula
from cl15.games import interpret_cirquent, interpret_formula
from cl15.harness import (
    brute_force_legal,
    brute_force_winner,
    random_adversary,
    random_cirquent,
    random_finite_interpretation,
    random_formula,
    scripted_adversary,
    separation_demo,
)
from cl15.runs import (
    BOT,
    TOP,
    InfiniteBitstring,
    Labmove,
    negate_run,
    parse_run,
    project_branch,
    project_cell,
    project_prefix,
)
from cl15.strategy import PureGranter, SilentEnv, extract_solution, simulate

from conftest import (
    IDENTITY_CHECKS,
    RULE_CASES,
    instance_accepted,
    random_run,
    read_fixture,
    rule_case,
    single_corruptions,
)
from test_runs import _projectors, _random_run


def _report(capsys, n: int, desc: str, elapsed: float, bound: float) -> None:
    with capsys.disabled():
        print(f"criterion {n}: PASS — {desc} [{elapsed:.2f}s < {bound:.0f}s]")


def test_criterion_1_projections(capsys):
    start = time.perf_counter()
    # Three worked examples, verbatim.
    run = parse_run("T 1.alpha\nB 2.beta\nT 1.gamma\nB 2.delta")
    assert project_prefix(run, "1.") == (Labmove(TOP, "alpha"), Labmove(TOP, "gamma"))
    run = parse_run("B 10.alpha\nT 111.beta\nB 1.gamma\nB 00.alpha")
    assert project_branch(run, InfiniteBitstring("", "1")) == (
        Labmove(TOP, "beta"),
        Labmove(BOT, "gamma"),
    )
    run = parse_run("B 1;1,1.alpha\nT 1;1,2.beta\nB 1;1,0.gamma\nB 2;1,0.delta")
    assert project_cell(run, 1, (1, 2)) == (Labmove(TOP, "beta"), Labmove(BOT, "gamma"))
    # Randomized algebra: concatenation homomorphism, label-flip commutation,
    # prefix monotonicity, for prefix/branch/cell projections.
    rng = random.Random(424242)
    checks = 0
    for _ in range(40):
        r1 = _random_run(rng, rng.randrange(9))
        r2 = _random_run(rng, rng.randrange(9))
        k = rng.randrange(len(r1) + 1)
        for proj in _projectors(rng):
            assert proj(r1 + r2) == proj(r1) + proj(r2)
            assert proj(negate_run(r1)) == negate_run(proj(r1))
            head = proj(r1[:k])
            assert proj(r1)[: len(head)] == head
            checks += 3
    assert checks >= 500
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(capsys, 1, f"3 worked projections verbatim + {checks} property checks",
            elapsed, 1.0)


def test_criterion_2_oracle_agreement(capsys):
    start = time.perf_counter()
    rng = random.Random(20260819)
    agreements = 0
    total = 0
    for i in range(250):
        f = random_formula(rng, ("P", "Q"), depth=rng.randint(0, 3))
        interp = random_finite_interpretation(
            ["P", "Q"], rng.randint(1, 3), rng.randint(1, 2), i
        )
        game = interpret_formula(f, interp)
        run = random_run(f, interp, rng, rng.randint(0, 8))
        total += 1
        if brute_force_legal(f, interp, run) == game.legal(run) and (
            brute_force_winner(f, interp, run) is game.winner(run)
        ):
            agreements += 1
    for i in range(150):
        c = random_cirquent(rng, ("P", "Q"), max_size=3, depth=2)
        interp = random_finite_interpretation(
            ["P", "Q"], rng.randint(1, 3), rng.randint(1, 2), 1000 + i
        )
        game = interpret_cirquent(c, interp)
        run = random_run(c, interp, rng, rng.randint(0, 8))
        total += 1
        if brute_force_legal(c, interp, run) == game.legal(run) and (
            brute_force_winner(c, interp, run) is game.winner(run)
        ):
            agreements += 1
    assert total >= 400
    assert agreements == total
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(capsys, 2,
            f"game semantics vs independent oracle: {agreements}/{total} agree",
            elapsed, 30.0)


def test_criterion_3_rule_instances_and_corruptions(capsys):
    start = time.perf_counter()
    accepted = 0
    rejected = 0
    for name, _, _, _ in RULE_CASES:
        premise, conclusion, rule = rule_case(name)
        assert instance_accepted(premise, conclusion, rule), name
        accepted += 1
        for label, prem2, concl2, rule2 in single_corruptions(premise, conclusion, rule):
            assert not instance_accepted(prem2, concl2, rule2), f"{name} -- {label}"
            rejected += 1
    assert accepted == len(RULE_CASES) == 16
    assert rejected >= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(capsys, 3,
            f"all {accepted} rule illustrations accepted, "
            f"{rejected} single-token corruptions rejected",
            elapsed, 5.0)


def test_criterion_4_fixture_proofs_verify(capsys):
    start = time.perf_counter()
    p1 = parse_proof(read_fixture("p1.proof"))
    p2 = parse_proof(read_fixture("p2.proof"))
    assert verify_proof(p1, goal=parse_formula("~P \\/ P")) is None
    assert verify_proof(p2, goal=parse_formula("?~P \\/ !P")) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(capsys, 4, "both bundled proofs verify against their goals",
            elapsed, 1.0)


def test_criterion_5_extracted_strategies_win(capsys):
    start = time.perf_counter()
    budget = 200
    passed = 0
    total = 0
    for proof_name in ("p1.proof", "p2.proof"):
        proof = parse_proof(read_fixture(proof_name))
        last = proof.steps[-1].cirquent
        for formula_level in (False, True):
            machine = extract_solution(proof, formula_level=formula_level)
            goal = as_clubsuit(last) if formula_level else last
            assert goal is not None
            interpret = interpret_formula if formula_level else interpret_cirquent
            for s in range(100):
                interp = random_finite_interpretation(["P"], 2, 2, s)
                game = interpret(goal, interp)
                kind = s % 3
                if kind == 0:
                    adversary = SilentEnv()
                elif kind == 1:
                    adversary = random_adversary(s)
                else:
                    script = tuple(random.Random(s).randrange(7) for _ in range(24))
                    adversary = scripted_adversary(script)
                won = simulate(machine, adversary, game, budget).winner is TOP
                total += 1
                passed += won
                assert won, (
                    f"{proof_name} formula_level={formula_level} "
                    f"seed={s} adversary={adversary.name}"
                )
    assert passed == total == 400
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 5,
            f"extracted strategies won {passed}/{total} seeded plays "
            "(2 proofs x 2 levels x 100 trials, budget 200)",
            elapsed, 60.0)


def test_criterion_6_run_correspondence_identities(capsys):
    start = time.perf_counter()
    plays = 0
    for label, check in IDENTITY_CHECKS:
        for seed in range(50):
            check(seed)
            plays += 1
    assert plays == 50 * len(IDENTITY_CHECKS)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 6,
            f"translator run-correspondence identities: {len(IDENTITY_CHECKS)} "
            "families x 50 seeded plays",
            elapsed, 60.0)


def test_criterion_7_separation_demo(capsys):
    start = time.perf_counter()
    report = separation_demo(PureGranter(), 8, 200)
    assert len(report.gamma) == 8
    assert report.distinct
    assert report.witness is not None
    assert report.winner is BOT
    assert report.conclusive
    assert "verdict: separation upheld at bound k=8" in report.render()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(capsys, 7,
            "bounded separation demo conclusive at k=8 "
            "(distinct threads, witness found, final position environment-won)",
            elapsed, 5.0)


def test_criterion_8_separation_formulas_parse_only(capsys):
    start = time.perf_counter()
    lines = [
        ln.strip()
        for ln in read_fixture("separation-formulas.txt").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    assert len(lines) == 2
    parsed = [parse_formula(ln) for ln in lines]
    assert parsed[0] != parsed[1]
    # Round-trippable, so they are first-class formulas...
    for f in parsed:
        assert parse_formula(render_formula(f)) == f
    # ...and the scope boundary is documented for users.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "Known limitations" in readme
    assert "separation-formulas.txt" in readme
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(capsys, 8,
            "recurrence-separation formulas parse and round-trip; "
            "their play is documented as out of scope",
            elapsed, 1.0)
