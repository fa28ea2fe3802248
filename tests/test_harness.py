"""Testing harness: independent win/legality oracles, random generators,
adversaries, and the bounded separation demonstration."""
import random

import pytest

from cl15.cirquent import parse_cirquent, validate_cirquent
from cl15.cli import parse_interpretation
from cl15.cl15 import parse_proof
from cl15.formula import parse_formula, render_formula
from cl15.games import interpret_cirquent, interpret_formula
from cl15 import harness
from cl15.harness import (
    HarnessError,
    ScriptMachine,
    brute_force_legal,
    brute_force_winner,
    cycle_chooser,
    loop_counterstrategy,
    random_adversary,
    random_finite_game,
    random_finite_interpretation,
    random_formula,
    scripted_adversary,
    separation_demo,
    shortlex_bitstring,
)
from cl15.runs import BOT, TOP, Labmove
from cl15.strategy import EnvStrategy, PureGranter, extract_solution, simulate

from conftest import C, move_builder, random_cirquent, random_run, read_fixture


# --- oracles -----------------------------------------------------------------

# Random runs mostly leave the atoms' trees, so they test the oracle through
# the offender rule; runs of listed moves test it on long legal runs.

def _listed_run(game, rng: random.Random, length: int) -> tuple[Labmove, ...]:
    """A legal run of up to `length` labmoves, each one of the moves that
    the position lists for either player, chosen by `rng`."""
    pos, run = game.start(), ()
    for _ in range(length):
        listed = [Labmove(player, m) for player in (TOP, BOT) for m in pos.moves(player)]
        if not listed:
            break
        lm = listed[rng.randrange(len(listed))]
        assert pos.extend(lm)
        run += (lm,)
    return run


def _check_oracle(subject, interp, game, runs) -> int:
    """The oracle agrees with the game on each run; returns how many of
    them are legal with 3 or more labmoves."""
    long_legal = 0
    for run in runs:
        legal = brute_force_legal(subject, interp, run)
        assert legal == game.legal(run)
        assert brute_force_winner(subject, interp, run) is game.winner(run)
        long_legal += legal and len(run) >= 3
    return long_legal


def test_oracle_agrees_on_formula_games():
    interp = random_finite_interpretation(["P", "Q"], 2, 2, 11)
    rng, listing = random.Random(11), random.Random(111)
    long_legal = 0
    for i in range(40):
        f = random_formula(rng, ("P", "Q"), depth=2)
        game = interpret_formula(f, interp)
        runs = [random_run(f, interp, rng, rng.randint(0, 6)) for _ in range(4)]
        runs += [_listed_run(game, listing, 6) for _ in range(2)]
        long_legal += _check_oracle(f, interp, game, runs)
    assert long_legal >= 30


def test_oracle_agrees_on_cirquent_games():
    interp = random_finite_interpretation(["P", "Q"], 2, 2, 12)
    rng, listing = random.Random(12), random.Random(112)
    long_legal = 0
    for i in range(31):
        # random_cirquent draws one or two overgroups; the last input has three.
        c = (random_cirquent(rng, ("P", "Q"), max_size=3, depth=1) if i < 30
             else C("oformulas: ~P | P | ~P | P ; under: {1,2}{3,4} ; over: {1,2}{3,4}{1,3}"))
        assert not validate_cirquent(c)
        game = interpret_cirquent(c, interp)
        runs = [random_run(c, interp, rng, rng.randint(0, 5)) for _ in range(3)]
        runs += [_listed_run(game, listing, 6) for _ in range(2)]
        long_legal += _check_oracle(c, interp, game, runs)
    assert long_legal >= 30


def test_oracle_handles_axiom_copycat_run():
    c = C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}")
    interp = random_finite_interpretation(["P"], 2, 2, 0)
    run = (Labmove(BOT, "1;1.m"), Labmove(TOP, "2;1.m"))
    game = interpret_cirquent(c, interp)
    assert brute_force_winner(c, interp, ()) is game.winner(()) is TOP
    assert brute_force_winner(c, interp, run) is game.winner(run)


@pytest.mark.parametrize("subject, move", [
    ("?P", "\u0661.m"),  # an Arabic-Indic one as the copy index
    ("?P", "\u00b2.m"),  # a superscript two, which int() rejects
    ("oformulas: ?P ; under: {1} ; over: {1}", "1;1.\u0661.m"),
    ("oformulas: ?P ; under: {1} ; over: {1}", "\u0661;1.1.m"),
])
def test_oracle_reads_ascii_numerals_only(subject, move):
    interp = parse_interpretation(read_fixture("interp.txt"))
    if subject.startswith("oformulas:"):
        structure = parse_cirquent(subject)
        game = interpret_cirquent(structure, interp)
    else:
        structure = parse_formula(subject)
        game = interpret_formula(structure, interp)
    run = (Labmove(TOP, move),)
    assert brute_force_legal(structure, interp, run) is game.legal(run) is False
    assert brute_force_winner(structure, interp, run) is game.winner(run)


# --- generators ----------------------------------------------------------------

def test_random_finite_interpretation_is_seed_reproducible():
    a = random_finite_interpretation(["P", "Q"], 2, 2, 7)
    b = random_finite_interpretation(["Q", "P"], 2, 2, 7)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tree == b[name].tree
        assert a[name].labels == b[name].labels
    c = random_finite_interpretation(["P"], 2, 2, 8)
    assert c["P"].tree != a["P"].tree or c["P"].labels != a["P"].labels


def test_random_finite_interpretation_bounds():
    g = random_finite_interpretation(["P"], 2, 2, 5)["P"]
    assert len(g.tree) <= 7  # depth-2 binary tree
    with pytest.raises(HarnessError):
        random_finite_interpretation(["P"], 0, 2, 5)


def test_random_finite_game_stops_past_the_node_cap(monkeypatch):
    with pytest.raises(HarnessError, match="lower --depth or --branching"):
        random_finite_interpretation(["P"], 100, 100, 0)
    size = len(random_finite_game(random.Random(3), 5, 12).labels)
    assert size == 12702
    monkeypatch.setattr(harness, "RANDOM_GAME_MAX_NODES", size)
    assert len(random_finite_game(random.Random(3), 5, 12).labels) == size
    monkeypatch.setattr(harness, "RANDOM_GAME_MAX_NODES", size - 1)
    with pytest.raises(HarnessError, match="over 12,701 positions"):
        random_finite_game(random.Random(3), 5, 12)


def test_random_structures_are_wellformed():
    rng = random.Random(9)
    for _ in range(25):
        f = random_formula(rng, ("P", "Q"), depth=3)
        assert parse_formula(render_formula(f)) == f
        c = random_cirquent(rng, ("P", "Q"))
        assert not validate_cirquent(c)


def test_move_builder_produces_structure_shaped_moves():
    f = parse_formula("P \\/ !Q")
    builder = move_builder(f, {})
    mv = builder(cycle_chooser([0]))
    assert mv == "1.1"  # component 1, fallback alphabet
    mv = builder(cycle_chooser([1, 0]))
    assert mv.startswith("2.")  # recurrence copy inside component 2
    c = C("oformulas: P | Q ; under: {1,2} ; over: {1}{2}")
    cmv = move_builder(c, {})(cycle_chooser([0]))
    assert cmv == "1;1,0.1"


def test_random_run_mixes_junk():
    f = parse_formula("P")
    rng = random.Random(3)
    run = random_run(f, {}, rng, 50, junk_rate=0.5)
    assert len(run) == 50
    moves = {lm.move for lm in run}
    assert moves & {"x", "0", "9.9.9.9", ";", "1;;.m"}


# --- counterstrategy ------------------------------------------------------------

def test_shortlex_bitstrings():
    firsts = [shortlex_bitstring(i) for i in range(1, 9)]
    assert firsts == ["", "0", "1", "00", "01", "10", "11", "000"]
    with pytest.raises(HarnessError):
        shortlex_bitstring(0)


def test_loop_counterstrategy_emits_fresh_numbers_per_thread():
    env = loop_counterstrategy(3).spawn()
    run = []
    moves = []
    for _ in range(5):
        mv = env.on_grant(tuple(run))
        if mv is None:
            break
        moves.append(mv)
        run.append(Labmove(BOT, mv))
    assert moves == ["2..1", "2.0.2", "2.1.3"]
    # Freshness scans the whole visible run, not just its own moves.
    env2 = loop_counterstrategy(1).spawn()
    mv = env2.on_grant((Labmove(TOP, "1.9"),))
    assert mv == "2..10"
    with pytest.raises(HarnessError):
        loop_counterstrategy(0)


# --- adversaries -------------------------------------------------------------------

def test_structured_adversaries_stay_legal():
    proof = parse_proof(read_fixture("p2.proof"))
    interp = random_finite_interpretation(["P"], 2, 2, 4)
    last = proof.steps[-1].cirquent
    game = interpret_cirquent(last, interp)
    machine = extract_solution(proof)
    for adv in (
        random_adversary(4),
        scripted_adversary([0, 1, 2, 1]),
    ):
        assert simulate(machine, adv, game, 120).winner is TOP, adv.name


class _Watched(EnvStrategy):
    """An adversary's answers, next to the moves a position that follows
    the same run lists for the environment at each grant.  The adversary
    watches the play's position; this one is replayed from the run."""

    def __init__(self, adversary, game, log):
        self.adversary, self.game, self.log = adversary, game, log
        self.position, self.seen = game.start(), 0

    def spawn(self):
        return _Watched(self.adversary.spawn(), self.game, self.log)

    def watch(self, position):
        self.adversary.watch(position)

    def on_grant(self, run):
        for lm in run[self.seen:]:
            self.position.extend(lm)
        self.seen = len(run)
        listed = self.position.moves(BOT)
        move = self.adversary.on_grant(run)
        self.log.append((listed, move))
        return move


def test_structured_adversaries_move_whenever_they_can():
    full = 0
    for name in ("p1", "p2"):
        proof = parse_proof(read_fixture(f"{name}.proof"))
        last = proof.steps[-1].cirquent
        machine = extract_solution(proof)
        for seed in range(10):
            interp = random_finite_interpretation(["P"], 2, 2, seed)
            game = interpret_cirquent(last, interp)
            for adv in (random_adversary(seed), scripted_adversary([seed, 3, 1])):
                log = []
                simulate(machine, _Watched(adv, game, log), game, 120)
                made = 0
                for grant, (listed, move) in enumerate(log, start=1):
                    if made == adv.MAX_MOVES or grant > adv.MAX_GRANTS:
                        assert move is None
                    elif listed:
                        assert move in listed, (name, seed, adv.name, grant)
                        made += 1
                    else:
                        assert move is None
                full += made == adv.MAX_MOVES
    assert full >= 30


# --- script machine ---------------------------------------------------------------------

def test_script_machine_plays_then_grants():
    m = ScriptMachine(["a", None, "b"]).spawn()
    acts = [m.next((), i).__class__.__name__ for i in range(1, 6)]
    assert acts == ["MakeMove", "GrantPermission", "MakeMove",
                    "GrantPermission", "GrantPermission"]


# --- separation demo -----------------------------------------------------------------

def test_separation_demo_bounded_check():
    report = separation_demo(PureGranter(), 4, 100)
    assert report.k == 4
    assert len(report.gamma) == 4
    assert len(report.omega) == 0
    assert report.distinct
    assert report.witness is not None
    assert report.winner is BOT
    assert report.conclusive
    assert "verdict" in report.render() or "separation" in report.render()


def test_separation_demo_is_inconclusive_before_all_threads_open():
    assert separation_demo(PureGranter(), 8, 3).conclusive is False
