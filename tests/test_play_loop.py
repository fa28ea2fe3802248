"""The play loop against a plain reference loop, and the `settled` contract.

`strategy.play` stops asking both players once the environment passes a
grant and both report themselves settled, and its environment reads the
referee's position.  `reference_simulate` below asks both players at every
turn of the budget, and its environment watches a position of its own that
follows the run.  Every play here must give equal `SimResult`s both ways.
CI runs this module against mutants of the settling code, and each must
make it fail."""
from __future__ import annotations

import random
from collections import deque

import pytest

from cl15.cl15 import parse_proof
from cl15.cli import parse_interpretation
from cl15.formula import atoms, parse_formula
from cl15.games import EnumerationGame, interpret_cirquent, interpret_formula, parse_finite_game
from cl15.harness import (
    SEPARATION_TARGET,
    RotatingCopycat,
    ScriptMachine,
    loop_counterstrategy,
    random_adversary,
    random_finite_interpretation,
    scripted_adversary,
)
from cl15.runs import BOT, TOP, Labmove
from cl15.strategy import (
    GRANT,
    AxiomStrategy,
    GrantPermission,
    MakeMove,
    Pipeline,
    PureGranter,
    ScriptEnv,
    SilentEnv,
    SimResult,
    extract_solution,
    play,
    proof_goal,
    simulate,
)

from conftest import generated_proof, read_fixture

BUDGETS = (1, 7, 200, 2000)


def reference_simulate(m, e, game, budget) -> SimResult:
    """`simulate` as a plain loop: both players are asked at every turn,
    and the environment watches a position of its own, extended with each
    labmove as the referee's is."""
    machine, env = m.spawn(), e.spawn()
    referee, own = game.start(), game.start()
    env.watch(own)
    run: list[Labmove] = []
    trace: list[str] = []
    grants = 0
    for step in range(1, budget + 1):
        action = machine.next(run, step)
        lm = None
        if isinstance(action, MakeMove):
            lm = Labmove(TOP, action.move)
            trace.append(f"{step} M:move {action.move}")
        elif isinstance(action, GrantPermission):
            grants += 1
            trace.append(f"{step} M:grant")
            move = env.on_grant(run)
            if move is not None:
                lm = Labmove(BOT, move)
                trace.append(f"{step} E:{move}")
        else:
            trace.append(f"{step} M:idle")
            break
        if lm is not None:
            run.append(lm)
            referee.extend(lm)
            own.extend(lm)
            if referee.offender is not None:
                break
    first_illegality = None
    if referee.offender is not None:
        who = "machine" if referee.offender is TOP else "environment"
        first_illegality = f"{who} offender: move {run[-1].move!r} is illegal"
    return SimResult(tuple(run), referee.winner(), grants, step, first_illegality, trace)


def assert_same_play(machine, env, game, budget) -> SimResult:
    expected = reference_simulate(machine, env, game, budget)
    assert simulate(machine, env, game, budget) == expected
    return expected


def adversaries(machine, game, seed):
    """Silent, random, scripted, and what a `script:` file gives: the moves
    the random adversary played, and on odd seeds one no game allows."""
    moves = [lm.move for lm in simulate(machine, random_adversary(seed), game, 200).run
             if lm.player is BOT]
    return [
        SilentEnv(),
        random_adversary(seed),
        scripted_adversary(tuple(random.Random(seed).randrange(7) for _ in range(24))),
        ScriptEnv(moves + ["zzz"] if seed % 2 else moves),
    ]


def games(proof, formula_level, seed):
    """The proof's game under a random interpretation, and under the
    fixture interpretation when the proof has the one atom P."""
    goal, _ = proof_goal(proof, formula_level)
    interpret = interpret_formula if formula_level else interpret_cirquent
    names = atoms(goal) if formula_level else set().union(*map(atoms, goal.oformulas))
    yield interpret(goal, random_finite_interpretation(sorted(names), 2, 2, seed))
    if names == {"P"}:
        yield interpret(goal, parse_interpretation(read_fixture("interp.txt")))


def separation_game():
    return interpret_formula(parse_formula(SEPARATION_TARGET),
                             {"P": EnumerationGame(lambda run: False)})


# --- simulate against the reference loop ----------------------------------------

@pytest.mark.parametrize("name", ["p1", "p2"])
@pytest.mark.parametrize("formula_level", [False, True], ids=["cirquent", "formula"])
def test_fixture_plays_match_the_reference_loop(name, formula_level):
    proof = parse_proof(read_fixture(f"{name}.proof"))
    machine = extract_solution(proof, formula_level=formula_level)
    labmoves = 0
    for seed in range(50):
        for game in games(proof, formula_level, seed):
            for k, env in enumerate(adversaries(machine, game, seed)):
                budget = BUDGETS[(seed + k) % len(BUDGETS)]
                labmoves += len(assert_same_play(machine, env, game, budget).run)
    assert labmoves > 0


@pytest.mark.parametrize("seed", range(3))
def test_generated_proof_plays_match_the_reference_loop(seed):
    proof = generated_proof(seed)
    machine = extract_solution(proof)
    for game_seed in range(12):
        for game in games(proof, False, game_seed):
            for k, env in enumerate(adversaries(machine, game, game_seed)):
                assert_same_play(machine, env, game, BUDGETS[(game_seed + k) % len(BUDGETS)])


@pytest.mark.parametrize("budget", BUDGETS)
def test_stateful_machine_plays_match_the_reference_loop(budget):
    game = separation_game()
    # A script that grants, then moves again: it is settled only at its end.
    scripts = [["1.1.3", None, None, "2..4", None, None, None, "1.2.7"], [None] * 5 + ["2.0.1"]]
    machines = [ScriptMachine(script) for script in scripts] + [RotatingCopycat(), PureGranter()]
    envs = [SilentEnv(), ScriptEnv(["2..1", "1.1.2"])]
    for seed in range(8):
        envs += [random_adversary(seed), loop_counterstrategy(seed + 1)]
    for env in envs:
        for machine in machines:
            assert_same_play(machine, env, game, budget)


# --- the settled contract ---------------------------------------------------------

def rebuilt_machine(machine, run, calls):
    """A fresh spawn of `machine` asked as the played one was, at each
    `(run length, step)` of `calls`, and the run it was shown, now whole."""
    fresh, shown = machine.spawn(), []
    for n, step in calls:
        shown += run[len(shown):n]
        fresh.next(shown, step)
    shown += run[len(shown):]
    return fresh, shown


def rebuilt_env(env, game, run, calls):
    """A fresh spawn of `env` granted as the played one was, at each run
    length of `calls`, and the run it was shown, now whole."""
    fresh, shown, position = env.spawn(), [], game.start()
    fresh.watch(position)

    def show(n):
        for lm in run[len(shown):n]:
            shown.append(lm)
            position.extend(lm)

    for n in calls:
        show(n)
        fresh.on_grant(shown)
    show(len(run))
    return fresh, shown


def check_settled(machine, env, game, budget) -> int:
    """Play both players, asking both at every turn.  The first time one
    reports itself settled on a run, a fresh spawn that was asked the same
    and shown the same run is asked 100 more times: a settled machine must
    grant each time, a settled environment pass.  The number of checks."""
    m, e = machine.spawn(), env.spawn()
    position = game.start()
    e.watch(position)
    run: list[Labmove] = []
    machine_calls, env_calls, checked = [], [], set()
    for step in range(1, budget + 1):
        if m.settled(run) and ("machine", len(run)) not in checked:
            checked.add(("machine", len(run)))
            fresh, shown = rebuilt_machine(machine, run, machine_calls)
            assert fresh.settled(shown)
            assert [fresh.next(shown, step + i) for i in range(100)] == [GRANT] * 100
        machine_calls.append((len(run), step))
        action = m.next(run, step)
        if isinstance(action, MakeMove):
            lm = Labmove(TOP, action.move)
        elif isinstance(action, GrantPermission):
            if e.settled() and ("env", len(run)) not in checked:
                checked.add(("env", len(run)))
                fresh, shown = rebuilt_env(env, game, run, env_calls)
                assert fresh.settled()
                assert [fresh.on_grant(shown) for _ in range(100)] == [None] * 100
            env_calls.append(len(run))
            move = e.on_grant(run)
            if move is None:
                continue
            lm = Labmove(BOT, move)
        else:
            break
        run.append(lm)
        position.extend(lm)
        if position.offender is not None:
            break
    return len(checked)


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_a_settled_player_keeps_granting_or_passing(name):
    proof = parse_proof(read_fixture(f"{name}.proof"))
    checks = 0
    for formula_level in (False, True):
        machine = extract_solution(proof, formula_level=formula_level)
        for seed in range(25):
            for game in games(proof, formula_level, seed):
                for env in adversaries(machine, game, seed):
                    checks += check_settled(machine, env, game, 200)
    game = separation_game()
    for seed in range(10):
        for machine in (RotatingCopycat(), PureGranter(), ScriptMachine(["1.1.3", None, "2..4"])):
            for env in (loop_counterstrategy(seed + 1), random_adversary(seed), SilentEnv()):
                checks += check_settled(machine, env, game, 200)
    # The environment may move only after the machine's `m`, and then twice:
    # its grants run out while it still has a move.
    chain = parse_finite_game("finitegame\n() => B\nT m => B\nT m; B a => B\nT m; B a; B b => T\n")
    for env in (random_adversary(0), scripted_adversary([1])):
        checks += check_settled(ScriptMachine([None] * 28 + ["m"]), env, chain, 200)
    assert checks >= 500


@pytest.mark.parametrize("machine, run", [
    (AxiomStrategy(1), [Labmove(BOT, (1, (1,), "a")), Labmove(BOT, (2, (1,), "b"))]),
    (RotatingCopycat(), [Labmove(BOT, "2..1"), Labmove(BOT, "1.1.2")]),
])
def test_a_machine_with_answers_queued_is_not_settled(machine, run):
    # Under `play` one environment move comes between two turns; shown two
    # at once, the machine answers one per turn.
    machine = machine.spawn()
    assert isinstance(machine.next(run, 1), MakeMove)
    assert not machine.settled(run)
    assert isinstance(machine.next(run, 2), MakeMove)
    assert machine.settled(run)


class _CountingAxiom(AxiomStrategy):
    """The axiom strategy, logging the step of each time it is asked."""

    def __init__(self, n, log):
        super().__init__(n)
        self.log = log

    def spawn(self):
        return _CountingAxiom(self.n, self.log)

    def next(self, run, step):
        self.log.append(step)
        return super().next(run, step)


def test_a_long_silent_play_stops_asking_its_players():
    proof = parse_proof(read_fixture("p2.proof"))
    strategy = extract_solution(proof)
    log: list[int] = []
    machine = Pipeline(_CountingAxiom(strategy.base.n, log), strategy.translators)
    game = next(games(proof, False, 0))
    events = play(machine.spawn(), SilentEnv(), game.start(), 1_000_000)
    assert deque(events, maxlen=1) == deque([(1_000_000, GRANT, None)])
    assert len(log) <= 3
