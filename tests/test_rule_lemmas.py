"""The paper's soundness lemma, one rule at a time: a rule's translator keeps
a premise strategy winning whatever the environment does.

Each case plays an inner machine on the premise through the rule's
translator, inside the cirquent edge, against `random_adversary` on the
conclusion, and reads the inner run through `conftest.recording`.  On
every play three things must hold: if the inner run is won by T on the
premise, the real run is won by T on the conclusion; if the inner machine
never offends on the premise, the real run has no machine offence; and if
the environment never offends on the conclusion, it never offends in the
inner run either, so that a translator cannot count as winning by making
the environment's legal moves illegal in the premise.

The inner machine plays random moves that its premise position lists.
Where that wins too few premises, a mirror plays instead, on an
interpretation of every atom as `~g \\/ g` for a random finite game g: it
answers each environment move on one side of a cell with the same move on
the other side, so it wins every cell of the premise."""
from __future__ import annotations

import random

import pytest

from cl15 import cl15 as rules
from cl15.formula import atoms, parse_formula
from cl15.games import interpret_cirquent, interpret_formula
from cl15.harness import random_adversary, random_finite_interpretation
from cl15.runs import BOT, TOP, Labmove, format_cell_move, split_cell_move, split_index_move
from cl15.strategy import GRANT, MachineStrategy, MakeMove, simulate

from conftest import LEMMA_CASES, RULE_CASES, C, as_texts, transform_strategy

CASES = [case for case in RULE_CASES if case[1] is not None] + LEMMA_CASES

# Cases whose premise random play wins on fewer than MIN_WON of the seeds.
MIRRORED = {"exchange_oformulas", "exchange_unders", "dup_under", "merging", "weakening",
            "and", "pst", "pcost", "pcost_plain"}

SEEDS = 100
BUDGET = 60
MIN_WON = 20


class RandomInner(MachineStrategy):
    """Follows a premise position and, at each turn with probability 1/2,
    plays one of the moves it lists for T, up to `MAX_MOVES` in all."""

    MAX_MOVES = 6

    def __init__(self, game, seed: int):
        self.game, self.seed = game, seed
        self._rng = random.Random(seed)
        self._position = game.start()
        self._seen = self._made = 0

    def spawn(self) -> "RandomInner":
        return RandomInner(self.game, self.seed)

    def next(self, run, step):
        for lm in run[self._seen:]:
            self._position.extend(Labmove(lm.player, format_cell_move(*lm.move)))
        self._seen = len(run)
        if self._made < self.MAX_MOVES and self._rng.random() < 0.5:
            moves = self._position.moves(TOP)
            if moves:
                self._made += 1
                return MakeMove(split_cell_move(moves[self._rng.randrange(len(moves))]))
        return GRANT


class MirrorInner(MachineStrategy):
    """Answers each environment move `k.x` in a cell with `(3-k).x` in the
    same cell, in turn; for premises of atoms each interpreted as `~g \\/ g`."""

    def __init__(self):
        self._seen = 0
        self._queue: list = []

    def spawn(self) -> "MirrorInner":
        return MirrorInner()

    def next(self, run, step):
        for lm in run[self._seen:]:
            if lm.player is BOT:
                a, coords, payload = lm.move
                side, rest = split_index_move(payload)
                self._queue.append((a, coords, f"{3 - side}.{rest}"))
        self._seen = len(run)
        return MakeMove(self._queue.pop(0)) if self._queue else GRANT


@pytest.mark.parametrize("name, premise, conclusion, rule", CASES,
                         ids=[case[0] for case in CASES])
def test_translator_keeps_the_premise_won(name, premise, conclusion, rule):
    premise, conclusion = C(premise), C(conclusion)
    names = sorted(set().union(*map(atoms, conclusion.oformulas)))
    mirrored = name in MIRRORED
    won = 0
    for seed in range(SEEDS):
        interp = random_finite_interpretation(names, 2, 2, seed)
        if mirrored:
            interp = {atom: interpret_formula(parse_formula("~X \\/ X"), {"X": g}) for atom, g in interp.items()}
        inner_game = interpret_cirquent(premise, interp)
        game = interpret_cirquent(conclusion, interp)
        log: list[Labmove] = []
        inner = MirrorInner() if mirrored else RandomInner(inner_game, seed)
        machine = transform_strategy(rule, premise, conclusion, inner, log)
        result = simulate(machine, random_adversary(seed), game, BUDGET)
        inner_run = as_texts(log)
        if inner_game.offender(inner_run) is not TOP:
            assert game.offender(result.run) is not TOP, (seed, result.run, inner_run)
        if game.offender(result.run) is not BOT:
            assert inner_game.offender(inner_run) is not BOT, (seed, result.run, inner_run)
        if inner_game.winner(inner_run) is TOP:
            won += 1
            assert result.winner is TOP, (seed, result.run, inner_run)
    assert won >= MIN_WON
