"""The from-scratch, projection-based legality and winner of every game,
kept as a test-only reference for the incremental positions in
`cl15.games`.

Each function judges a whole run at once: composite games project the run
onto every component (every touched copy, every thread representative,
every candidate coordinate vector) and judge the projections afresh.  The
offender is found by judging every prefix.  This is slow, cubic in run
length and exponential in the number of overgroups, and it is meant to be:
it is the direct reading of the definitions that the positions must agree
with.

It also keeps the set-based finite game, its parser and its random
generator, as the reference for the trie that `cl15.games.finite_game` and
`cl15.harness.random_finite_game` build: a prefix-closed set of runs and a
label per run, judged by set membership alone.
"""
from __future__ import annotations

import random

from cl15.formula import And, Cost, NegAtom, Or, Pcost, Pst, St
from cl15.games import (
    CirquentGame,
    EnumerationGame,
    FiniteGame,
    FormulaGame,
    Game,
    GameError,
    thread_representatives,
)
from cl15.runs import (
    BOT,
    TOP,
    Labmove,
    Player,
    Run,
    is_numeral,
    negate_run,
    project_branch,
    project_cell,
    project_prefix,
    split_bit_move,
    split_cell_move,
    split_index_move,
)

from conftest import PermissiveGame


def reference_legal(g: Game, run: Run) -> bool:
    # A compound formula's game: its connective, and the games of its parts.
    f, parts = (g.formula, g.parts) if isinstance(g, FormulaGame) else (None, ())
    if isinstance(g, FiniteGame):
        return run in g.tree
    if isinstance(g, EnumerationGame):
        return all(is_numeral(lm.move) for lm in run)
    if isinstance(g, PermissiveGame):
        return True
    if isinstance(f, NegAtom):
        return reference_legal(parts[0], negate_run(run))
    if isinstance(f, (And, Or)):
        for lm in run:
            split = split_index_move(lm.move)
            if split is None or split[0] not in (1, 2):
                return False
        return reference_legal(parts[0], project_prefix(run, "1.")) and reference_legal(
            parts[1], project_prefix(run, "2.")
        )
    if isinstance(f, (Pst, Pcost)):
        for lm in run:
            if split_index_move(lm.move) is None:
                return False
        return all(
            reference_legal(parts[0], project_prefix(run, f"{u}.")) for u in _touched_copies(run)
        )
    if isinstance(f, (St, Cost)):
        for lm in run:
            if split_bit_move(lm.move) is None:
                return False
        return all(reference_legal(parts[0], project_branch(run, x)) for x in _reps(run))
    if isinstance(g, CirquentGame):
        if not all(_cell_move_ok(g, lm.move) for lm in run):
            return False
        for xs in _coordinate_candidates(g, run):
            for a in range(1, g.cirquent.size + 1):
                if not reference_legal(g.base_games[a - 1], project_cell(run, a, xs)):
                    return False
        return True
    raise TypeError(f"no reference for {type(g).__name__}")


def reference_won_legal(g: Game, run: Run) -> Player:
    """Winner of a run assumed legal."""
    # A compound formula's game: its connective, and the games of its parts.
    f, parts = (g.formula, g.parts) if isinstance(g, FormulaGame) else (None, ())
    if isinstance(g, FiniteGame):
        return g.labels[run]
    if isinstance(g, EnumerationGame):
        return BOT if g.loses(run) else TOP
    if isinstance(g, PermissiveGame):
        return TOP
    if isinstance(f, NegAtom):
        return reference_won_legal(parts[0], negate_run(run)).opponent
    if isinstance(f, (And, Or)):
        lw = reference_won_legal(parts[0], project_prefix(run, "1."))
        rw = reference_won_legal(parts[1], project_prefix(run, "2."))
        return _combine([lw, rw], isinstance(f, And))
    if isinstance(f, (Pst, Pcost)):
        results = [
            reference_won_legal(parts[0], project_prefix(run, f"{u}."))
            for u in _touched_copies(run)
        ]
        results.append(reference_won_legal(parts[0], ()))
        return _combine(results, isinstance(f, Pst))
    if isinstance(f, (St, Cost)):
        results = [reference_won_legal(parts[0], project_branch(run, x)) for x in _reps(run)]
        return _combine(results, isinstance(f, St))
    if isinstance(g, CirquentGame):
        for xs in _coordinate_candidates(g, run):
            for under in g.cirquent.undergroups:
                if not any(
                    reference_won_legal(g.base_games[a - 1], project_cell(run, a, xs)) is TOP
                    for a in under
                ):
                    return BOT
        return TOP
    raise TypeError(f"no reference for {type(g).__name__}")


def reference_offender(g: Game, run: Run) -> Player | None:
    """The player whose move ends the shortest illegal prefix, if any."""
    for i in range(1, len(run) + 1):
        if not reference_legal(g, run[:i]):
            return run[i - 1].player
    return None


def reference_winner(g: Game, run: Run) -> Player:
    """Total winner: the offender rule, then the winner of the legal run."""
    offender = reference_offender(g, run)
    if offender is not None:
        return offender.opponent
    return reference_won_legal(g, run)


def _combine(results: list[Player], conjunctive: bool) -> Player:
    if conjunctive:
        return TOP if all(r is TOP for r in results) else BOT
    return TOP if any(r is TOP for r in results) else BOT


def _touched_copies(run: Run) -> list[int]:
    seen: dict[int, None] = {}
    for lm in run:
        split = split_index_move(lm.move)
        if split is not None:
            seen.setdefault(split[0], None)
    return list(seen)


def _reps(run: Run):
    used = set()
    for lm in run:
        split = split_bit_move(lm.move)
        if split is not None:
            used.add(split[0])
    return thread_representatives(used)


def _cell_move_ok(g: CirquentGame, move: str) -> bool:
    split = split_cell_move(move)
    if split is None:
        return False
    a, coords, _ = split
    c = g.cirquent
    if not 1 <= a <= c.size or len(coords) != len(c.overgroups):
        return False
    return all((u > 0) == (a in over) for u, over in zip(coords, c.overgroups))


def _coordinate_candidates(g: CirquentGame, run: Run) -> list[tuple[int, ...]]:
    """Positive coordinate vectors covering every equivalence class of the
    winner/legality quantifiers: per coordinate, each used nonzero value
    plus one fresh value."""
    n = len(g.cirquent.overgroups)
    used: list[set[int]] = [set() for _ in range(n)]
    for lm in run:
        split = split_cell_move(lm.move)
        if split is None:
            continue
        _, coords, _ = split
        if len(coords) != n:
            continue
        for j, u in enumerate(coords):
            if u > 0:
                used[j].add(u)
    per_coord = [sorted(s) + [max(s, default=0) + 1] for s in used]
    vectors: list[tuple[int, ...]] = [()]
    for options in per_coord:
        vectors = [v + (o,) for v in vectors for o in options]
    return vectors


# Finite games as sets of runs

class ReferenceFiniteGame:
    """A prefix-closed set of runs with a label for each."""

    def __init__(self, tree: set[Run], labels: dict[Run, Player]):
        if () not in tree:
            raise GameError("tree must contain the empty run")
        for run in tree:
            if run[:-1] not in tree and run:
                raise GameError(f"tree not prefix-closed at {run}")
            if run not in labels:
                raise GameError(f"missing label for {run}")
        self.tree = frozenset(tree)
        self.labels = dict(labels)

    def legal(self, run: Run) -> bool:
        return run in self.tree

    def winner(self, run: Run) -> Player:
        for i in range(1, len(run) + 1):
            if run[:i] not in self.tree:
                return run[i - 1].player.opponent
        return self.labels[run]

    def moves_after(self, run: Run) -> list[Labmove]:
        """The last labmoves of the runs one longer than `run` that extend
        it, in the order of `labels`."""
        return [r[-1] for r in self.labels if len(r) == len(run) + 1 and r[:-1] == run]

    def move_alphabet(self) -> list[str]:
        alphabet: dict[str, None] = {}
        for run in self.labels:
            for lm in run:
                alphabet.setdefault(lm.move, None)
        return list(alphabet)


def reference_parse_finite_game(text: str) -> ReferenceFiniteGame:
    """The finite-game text format, read line by line into sets."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or lines[0] != "finitegame":
        raise GameError("missing 'finitegame' header")
    tree: set[Run] = set()
    labels: dict[Run, Player] = {}
    for ln in lines[1:]:
        if "=>" not in ln:
            raise GameError(f"missing '=>' in line {ln!r}")
        run_text, _, label_text = ln.partition("=>")
        run_text = run_text.strip()
        label_text = label_text.strip()
        if label_text not in ("T", "B"):
            raise GameError(f"bad winner label {label_text!r}")
        if run_text == "()":
            run: Run = ()
        else:
            items = []
            for item in run_text.split(";"):
                parts = item.split()
                if len(parts) != 2 or parts[0] not in ("T", "B"):
                    raise GameError(f"bad labmove {item!r}")
                items.append(Labmove(TOP if parts[0] == "T" else BOT, parts[1]))
            run = tuple(items)
        tree.add(run)
        labels[run] = TOP if label_text == "T" else BOT
    return ReferenceFiniteGame(tree, labels)


def reference_random_finite_game(
    rng: random.Random, depth: int, branching: int
) -> ReferenceFiniteGame:
    """The draws of `cl15.harness.random_finite_game`, grown into sets."""
    tree: set[Run] = set()
    labels: dict[Run, Player] = {}

    def grow(run: Run, d: int, min_children: int) -> None:
        tree.add(run)
        labels[run] = TOP if rng.random() < 0.5 else BOT
        if d == 0:
            return
        options = [Labmove(p, m) for m in ("1", "2", "3", "4", "5", "6") for p in (TOP, BOT)]
        k = min(rng.randint(min_children, branching), len(options))
        for lm in rng.sample(options, k):
            grow(run + (lm,), d - 1, 0)

    grow((), depth, 1)
    return ReferenceFiniteGame(tree, labels)
