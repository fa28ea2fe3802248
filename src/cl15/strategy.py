"""Machine strategies, the one play loop, and strategy extraction through
a pipeline of move translators.

A machine strategy is a stateful per-play agent: `next(run, step)` returns
an action, and `spawn()` yields a fresh instance for a new play.  `play`
alternates machine turns with grants to the environment; `simulate`, the
interactive `cl15 play` and the separation demo all run through it.  It
hands the environment the referee's position with `watch`, and once the
environment passes a grant with both players `settled`, it yields the
remaining grants without asking either.  Each rule application has a
translator, built by its rule's class in `cl15.cl15`, that turns a strategy
for its premise into one for its conclusion by translating moves both
ways.  An extracted strategy is one flat `Pipeline`: the axiom strategy and
a tuple of translators, one per proof step, and outermost the edge.

Inside a pipeline a move has one form, the split cell move
`(oformula, coords, payload)`: the axiom strategy and every rule translator
map cell moves only.  The edge is the one translator that maps move texts,
and it sees each move of the real run once.  `CIRQUENT_EDGE` splits an
environment move, dropping a text that is not a cell move, and formats a
machine move.  `FORMULA_EDGE` plays copy 1 of the proof's final
clubsuit(F): a move `m` enters as `(1, (1,), m)`, a machine move
`(1, (1,), rest)` leaves as `rest`, and it absorbs any other.

The structural rules (exchanges, duplications, merging, weakening) only
rename oformulas and coordinates.  Their translators are marked
`structural`, and a pipeline crosses each maximal run of adjacent ones as
one layer that memoizes the composed maps per `(oformula, coords)`.
`dup_over` and `pcost` number copies in the order a play uses them, in
tables of that play; so a pipeline's `spawn()` builds its play's layers
from fresh translators, and two plays share no table and no memo.

After each move that a translator absorbs, a pipeline turns to its base
again, until a move leaves or the base grants or idles.  So it needs a base
that grants or idles after finitely many moves in a turn.  The axiom
strategy makes one answer per environment move that reaches it and then
grants; under `play`, where the environment moves at most once between two
machine turns, it is asked at most twice in a turn.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import groupby
from operator import attrgetter

from .cirquent import Cirquent, as_clubsuit, render_cirquent
from .formula import Formula, render_formula
from .runs import (
    BOT,
    TOP,
    Labmove,
    Player,
    Run,
    format_cell_move,
    split_cell_move,
)
from .values import InputError, Record, Value, set_field
from . import cl15 as rules
from .cl15 import Cell, Move, Translator


class StrategyError(InputError):
    """Unusable strategy construction inputs."""


class ProofViolation(StrategyError):
    """The proof given for extraction does not verify."""

    def __init__(self, step: int, violation: rules.Violation):
        super().__init__(f"proof does not verify at step {step}: {violation.reason}")
        self.step = step
        self.violation = violation


# Actions

class MakeMove(Value):
    __slots__ = __match_args__ = ("move",)

    def __init__(self, move: Move):
        set_field(self, "move", move)


class GrantPermission(Value):
    __slots__ = ()


class Idle(Value):
    __slots__ = ()


Action = MakeMove | GrantPermission | Idle

GRANT = GrantPermission()
IDLE = Idle()


class MachineStrategy:
    """Deterministic stateful agent for one play; spawn() before each play.
    The base of a `Pipeline` is shown and makes split cell moves (`Cell`)."""

    def spawn(self) -> "MachineStrategy":
        raise NotImplementedError

    def next(self, run: Sequence[Labmove], step: int) -> Action:
        """The action at turn `step` of the play so far.  The run is
        read-only and grows in place between calls: keep a copy, not it."""
        raise NotImplementedError

    def settled(self, run: Sequence[Labmove]) -> bool:
        """Would `next` grant at every later turn, shown this same run?"""
        return False


class EnvStrategy:
    """Environment agent: may move only when granted, at most once per grant."""

    def spawn(self) -> "EnvStrategy":
        raise NotImplementedError

    def watch(self, position: Position) -> None:
        """Before the first turn, `play` shows the play's position, read-only."""

    def on_grant(self, run: Sequence[Labmove]) -> str | None:
        """A move, or None to pass.  The run is read-only and grows in
        place between calls: keep a copy, not it."""
        raise NotImplementedError

    def settled(self) -> bool:
        """Would `on_grant` pass at every later grant, shown the same run?"""
        return False


class IdleStrategy(MachineStrategy):
    def spawn(self) -> "IdleStrategy":
        return IdleStrategy()

    def next(self, run: Sequence[Labmove], step: int) -> Action:
        return IDLE


class PureGranter(MachineStrategy):
    def spawn(self) -> "PureGranter":
        return PureGranter()

    def next(self, run: Sequence[Labmove], step: int) -> Action:
        return GRANT

    def settled(self, run: Sequence[Labmove]) -> bool:
        return True


class ScriptEnv(EnvStrategy):
    """Plays a fixed list of moves, one per grant, then stays silent."""

    name = "script"

    def __init__(self, moves: list[str] | tuple[str, ...]):
        self.moves = tuple(moves)
        self._i = 0

    def spawn(self) -> "ScriptEnv":
        return ScriptEnv(self.moves)

    def on_grant(self, run: Sequence[Labmove]) -> str | None:
        if self.settled():
            return None
        self._i += 1
        return self.moves[self._i - 1]

    def settled(self) -> bool:
        return self._i >= len(self.moves)


class SilentEnv(ScriptEnv):
    name = "silent"

    def __init__(self):
        super().__init__(())

    def spawn(self) -> "SilentEnv":
        return SilentEnv()


# The play loop

Event = tuple[int, Action, Labmove | None]


def play(machine: MachineStrategy, env: EnvStrategy, position: Position,
         budget: int) -> Iterator[Event]:
    """Play a spawned machine against a spawned environment for at most
    `budget` machine turns, yielding `(step, action, labmove)` per turn: the
    machine's move, the environment's answer to a grant, or None.  The
    environment moves only when granted.  Each labmove extends `position`,
    which the environment watches, and the play stops at an idle or after
    the first illegal labmove, whose player is then `position.offender`.
    Both players are shown one run list, which grows in place.  A budget
    below 1 raises `StrategyError` here, at the call, not at the first turn."""
    if budget < 1:
        raise StrategyError("budget must be at least 1")
    return _play(machine, env, position, budget)


def _play(machine: MachineStrategy, env: EnvStrategy, position: Position,
          budget: int) -> Iterator[Event]:
    run: list[Labmove] = []
    env.watch(position)
    for step in range(1, budget + 1):
        action = machine.next(run, step)
        if isinstance(action, MakeMove):
            lm = Labmove(TOP, action.move)
        elif isinstance(action, GrantPermission):
            move = env.on_grant(run)
            if move is None:
                yield step, action, None
                if env.settled() and machine.settled(run):
                    for quiet in range(step + 1, budget + 1):
                        yield quiet, GRANT, None
                    return
                continue
            lm = Labmove(BOT, move)
        else:
            yield step, action, None
            return
        run.append(lm)
        position.extend(lm)
        yield step, action, lm
        if position.offender is not None:
            return


class SimResult(Record):
    __slots__ = __match_args__ = ("run", "winner", "grants", "steps", "first_illegality", "trace")

    def __init__(self, run: Run, winner: Player, grants: int, steps: int,
                 first_illegality: str | None, trace: list[str]):
        self.run = run
        self.winner = winner
        self.grants = grants
        self.steps = steps
        self.first_illegality = first_illegality
        self.trace = trace

    def render_trace(self) -> str:
        return "\n".join(self.trace + [f"winner: {self.winner.value} grants:{self.grants}"])


# `simulate` keeps one trace line per turn, about 90 bytes each.
SIMULATE_MAX_BUDGET = 1_000_000


def simulate(m: MachineStrategy, e: EnvStrategy, g: Game, budget: int) -> SimResult:
    """Play fresh spawns of the machine and the environment on `g` for at
    most `budget` machine turns, and collect the run, the trace and the
    winner of the final position.  A budget over SIMULATE_MAX_BUDGET raises
    `StrategyError` before the play."""
    if budget > SIMULATE_MAX_BUDGET:
        raise StrategyError(f"budget must be at most {SIMULATE_MAX_BUDGET:,}")
    position = g.start()
    run: list[Labmove] = []
    trace: list[str] = []
    grants = 0
    for steps, action, lm in play(m.spawn(), e.spawn(), position, budget):
        if action is GRANT or isinstance(action, GrantPermission):  # most turns first
            grants += 1
            trace.append(f"{steps} M:grant")
            if lm is not None:
                trace.append(f"{steps} E:{lm.move}")
        elif isinstance(action, MakeMove):
            trace.append(f"{steps} M:move {action.move}")
        else:
            trace.append(f"{steps} M:idle")
        if lm is not None:
            run.append(lm)
    first_illegality = None
    if position.offender is not None:
        who = "machine" if position.offender is TOP else "environment"
        first_illegality = f"{who} offender: move {run[-1].move!r} is illegal"
    return SimResult(tuple(run), position.winner(), grants, steps, first_illegality, trace)


# Axiom strategy: mirror each environment move between the paired oformulas.

class AxiomStrategy(MachineStrategy):
    """For the 2n-oformula axiom cirquent: answer an environment cell move
    in oformula a with the same move in its partner (a+1 for odd a, a-1 for
    even a), same coordinates; queued FIFO."""

    def __init__(self, n: int):
        if n < 1:
            raise StrategyError("n must be at least 1")
        self.n = n
        self._cursor = 0
        self._queue: list[Cell] = []

    def spawn(self) -> "AxiomStrategy":
        return AxiomStrategy(self.n)

    def next(self, run: Sequence[Labmove], step: int) -> Action:
        if self._cursor < len(run):
            for lm in run[self._cursor:]:
                if lm.player is BOT and 1 <= lm.move[0] <= 2 * self.n:
                    a, coords, rest = lm.move
                    self._queue.append((a + 1 if a % 2 == 1 else a - 1, coords, rest))
            self._cursor = len(run)
        if self._queue:
            return MakeMove(self._queue.pop(0))
        return GRANT

    def settled(self, run: Sequence[Labmove]) -> bool:
        return not self._queue and self._cursor == len(run)


# Translators

def _formula_leave(cell: Cell) -> str | None:
    a, coords, rest = cell
    return rest if a == 1 and coords == (1,) else None


# The edges, outermost in an extracted pipeline: real moves are texts.
CIRQUENT_EDGE = Translator("cirquent_edge", split_cell_move,
                           lambda cell: format_cell_move(*cell))
FORMULA_EDGE = Translator("formula_edge", lambda move: (1, (1,), move), _formula_leave)


def _fused_map(memo: dict, move_maps: tuple[Callable[[Cell], Cell | None], ...],
               cell: Cell) -> Cell | None:
    """`cell` through `move_maps` in turn, memoized per address: `memo`
    keeps the address a move ends up at, or None for a drop or an
    absorption.  A miss runs the maps themselves."""
    key = cell[0], cell[1]
    try:
        address = memo[key]
    except KeyError:
        address = cell
        for move_map in move_maps:
            address = move_map(address)
            if address is None:
                break
        else:
            address = address[0], address[1]
        memo[key] = address
    return None if address is None else (address[0], address[1], cell[2])


def _layers(translators: tuple[Translator, ...]) -> Iterator[tuple[Callable, Callable]]:
    """The pipeline's layers, innermost first, each as its two maps (inward,
    outward): each maximal run of adjacent structural translators, a run of
    one included, fused into one pair of maps memoized per address, and
    every other translator's own maps."""
    for structural, run in groupby(translators, attrgetter("structural")):
        if not structural:
            yield from ((tr.outer_to_inner, tr.inner_to_outer) for tr in run)
            continue
        members = tuple(run)
        yield (partial(_fused_map, {}, tuple(tr.outer_to_inner for tr in reversed(members))),
               partial(_fused_map, {}, tuple(tr.inner_to_outer for tr in members)))


class Pipeline(MachineStrategy):
    """A base strategy seen through translators, innermost first; in an
    extracted strategy the outermost is the edge.  A turn first passes each
    new environment move of the real run inward through `outer_to_inner`,
    outermost first, until a layer drops it.  Then the base's moves climb
    out through `inner_to_outer`.  A move that a translator absorbs stays
    in the base's run, and the base is asked again, until a move leaves or
    the base grants or idles; grants and idling go straight out.  The base
    must grant or idle after finitely many moves in a turn, as the axiom
    strategy does (see the module docstring).

    Each maximal run of adjacent structural translators is crossed as one
    layer, which memoizes where a move's address ends up.  The copy tables
    of `dup_over` and `pcost` and the layers' memos belong to one play: a
    constructed pipeline only holds its base and translators, and `spawn()`
    builds the layers, from fresh translators, for the play it starts.  So
    two spawns share no state, a spawn costs time linear in the number of
    translators, and a turn costs one call per layer its moves cross (the
    base is shown its run list, not a copy).  Nothing recurses."""

    def __init__(self, base: MachineStrategy, translators: tuple[Translator, ...]):
        self.base = base
        self.translators = translators

    def spawn(self) -> "Pipeline":
        fresh = Pipeline(self.base, self.translators)
        layers = tuple(_layers(tuple(tr.fresh() for tr in self.translators)))
        fresh._inward = tuple(inward for inward, _ in reversed(layers))
        fresh._outward = tuple(outward for _, outward in layers)
        fresh._base = self.base.spawn()
        fresh._base_step = 0
        fresh._cursor = 0
        fresh._base_run: list[Labmove] = []
        return fresh

    def next(self, run: Sequence[Labmove], step: int) -> Action:
        if self._cursor < len(run):
            for lm in run[self._cursor:]:
                if lm.player is BOT:
                    move = lm.move
                    for outer_to_inner in self._inward:
                        move = outer_to_inner(move)
                        if move is None:
                            break
                    else:
                        self._base_run.append(Labmove(BOT, move))
            self._cursor = len(run)
        while True:
            self._base_step += 1
            action = self._base.next(self._base_run, self._base_step)
            if not isinstance(action, MakeMove):
                return GRANT if isinstance(action, GrantPermission) else IDLE
            # The move climbs until a layer absorbs it or it leaves.
            move = action.move
            self._base_run.append(Labmove(TOP, move))
            for inner_to_outer in self._outward:
                move = inner_to_outer(move)
                if move is None:
                    break
            else:
                return MakeMove(move)

    def settled(self, run: Sequence[Labmove]) -> bool:
        return self._cursor == len(run) and self._base.settled(self._base_run)


def proof_goal(proof: rules.Proof, formula_level: bool) -> tuple[Formula | Cirquent, str]:
    """What the proof's game is about, with its text: the final cirquent,
    or at the formula level the F of a final clubsuit(F)."""
    last = proof.steps[-1].cirquent
    if not formula_level:
        return last, render_cirquent(last)
    goal = as_clubsuit(last)
    if goal is None:
        raise StrategyError("final cirquent is not a one-oformula clubsuit")
    return goal, render_formula(goal)


def extract_solution(proof: rules.Proof, formula_level: bool = False) -> MachineStrategy:
    """Verify the proof, then run the axiom strategy through one translator
    per rule application and the edge.  With formula_level=True (final
    cirquent must be a one-oformula clubsuit(F)), return the strategy for
    the bare formula game F: `FORMULA_EDGE` plays copy 1 of clubsuit(F).
    Raises ProofViolation if the proof does not verify."""
    report = rules.verify_proof(proof)
    if report is not None:
        raise ProofViolation(*report)
    steps = proof.steps
    translators = tuple(
        steps[k].rule.translator(steps[k - 1].cirquent, steps[k].cirquent)
        for k in range(1, len(steps))
    )
    if formula_level:
        proof_goal(proof, formula_level)
    edge = FORMULA_EDGE if formula_level else CIRQUENT_EDGE
    return Pipeline(AxiomStrategy(steps[0].cirquent.size // 2), translators + (edge,))
