"""Machine strategies, the one play loop, and the rule-by-rule strategy
transformers.

A machine strategy is a stateful per-play agent: `next(run, step)` returns
an action, and `spawn()` yields a fresh instance for a new play.  `play`
alternates machine turns with grants to the environment; `simulate`, the
interactive `cl15 play` and the separation demo all run through it.  It
hands the environment the referee's position with `watch`, and once the
environment passes a grant with both players `settled`, it yields the
remaining grants without asking either.  Each rule
application has a translator that turns a strategy for its premise into
one for its conclusion by translating moves both ways.  An extracted
strategy is one flat `Pipeline`: the axiom strategy and a tuple of
translators, one per proof step, and outermost the edge.

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

After each move that a translator absorbs, a pipeline turns to its base
again, until a move leaves or the base grants or idles.  So it needs a base
that grants or idles after finitely many moves in a turn.  The axiom
strategy makes one answer per environment move that reaches it and then
grants; under `play`, where the environment moves at most once between two
machine turns, it is asked at most twice in a turn.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import groupby
from operator import attrgetter

from .cirquent import Cirquent, as_clubsuit, render_cirquent
from .formula import Formula, render_formula
from .games import Game, Position
from .runs import (
    BOT,
    TOP,
    Labmove,
    Player,
    Run,
    format_cell_move,
    split_cell_move,
    split_index_move,
)
from .values import Record, Value, set_field
from . import cl15 as rules


class StrategyError(ValueError):
    """Unusable strategy construction inputs."""


class ProofViolation(StrategyError):
    """The proof given for extraction does not verify."""

    def __init__(self, step: int, violation: rules.Violation):
        super().__init__(f"proof does not verify at step {step}: {violation.reason}")
        self.step = step
        self.violation = violation


# Actions

Cell = tuple[int, tuple[int, ...], str]
Move = str | Cell


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


def simulate(m: MachineStrategy, e: EnvStrategy, g: Game, budget: int) -> SimResult:
    """Play fresh spawns of the machine and the environment on `g` for at
    most `budget` machine turns, and collect the run, the trace and the
    winner of the final position."""
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

class Translator(Value):
    """Move maps between an outer (conclusion) play and an imagined inner
    (premise) play.  `outer_to_inner` translates environment moves inward
    (None drops the move); `inner_to_outer` translates the inner machine's
    moves outward (None absorbs the move into the imagined run only).  Both
    map split cell moves, except at the edge, the one translator that maps
    move texts: outside it the moves are the real run's.  A `structural`
    translator's maps read and change only a move's oformula and
    coordinates and keep its payload, so whether it drops or absorbs a move
    depends on those alone; only the factories below set it."""

    __slots__ = __match_args__ = ("name", "outer_to_inner", "inner_to_outer", "structural")

    def __init__(self, name: str, outer_to_inner: Callable[[Move], Move | None],
                 inner_to_outer: Callable[[Cell], Move | None], structural: bool = False):
        set_field(self, "name", name)
        set_field(self, "outer_to_inner", outer_to_inner)
        set_field(self, "inner_to_outer", inner_to_outer)
        set_field(self, "structural", structural)


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


def _layers(translators: tuple[Translator, ...]) -> Iterator[Translator]:
    """The pipeline's layers, innermost first: each maximal run of adjacent
    structural translators, a run of one included, fused into one
    translator whose two maps are memoized per address, and every other
    translator as it is."""
    for structural, run in groupby(translators, attrgetter("structural")):
        if not structural:
            yield from run
            continue
        members = tuple(run)
        inward = tuple(tr.outer_to_inner for tr in reversed(members))
        outward = tuple(tr.inner_to_outer for tr in members)
        yield Translator("+".join(tr.name for tr in members), partial(_fused_map, {}, inward),
                         partial(_fused_map, {}, outward), structural=True)


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
    layer, which memoizes where a move's address ends up.  The layers are
    built once, here, and a spawn shares them and their memos, which depend
    only on the address.  So a turn costs one call per layer its moves
    cross (the base is shown its run list, not a copy), and `spawn()` is
    O(1): only the base's run is kept.  Nothing recurses."""

    def __init__(self, base: MachineStrategy, translators: tuple[Translator, ...]):
        self.base = base
        self.translators = translators
        layers = tuple(_layers(translators))
        self._inward = tuple(layer.outer_to_inner for layer in reversed(layers))
        self._outward = tuple(layer.inner_to_outer for layer in layers)
        self._start()

    def spawn(self) -> "Pipeline":
        # Set in __init__'s order: the instance then shares its attribute
        # layout with constructed ones, and attribute reads stay fast.
        fresh = Pipeline.__new__(Pipeline)
        fresh.base, fresh.translators = self.base, self.translators
        fresh._inward, fresh._outward = self._inward, self._outward
        fresh._start()
        return fresh

    def _start(self) -> None:
        self._base = self.base.spawn()
        self._base_step = 0
        self._cursor = 0
        self._base_run: list[Labmove] = []

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


def identity_translator(name: str) -> Translator:
    return Translator(name, lambda m: m, lambda m: m, structural=True)


# Positive-pair pairing used by the coordinate-compressing translators.

def pair(u1: int, u2: int) -> int:
    """Bijection from pairs of positive integers to positive integers;
    pair(1,1)=1, pair(1,2)=2, pair(2,1)=3."""
    return (u1 + u2 - 2) * (u1 + u2 - 1) // 2 + u1


def unpair(v: int) -> tuple[int, int]:
    """Inverse of pair."""
    if v < 1:
        raise ValueError("unpair needs a positive integer")
    k = (math.isqrt(8 * v - 7) - 1) // 2  # the largest k with k(k+1)/2 < v
    u1 = v - k * (k + 1) // 2
    return u1, k + 2 - u1


def fold_positives(us: tuple[int, ...]) -> int:
    """Right fold of `pair`; the empty tuple maps to 1."""
    if not us:
        return 1
    if len(us) == 1:
        return us[0]
    return pair(us[0], fold_positives(us[1:]))


def unfold_positives(v: int, n: int) -> tuple[int, ...] | None:
    """Inverse of fold_positives at arity n; None when v is outside the
    image (only possible for n=0 with v != 1)."""
    if n == 0:
        return () if v == 1 else None
    if n == 1:
        return (v,)
    u1, rest = unpair(v)
    tail = unfold_positives(rest, n - 1)
    return None if tail is None else (u1,) + tail


def _swap_index(a: int, i: int) -> int:
    if a == i:
        return i + 1
    if a == i + 1:
        return i
    return a


def _oformula_exchange_translator(i: int) -> Translator:
    def both_ways(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        return _swap_index(a, i), coords, rest

    return Translator(f"exchange_oformulas@{i}", both_ways, both_ways, structural=True)


def _overgroup_exchange_translator(i: int) -> Translator:
    def both_ways(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if len(coords) < i + 1:
            return None
        cs = list(coords)
        cs[i - 1], cs[i] = cs[i], cs[i - 1]
        return a, tuple(cs), rest

    return Translator(f"exchange_overs@{i}", both_ways, both_ways, structural=True)


def _weakening_translator(conclusion: Cirquent, under: int, oformula: int) -> Translator:
    _, deleted_of, deleted_overs = rules.premise_of_weakening(conclusion, under, oformula)
    if deleted_of is None:
        return identity_translator(f"weakening@{under},{oformula}")
    d = deleted_of
    dropped = set(deleted_overs)

    def outer_to_inner(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if a == d:
            return None
        a2 = a - 1 if a > d else a
        coords2 = tuple(u for j, u in enumerate(coords, start=1) if j not in dropped)
        return a2, coords2, rest

    def inner_to_outer(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        a2 = a + 1 if a >= d else a
        cs = list(coords)
        for j in sorted(dropped):
            cs.insert(j - 1, 0)
        return a2, tuple(cs), rest

    return Translator(f"weakening@{under},{oformula}", outer_to_inner, inner_to_outer,
                      structural=True)


def _contraction_translator(a: int) -> Translator:
    def outer_to_inner(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c != a:
            return c + 1 if c > a else c, coords, rest
        payload = split_index_move(rest)
        if payload is None:
            return None
        k, tail = payload
        if k % 2 == 1:
            return a, coords, f"{(k + 1) // 2}.{tail}"
        return a + 1, coords, f"{k // 2}.{tail}"

    def inner_to_outer(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c not in (a, a + 1):
            return c - 1 if c > a + 1 else c, coords, rest
        payload = split_index_move(rest)
        if payload is None:
            return None
        k, tail = payload
        outer_k = 2 * k - 1 if c == a else 2 * k
        return a, coords, f"{outer_k}.{tail}"

    return Translator(f"contraction@{a}", outer_to_inner, inner_to_outer)


def _overgroup_duplication_translator(j: int) -> Translator:
    def outer_to_inner(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if len(coords) < j + 1:
            return None
        u1, u2 = coords[j - 1], coords[j]
        if u1 == 0 and u2 == 0:
            merged = 0
        elif u1 > 0 and u2 > 0:
            merged = pair(u1, u2)
        else:
            return None
        return a, coords[:j - 1] + (merged,) + coords[j + 1:], rest

    def inner_to_outer(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if len(coords) < j:
            return None
        u = coords[j - 1]
        expanded = (0, 0) if u == 0 else unpair(u)
        return a, coords[:j - 1] + expanded + coords[j:], rest

    return Translator(f"dup_over@{j}", outer_to_inner, inner_to_outer, structural=True)


def _merging_translator(premise: Cirquent, j: int) -> Translator:
    in_j = premise.overgroups[j - 1]
    in_j1 = premise.overgroups[j]

    def outer_to_inner(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if len(coords) < j:
            return None
        v = coords[j - 1]
        member = a in in_j or a in in_j1
        if (v > 0) != member:
            return None
        if a in in_j and a in in_j1:
            expanded = unpair(v)
        elif a in in_j:
            expanded = (v, 0)
        elif a in in_j1:
            expanded = (0, v)
        else:
            expanded = (0, 0)
        return a, coords[:j - 1] + expanded + coords[j:], rest

    def inner_to_outer(cell: Cell) -> Cell | None:
        a, coords, rest = cell
        if len(coords) < j + 1:
            return None
        v1, v2 = coords[j - 1], coords[j]
        if (v1 > 0) != (a in in_j) or (v2 > 0) != (a in in_j1):
            return None
        if a in in_j and a in in_j1:
            merged = pair(v1, v2)
        elif a in in_j:
            merged = v1
        elif a in in_j1:
            merged = v2
        else:
            merged = 0
        return a, coords[:j - 1] + (merged,) + coords[j + 1:], rest

    return Translator(f"merging@{j}", outer_to_inner, inner_to_outer, structural=True)


def _binary_intro_translator(a: int, kind: str) -> Translator:
    def outer_to_inner(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c != a:
            return c + 1 if c > a else c, coords, rest
        payload = split_index_move(rest)
        if payload is None or payload[0] not in (1, 2):
            return None
        i, tail = payload
        return a if i == 1 else a + 1, coords, tail

    def inner_to_outer(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c == a:
            return a, coords, f"1.{rest}"
        if c == a + 1:
            return a, coords, f"2.{rest}"
        return c - 1 if c > a + 1 else c, coords, rest

    return Translator(f"{kind}@{a}", outer_to_inner, inner_to_outer)


def _pst_intro_translator(a: int, j: int) -> Translator:
    def outer_to_inner(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c != a:
            return c, coords[:j - 1] + (0,) + coords[j - 1:], rest
        payload = split_index_move(rest)
        if payload is None:
            return None
        u, tail = payload
        return a, coords[:j - 1] + (u,) + coords[j - 1:], tail

    def inner_to_outer(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if len(coords) < j:
            return None
        u = coords[j - 1]
        coords2 = coords[:j - 1] + coords[j:]
        if c != a:
            return (c, coords2, rest) if u == 0 else None
        if u < 1:
            return None
        return a, coords2, f"{u}.{rest}"

    return Translator(f"pst@{a},{j}", outer_to_inner, inner_to_outer)


def _pcost_intro_translator(a: int, add_over: frozenset[int]) -> Translator:
    positions = tuple(sorted(add_over))
    n = len(positions)

    def outer_to_inner(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c != a:
            return cell
        if positions and len(coords) < positions[-1]:
            return None
        if any(coords[p - 1] != 0 for p in positions):
            return None
        payload = split_index_move(rest)
        if payload is None:
            return None
        v, tail = payload
        us = unfold_positives(v, n)
        if us is None:
            return None
        cs = list(coords)
        for k, p in enumerate(positions):
            cs[p - 1] = us[k]
        return a, tuple(cs), tail

    def inner_to_outer(cell: Cell) -> Cell | None:
        c, coords, rest = cell
        if c != a:
            return cell
        us = tuple(coords[p - 1] for p in positions if p <= len(coords))
        if len(us) != n or any(u < 1 for u in us):
            return None
        v = fold_positives(us)
        cs = list(coords)
        for p in positions:
            cs[p - 1] = 0
        return a, tuple(cs), f"{v}.{rest}"

    return Translator(f"pcost@{a}", outer_to_inner, inner_to_outer)


def make_translator(rule: rules.Rule, premise: Cirquent, conclusion: Cirquent) -> Translator:
    """The move translator for one verified rule application."""
    if isinstance(rule, rules.OformulaExchange):
        return _oformula_exchange_translator(rule.pos)
    if isinstance(rule, rules.UndergroupExchange):
        return identity_translator(f"exchange_unders@{rule.pos}")
    if isinstance(rule, rules.OvergroupExchange):
        return _overgroup_exchange_translator(rule.pos)
    if isinstance(rule, rules.UndergroupDuplication):
        return identity_translator(f"dup_under@{rule.pos}")
    if isinstance(rule, rules.OvergroupDuplication):
        return _overgroup_duplication_translator(rule.pos)
    if isinstance(rule, rules.Merging):
        return _merging_translator(premise, rule.over)
    if isinstance(rule, rules.Weakening):
        return _weakening_translator(conclusion, rule.under, rule.oformula)
    if isinstance(rule, rules.Contraction):
        return _contraction_translator(rule.oformula)
    if isinstance(rule, rules.OrIntro):
        return _binary_intro_translator(rule.oformula, "or")
    if isinstance(rule, rules.AndIntro):
        return _binary_intro_translator(rule.oformula, "and")
    if isinstance(rule, rules.PstIntro):
        j = rules.pst_position(premise, conclusion, rule.oformula)
        if j is None:
            raise StrategyError("rule/cirquent mismatch for pst introduction")
        return _pst_intro_translator(rule.oformula, j)
    if isinstance(rule, rules.PcostIntro):
        return _pcost_intro_translator(rule.oformula, rule.add_over)
    raise StrategyError(f"no translator for rule {rule!r}")


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
    axiom_rule = proof.steps[0].rule
    assert isinstance(axiom_rule, rules.Axiom)
    steps = proof.steps
    translators = tuple(
        make_translator(steps[k].rule, steps[k - 1].cirquent, steps[k].cirquent)
        for k in range(1, len(steps))
    )
    if formula_level:
        proof_goal(proof, formula_level)
    edge = FORMULA_EDGE if formula_level else CIRQUENT_EDGE
    return Pipeline(AxiomStrategy(len(axiom_rule.formulas)), translators + (edge,))
