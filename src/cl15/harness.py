"""Randomized end-to-end validation: an independent brute-force winner
oracle, random finite interpretations, adversaries that choose among the
legal moves a game position lists, and the bounded recurrence-separation
demonstration.

The oracle reimplements move parsing and the legality/winner quantifiers
locally (plain string splitting, full product enumeration, no
representative shortcuts) so that agreement with the games module is a
meaningful check.  Each call reads the run once: `_oracle_parts` splits a
compound formula's run into one part per component (copies 1..max+1,
every bitstring one longer than the longest stem), `_oracle_cells` splits a
cirquent's run into each oformula's part for every vector of the full
coordinate product (each coordinate 1..max+1), and legality and winner
judge the same parts.  The winner finds the offender by judging every
prefix.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator, Sequence

from .cirquent import Cirquent
from .formula import (
    And,
    AtomRef,
    Cost,
    Formula,
    NegAtom,
    Or,
    Pcost,
    Pst,
    St,
    parse_formula,
)
from .games import (
    EnumerationGame,
    FiniteGame,
    Interpretation,
    Position,
    interpret_formula,
    thread_representatives,
)
from .runs import (
    BOT,
    TOP,
    InfiniteBitstring,
    Labmove,
    Player,
    Run,
    negate_run,
    project_branch,
    project_prefix,
)
from .strategy import GRANT, EnvStrategy, MachineStrategy, MakeMove, simulate
from .values import InputError, Record


class HarnessError(InputError):
    """Unusable harness inputs."""


# Independent winner oracle.  All parsing below is local on purpose.

def _is_nat(text: str) -> bool:
    """A canonical numeral in ASCII digits, as move syntax has them."""
    return text.isascii() and text.isdigit() and (text == "0" or not text.startswith("0"))


def _is_pos(text: str) -> bool:
    return _is_nat(text) and text != "0"


def _oracle_parts(f: Formula, run: Run) -> tuple[bool, list[tuple[Formula, Run]]] | None:
    """None if a move of `run` names no component of the compound `f`;
    otherwise whether `f` is conjunctive, and each component with its part
    of `run`: copies 1..max+1, and every bitstring one longer than the
    longest stem, with each stem's moves in every thread it prefixes."""
    if not isinstance(f, (And, Or, Pst, Pcost, St, Cost)):
        raise HarnessError(f"cannot evaluate {f!r}")
    moves = []
    for lm in run:
        head, sep, tail = lm.move.partition(".")
        if not sep or not tail:
            return None
        moves.append((head, Labmove(lm.player, tail)))
    heads = [head for head, _ in moves]
    match = str.__eq__
    if isinstance(f, (And, Or)):
        if not all(head in ("1", "2") for head in heads):
            return None
        keys = [(f.left, "1"), (f.right, "2")]
    elif isinstance(f, (Pst, Pcost)):
        if not all(_is_pos(head) for head in heads):
            return None
        top = max(map(int, heads), default=0)
        keys = [(f.body, str(u)) for u in range(1, top + 2)]
    else:
        if not all(set(head) <= {"0", "1"} for head in heads):
            return None
        length = max(map(len, heads), default=0) + 1
        keys = [(f.body, "".join(bits)) for bits in itertools.product("01", repeat=length)]
        match = str.startswith
    return isinstance(f, (And, Pst, St)), [
        (g, tuple(lm for head, lm in moves if match(key, head))) for g, key in keys
    ]


def _oracle_legal_formula(f: Formula, interp: Interpretation, run: Run) -> bool:
    if isinstance(f, AtomRef):
        return interp[f.name].legal(run)
    if isinstance(f, NegAtom):
        return interp[f.name].legal(negate_run(run))
    parts = _oracle_parts(f, run)
    return parts is not None and all(_oracle_legal_formula(g, interp, r) for g, r in parts[1])


def _oracle_won_formula(f: Formula, interp: Interpretation, run: Run) -> Player:
    """Winner of a run assumed legal, by explicit enumeration."""
    if isinstance(f, AtomRef):
        return interp[f.name].winner(run)
    if isinstance(f, NegAtom):
        return interp[f.name].winner(negate_run(run)).opponent
    conjunctive, parts = _oracle_parts(f, run)
    won = (_oracle_won_formula(g, interp, r) is TOP for g, r in parts)
    return TOP if (all if conjunctive else any)(won) else BOT


def _oracle_cells(c: Cirquent, run: Run) -> Iterator[list[Run]] | None:
    """None if a move of `run` is no cell move of `c`: `a;u1,...,un.tail`
    with oformula `a`, one coordinate per overgroup, positive exactly in
    the overgroups holding `a`.  Otherwise, for each vector of the full
    product of coordinates 1..max+1, each oformula's part of `run`: its
    moves whose coordinates are the vector's or 0."""
    moves = []
    for lm in run:
        a_part, sep, rest = lm.move.partition(";")
        coords_part, sep2, tail = rest.partition(".")
        coords = coords_part.split(",") if coords_part else []
        if not (sep and sep2 and tail and _is_pos(a_part) and all(map(_is_nat, coords))):
            return None
        a, us = int(a_part), tuple(map(int, coords))
        if not 1 <= a <= c.size or len(us) != len(c.overgroups):
            return None
        if any((u > 0) != (a in g) for u, g in zip(us, c.overgroups)):
            return None
        moves.append((a, us, Labmove(lm.player, tail)))
    ranges = [range(1, max((us[j] for _, us, _ in moves), default=0) + 2)
              for j in range(len(c.overgroups))]
    return ([tuple(lm for b, us, lm in moves
                   if b == a and all(u == 0 or u == x for u, x in zip(us, xs)))
             for a in range(1, c.size + 1)]
            for xs in itertools.product(*ranges))


def _oracle_legal_cirquent(c: Cirquent, interp: Interpretation, run: Run) -> bool:
    cells = _oracle_cells(c, run)
    return cells is not None and all(
        _oracle_legal_formula(f, interp, r) for parts in cells for f, r in zip(c.oformulas, parts)
    )


def _oracle_won_cirquent(c: Cirquent, interp: Interpretation, run: Run) -> Player:
    for parts in _oracle_cells(c, run):
        won = {a for a, (f, r) in enumerate(zip(c.oformulas, parts), start=1)
               if _oracle_won_formula(f, interp, r) is TOP}
        if not all(won & under for under in c.undergroups):
            return BOT
    return TOP


Subject = Formula | Cirquent


def brute_force_legal(subject: Subject, interp: Interpretation, run: Run) -> bool:
    if isinstance(subject, Cirquent):
        return _oracle_legal_cirquent(subject, interp, run)
    return _oracle_legal_formula(subject, interp, run)


def brute_force_winner(subject: Subject, interp: Interpretation, run: Run) -> Player:
    """Total winner by explicit enumeration: offender rule first, then the
    winner conditions over the bounded copy/thread/cell space of the run."""
    for i in range(1, len(run) + 1):
        if not brute_force_legal(subject, interp, run[:i]):
            return run[i - 1].player.opponent
    if isinstance(subject, Cirquent):
        return _oracle_won_cirquent(subject, interp, run)
    return _oracle_won_formula(subject, interp, run)


# Random interpretations and structures

_MOVE_POOL = ("1", "2", "3", "4", "5", "6")
RANDOM_GAME_MAX_NODES = 100_000


def random_finite_game(rng: random.Random, depth: int, branching: int) -> FiniteGame:
    """A random prefix-closed tree (root has at least one child) with random
    winner labels, grown depth first straight into a trie, with an explicit
    stack, so any depth works.  Raises HarnessError once the tree passes
    RANDOM_GAME_MAX_NODES positions."""
    children: list[dict[Labmove, int]] = []
    labels: list[Player] = []
    options = [Labmove(p, m) for m in _MOVE_POOL for p in (TOP, BOT)]

    def add_node(d: int, min_children: int) -> tuple[int, Iterator[Labmove]]:
        """A new node at `d` levels above the leaves, and its moves to grow."""
        node = len(children)
        if node == RANDOM_GAME_MAX_NODES:
            raise HarnessError(f"random game over {RANDOM_GAME_MAX_NODES:,} positions; "
                               "lower --depth or --branching")
        children.append({})
        labels.append(TOP if rng.random() < 0.5 else BOT)
        if d == 0:
            return node, iter(())
        k = min(rng.randint(min_children, branching), len(options))
        return node, iter(rng.sample(options, k))

    stack = [(depth, *add_node(depth, 1))]
    while stack:
        d, node, moves = stack[-1]
        lm = next(moves, None)
        if lm is None:
            stack.pop()
            continue
        child, grandmoves = add_node(d - 1, 0)
        children[node][lm] = child
        stack.append((d - 1, child, grandmoves))
    return FiniteGame(children, labels)


def random_finite_interpretation(
    atoms, depth: int, branching: int, seed: int
) -> Interpretation:
    """Reproducible-by-seed mapping from atom names to random FiniteGames."""
    if depth < 1 or branching < 1:
        raise HarnessError("depth and branching must be at least 1")
    out: Interpretation = {}
    for name in sorted(set(atoms)):
        rng = random.Random(f"{seed}:{name}")
        out[name] = random_finite_game(rng, depth, branching)
    return out


def random_formula(rng: random.Random, atoms=("P", "Q"), depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        name = atoms[rng.randrange(len(atoms))]
        return NegAtom(name) if rng.random() < 0.5 else AtomRef(name)
    kind = rng.randrange(6)
    if kind == 0:
        return And(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    if kind == 1:
        return Or(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    body = random_formula(rng, atoms, depth - 1)
    return (Pst, Pcost, St, Cost)[kind - 2](body)


# Adversaries

Choose = Callable[[int], int]


def cycle_chooser(script) -> Choose:
    if not script:
        raise HarnessError("empty chooser script")
    it = itertools.cycle(script)
    return lambda n: next(it) % n


class StructuredAdversary(EnvStrategy):
    """At each grant, plays the move `choose(n)` of the n legal moves the
    watched position of the play lists for the environment, or passes when
    there are none; quiesces after `MAX_MOVES` moves or `MAX_GRANTS`
    grants."""

    MAX_MOVES = 6
    MAX_GRANTS = 30

    def __init__(self, make_chooser: Callable[[], Choose], name: str = "structured"):
        self.make_chooser = make_chooser
        self.name = name
        self._choose = make_chooser()
        self._moves = 0
        self._grants = 0
        self._position: Position | None = None

    def spawn(self) -> "StructuredAdversary":
        return StructuredAdversary(self.make_chooser, self.name)

    def watch(self, position: Position) -> None:
        self._position = position

    def on_grant(self, run: Sequence[Labmove]) -> str | None:
        self._grants += 1
        if self._moves >= self.MAX_MOVES or self._grants > self.MAX_GRANTS:
            return None
        moves = self._position.moves(BOT)
        if not moves:
            return None
        self._moves += 1
        return moves[self._choose(len(moves))]

    def settled(self) -> bool:
        return self._moves >= self.MAX_MOVES or self._grants >= self.MAX_GRANTS


class ScriptMachine(MachineStrategy):
    """Plays a fixed list of moves, one per turn, then grants forever.
    A None entry in the script grants permission instead of moving."""

    def __init__(self, moves):
        self.moves = tuple(moves)
        self._i = 0

    def spawn(self) -> "ScriptMachine":
        return ScriptMachine(self.moves)

    def next(self, run: Sequence[Labmove], step: int):
        if self._i < len(self.moves):
            mv = self.moves[self._i]
            self._i += 1
            if mv is None:
                return GRANT
            return MakeMove(mv)
        return GRANT


def random_adversary(seed: int) -> StructuredAdversary:
    return StructuredAdversary(lambda: random.Random(seed).randrange, name="random")


def scripted_adversary(script) -> StructuredAdversary:
    return StructuredAdversary(lambda: cycle_chooser(tuple(script)), name="scripted")


# The counterstrategy that distinguishes threads with fresh numbers.

def shortlex_bitstring(i: int) -> str:
    """The i-th finite bitstring (1-based) in shortlex order:
    empty, 0, 1, 00, 01, 10, 11, 000, ..."""
    if i < 1:
        raise HarnessError("index must be at least 1")
    m = i - 1
    length = 0
    while m >= (1 << length):
        m -= 1 << length
        length += 1
    return format(m, "b").zfill(length) if length else ""


class LoopCounterstrategy(EnvStrategy):
    """On the i-th grant (i <= k) plays `2.w.u` where w is the i-th shortlex
    bitstring and u is a fresh positive number (not used by either player in
    any thread or copy so far); silent afterwards.  `iteration` is the
    number of the next grant (also its shortlex index) and `used` holds the
    numbers already played; the freshness scan also covers the visible run."""

    name = "loop"

    def __init__(self, k: int):
        self.k = k
        self.iteration = 1
        self.used: set[int] = set()

    def spawn(self) -> "LoopCounterstrategy":
        return LoopCounterstrategy(self.k)

    def on_grant(self, run: Sequence[Labmove]) -> str | None:
        if self.iteration > self.k:
            return None
        seen = set(self.used)
        for lm in run:
            tail = lm.move.rsplit(".", 1)[-1]
            if _is_pos(tail):
                seen.add(int(tail))
        u = max(seen, default=0) + 1
        w = shortlex_bitstring(self.iteration)
        self.used.add(u)
        self.iteration += 1
        return f"2.{w}.{u}"

    def settled(self) -> bool:
        return self.iteration > self.k


def loop_counterstrategy(k: int) -> EnvStrategy:
    if k < 1:
        raise HarnessError("k must be at least 1")
    return LoopCounterstrategy(k)


# Bounded separation demonstration

SEPARATION_TARGET = "?~P \\/ b!P"


class RotatingCopycat(MachineStrategy):
    """Demo machine for the separation target: answers each thread move
    `2.w.u` with `1.c.u` for the next copy c in rotation, and each copy move
    `1.v.u` with `2..u`; grants otherwise."""

    def __init__(self):
        self._cursor = 0
        self._queue: list[str] = []
        self._copy = 0

    def spawn(self) -> "RotatingCopycat":
        return RotatingCopycat()

    def next(self, run: Sequence[Labmove], step: int):
        for lm in run[self._cursor:]:
            if lm.player is not BOT:
                continue
            head, sep, tail = lm.move.partition(".")
            if not sep or not tail:
                continue
            if head == "2":
                payload = tail.partition(".")[2]
                if payload:
                    self._copy += 1
                    self._queue.append(f"1.{self._copy}.{payload}")
            elif head == "1":
                payload = tail.partition(".")[2]
                if payload:
                    self._queue.append(f"2..{payload}")
        self._cursor = len(run)
        if self._queue:
            return MakeMove(self._queue.pop(0))
        return GRANT

    def settled(self, run: Sequence[Labmove]) -> bool:
        return not self._queue and self._cursor == len(run)


class SeparationReport(Record):
    __slots__ = __match_args__ = ("k", "budget", "run", "omega", "gamma", "class_count", "distinct",
                                  "witness", "winner", "conclusive", "lines")

    def __init__(self, k: int, budget: int, run: Run, omega: Run, gamma: Run, class_count: int,
                 distinct: bool, witness: InfiniteBitstring | None, winner: Player | None,
                 conclusive: bool, lines: list[str]):
        self.k = k
        self.budget = budget
        self.run = run
        self.omega = omega
        self.gamma = gamma
        self.class_count = class_count
        self.distinct = distinct
        self.witness = witness
        self.winner = winner
        self.conclusive = conclusive
        self.lines = lines

    def render(self) -> str:
        return "\n".join(self.lines)


def separation_demo(machine: MachineStrategy, k: int, budget: int) -> SeparationReport:
    """Play the machine against loop_counterstrategy(k) on the game of
    `?~P \\/ b!P` with P an enumeration game, then check, at this bound:
    pairwise distinctness of the branching component's thread projections
    over all touched-trie representatives; a witness thread y whose
    projection no copy of the other component negates; and that the final
    position is environment-won under the induced interpretation that makes
    P lose exactly the witness projection."""
    target = parse_formula(SEPARATION_TARGET)
    enumeration: Interpretation = {"P": EnumerationGame(lambda run: False)}
    game = interpret_formula(target, enumeration)
    result = simulate(machine, loop_counterstrategy(k), game, budget)
    delta = result.run
    omega = project_prefix(delta, "1.")
    gamma = project_prefix(delta, "2.")

    stems = set()
    for lm in gamma:
        head, sep, tail = lm.move.partition(".")
        if sep and tail and all(ch in "01" for ch in head):
            stems.add(head)
    reps = thread_representatives(stems)
    projections = [project_branch(gamma, x) for x in reps]
    distinct = len(set(projections)) == len(projections)

    touched = []
    for lm in omega:
        head = lm.move.partition(".")[0]
        if _is_pos(head) and int(head) not in touched:
            touched.append(int(head))

    witness = None
    witness_proj: Run = ()
    for x, proj in zip(reps, projections):
        if not proj:
            continue
        neg = negate_run(proj)
        if all(project_prefix(omega, f"{v}.") != neg for v in touched):
            witness = x
            witness_proj = proj
            break

    winner = None
    if witness is not None:
        induced: Interpretation = {
            "P": EnumerationGame(lambda run, lost=witness_proj: run == lost)
        }
        winner = interpret_formula(target, induced).winner(delta)

    # The bound is reached only if the budget let every thread open.
    opened = sum(lm.player is BOT for lm in gamma)
    conclusive = opened == k and distinct and witness is not None and winner is BOT
    lines = [
        f"separation demo: target {SEPARATION_TARGET}  k={k} budget={budget}",
        f"final run: {len(delta)} labmoves "
        f"(branching component: {len(gamma)}, copy component: {len(omega)})",
    ]
    if result.first_illegality:
        lines.append(f"note: {result.first_illegality}")
    lines.append(f"thread classes touched: {len(reps)}")
    lines.append(
        "distinctness over representatives: " + ("ok" if distinct else "FAILED")
    )
    if witness is None:
        lines.append(f"witness thread: none found (inconclusive at bound k={k})")
    else:
        lines.append(f"witness thread: {witness.render()}")
        lines.append(
            "induced interpretation: P loses exactly the witness projection "
            f"({len(witness_proj)} labmoves)"
        )
        lines.append(f"final position winner: {winner.value}")
    if opened < k:
        lines.append(f"note: the budget ended after {opened} of {k} threads")
    lines.append(
        f"verdict: {'separation upheld' if conclusive else 'inconclusive'} at bound k={k}"
    )
    return SeparationReport(
        k=k,
        budget=budget,
        run=delta,
        omega=omega,
        gamma=gamma,
        class_count=len(reps),
        distinct=distinct,
        witness=witness,
        winner=winner,
        conclusive=conclusive,
        lines=lines,
    )
