"""Executable game semantics: legality and winner for base and composite games.

Every game evaluates runs through a *position*.  `Game.start()` returns the
position of the empty run; `Position.extend(lm)` appends one labmove and
says at once whether the run is still legal; the first illegal move fixes
the offender, who loses, and later moves are ignored.
`Position.moves(player)` lists that player's legal next moves, so a caller
that follows a run can choose among them on its one position.
`Position.winner()` is total: the offender rule first, then the winner of
the legal run.  `Game.legal(run)`, `Game.offender(run)` and
`Game.winner(run)` replay the run through a fresh position.

`moves` lists a finite game's trie children of that player, and a composite
position prefixes its components' lists, in an order fixed by the run and
the game.  Copy indices, cirquent coordinates and enumeration numerals
range over the values used there plus one fresh value (the symmetry of the
cirquent winner below); thread stems over the used stems, the empty stem
and their one-bit children.  An offended position lists nothing.

Cost model.  A finite game (a trie) costs time linear in its lines to build
and O(1) per move.  A composite position routes each labmove to one
component position, parsing the move once, so a play costs time linear in
its length (a branching-recurrence position replays its run once when a new
stem splits its thread classes).  A list of moves costs its components'
lists, but a branching-recurrence position replays, for each move it finds
at a stem, the thread classes a move there acts in, and a cirquent lists
every vector of used-or-fresh coordinates.  A cirquent position keeps one
position per played cell, keyed by oformula and coordinates, and its
winner quantifies each undergroup only over the overgroups that contain
its oformulas, with each coordinate ranging over the values that
undergroup's moves used plus one fresh value.

Every constructor here defines position legality move-locally or through
projections, so prefix closure holds by construction and is checked in
tests rather than enforced at call time.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

from .cirquent import Cirquent, is_valid
from .formula import And, AtomRef, Cost, Formula, NegAtom, Or, Pcost, Pst, St
from .runs import (
    BOT,
    TOP,
    InfiniteBitstring,
    Labmove,
    Player,
    Run,
    is_numeral,
    split_bit_move,
    split_cell_move,
    split_index_move,
)


class GameError(ValueError):
    """Malformed game description or unusable inputs."""


class Position:
    """The run of one game so far, extended one labmove at a time."""

    def __init__(self) -> None:
        self.offender: Player | None = None

    def extend(self, lm: Labmove) -> bool:
        """Append a labmove; False once the run is illegal.  The first
        illegal labmove fixes the offender and later ones are ignored."""
        if self.offender is None and not self._step(lm):
            self.offender = lm.player
        return self.offender is None

    def moves(self, player: Player) -> list[str]:
        """The moves of `player` that `extend` would accept now, up to
        renaming unused values (see the module docstring)."""
        return [] if self.offender is not None else self._moves(player)

    def winner(self) -> Player:
        """Total winner of the run so far."""
        if self.offender is not None:
            return self.offender.opponent
        return self._won()

    def _step(self, lm: Labmove) -> bool:
        """Append a labmove to a legal run; is the result legal?"""
        raise NotImplementedError

    def _moves(self, player: Player) -> list[str]:
        """The moves of `player` that keep this legal run legal."""
        raise NotImplementedError

    def _won(self) -> Player:
        """Winner of the run, which is legal."""
        raise NotImplementedError


class _RoutingPosition(Position):
    """A position that passes each labmove, parsed once by `_route`, to the
    position of the one component it acts on."""

    def _route(self, lm: Labmove) -> tuple[Position, Labmove] | None:
        """The component position and the labmove it receives, or None if
        the move is illegal here.  A component not played yet is created
        from its base game and kept."""
        raise NotImplementedError

    def _step(self, lm: Labmove) -> bool:
        routed = self._route(lm)
        return routed is not None and routed[0].extend(routed[1])


class Game:
    """Abstract constant game."""

    def start(self) -> Position:
        """The position of the empty run."""
        raise NotImplementedError

    def replay(self, run: Run) -> Position:
        """The position after `run`, stopped at its first illegal labmove."""
        pos = self.start()
        for lm in run:
            if not pos.extend(lm):
                break
        return pos

    def legal(self, run: Run) -> bool:
        return self.replay(run).offender is None

    def offender(self, run: Run) -> Player | None:
        """The player whose move ends the shortest illegal prefix, if any."""
        return self.replay(run).offender

    def winner(self, run: Run) -> Player:
        """Total winner function; applies the offender rule to illegal runs."""
        return self.replay(run).winner()


Interpretation = dict[str, Game]


def _combine(results, conjunctive: bool) -> Player:
    """TOP iff all (conjunctive) or any (disjunctive) of the winners is TOP."""
    if conjunctive:
        return TOP if all(r is TOP for r in results) else BOT
    return TOP if any(r is TOP for r in results) else BOT


class FiniteGame(Game):
    """A desk-scale game given by an explicit prefix-closed tree with labels,
    held as a trie: node 0 is the empty run, and parents come first."""

    def __init__(self, children: list[dict[Labmove, int]], labels: list[Player]):
        self._children = children
        self._node_labels = labels

    def start(self) -> Position:
        return _TreePosition(self)

    @property
    def labels(self) -> dict[Run, Player]:
        """Every run of the tree with its label, derived on each access."""
        runs: list[Run] = [()] * len(self._children)
        for node, kids in enumerate(self._children):
            for lm, child in kids.items():
                runs[child] = runs[node] + (lm,)
        return dict(zip(runs, self._node_labels))

    @property
    def tree(self) -> frozenset[Run]:
        return frozenset(self.labels)


class _TreePosition(Position):
    def __init__(self, game: FiniteGame):
        super().__init__()
        self.game = game
        self.node = 0

    def _step(self, lm: Labmove) -> bool:
        child = self.game._children[self.node].get(lm)
        if child is None:
            return False
        self.node = child
        return True

    def _moves(self, player: Player) -> list[str]:
        return [lm.move for lm in self.game._children[self.node] if lm.player is player]

    def _won(self) -> Player:
        return self.game._node_labels[self.node]


class EnumerationGame(Game):
    """Every run of canonical numeral moves is legal; a predicate picks the
    runs lost by the machine."""

    def __init__(self, loses: Callable[[Run], bool]):
        self.loses = loses

    def start(self) -> Position:
        return _EnumerationPosition(self.loses)


class _EnumerationPosition(Position):
    def __init__(self, loses: Callable[[Run], bool]):
        super().__init__()
        self.loses = loses
        self.run: list[Labmove] = []

    def _step(self, lm: Labmove) -> bool:
        self.run.append(lm)
        return is_numeral(lm.move)

    def _moves(self, player: Player) -> list[str]:
        used = sorted({int(lm.move) for lm in self.run})
        return [str(u) for u in used + [used[-1] + 1 if used else 0]]

    def _won(self) -> Player:
        return BOT if self.loses(tuple(self.run)) else TOP


class PermissiveGame(Game):
    """Everything is legal and won by the machine; used for translation
    experiments where only the run matters."""

    def start(self) -> Position:
        return _PermissivePosition()


class _PermissivePosition(Position):
    def _step(self, lm: Labmove) -> bool:
        return True

    def _moves(self, player: Player) -> list[str]:
        raise GameError("a permissive game has no list of moves")

    def _won(self) -> Player:
        return TOP


_LABELS = {"T": TOP, "B": BOT}


def finite_game(lines: Iterable[tuple[int, str]]) -> FiniteGame:
    """The finite game of stripped position lines `<labmoves joined by ;> =>
    T|B` (`()` for the empty run) with their numbers, in any order; a run
    given twice keeps its last label.  Runs are keyed by their item texts,
    then numbered parents first with one `Labmove` per node."""
    labels: dict[tuple[str, ...], Player] = {}
    first_line: dict[tuple[str, ...], tuple[int, str]] = {}
    for n, ln in lines:
        run_text, arrow, label_text = ln.partition("=>")
        if not arrow:
            raise GameError(f"line {n}: missing '=>' in {ln!r}")
        label = _LABELS.get(label_text.strip())
        if label is None:
            raise GameError(f"line {n}: bad winner label {label_text.strip()!r}")
        run_text = run_text.strip()
        items: list[str] = []
        for item in run_text.split(";") if run_text != "()" else ():
            parts = item.split()
            if len(parts) != 2 or parts[0] not in _LABELS:
                raise GameError(f"line {n}: bad labmove {item!r}")
            items += parts
        key = tuple(items)
        labels[key] = label
        first_line.setdefault(key, (n, run_text))
    if () not in labels:
        raise GameError("tree must contain the empty run '()'")
    bad = next((key for key in labels if key and key[:-2] not in labels), None)
    if bad is not None:
        n, run_text = first_line[bad]
        prefix = run_text.rpartition(";")[0].strip() or "()"
        raise GameError(f"line {n}: tree not prefix-closed: {run_text!r} has no line for "
                        f"its prefix {prefix!r}")
    nodes = sorted(labels, key=len)
    ids = {key: i for i, key in enumerate(nodes)}
    children: list[dict[Labmove, int]] = [{} for _ in nodes]
    for key in nodes[1:]:
        children[ids[key[:-2]]][Labmove(_LABELS[key[-2]], key[-1])] = ids[key]
    return FiniteGame(children, [labels[key] for key in nodes])


def parse_finite_game(text: str) -> FiniteGame:
    """Parse the finite-game text format: a `finitegame` header, then one
    position line per legal run (see `finite_game`)."""
    lines = [(n, ln) for n, ln in enumerate(map(str.strip, text.splitlines()), start=1)
             if ln and not ln.startswith("#")]
    if not lines or lines[0][1] != "finitegame":
        raise GameError("missing 'finitegame' header")
    return finite_game(lines[1:])


# Composite games.  Each position routes a labmove, parsed once, to the
# position of the one component it acts on.

class NegGame(Game):
    def __init__(self, base: Game):
        self.base = base

    def start(self) -> Position:
        return _NegPosition(self.base.start())


class _NegPosition(_RoutingPosition):
    def __init__(self, base: Position):
        super().__init__()
        self.base = base

    def _route(self, lm: Labmove) -> tuple[Position, Labmove]:
        return self.base, Labmove(lm.player.opponent, lm.move)

    def _moves(self, player: Player) -> list[str]:
        return self.base.moves(player.opponent)

    def _won(self) -> Player:
        return self.base.winner().opponent


class _ChoicelessPair(Game):
    """Shared shape of parallel conjunction/disjunction: moves carry a
    `1.` or `2.` prefix routing them to one component."""

    conjunctive: bool

    def __init__(self, left: Game, right: Game):
        self.left = left
        self.right = right

    def start(self) -> Position:
        return _PairPosition(self.left.start(), self.right.start(), self.conjunctive)


class _PairPosition(_RoutingPosition):
    def __init__(self, left: Position, right: Position, conjunctive: bool):
        super().__init__()
        self.sides = (left, right)
        self.conjunctive = conjunctive

    def _route(self, lm: Labmove) -> tuple[Position, Labmove] | None:
        split = split_index_move(lm.move)
        if split is None or split[0] > 2:
            return None
        side, rest = split
        return self.sides[side - 1], Labmove(lm.player, rest)

    def _moves(self, player: Player) -> list[str]:
        return [f"{i}.{m}" for i, side in enumerate(self.sides, 1) for m in side.moves(player)]

    def _won(self) -> Player:
        return _combine((side.winner() for side in self.sides), self.conjunctive)


class AndGame(_ChoicelessPair):
    conjunctive = True


class OrGame(_ChoicelessPair):
    conjunctive = False


class _CopyBank(Game):
    """Shared shape of parallel recurrence/corecurrence: copies addressed by
    positive integers, moves `u.rest`.  A finite run touches finitely many
    copies; all untouched copies carry the empty run, so the winner
    quantifier is decided by touched copies plus one empty-run check."""

    conjunctive: bool

    def __init__(self, base: Game):
        self.base = base

    def start(self) -> Position:
        return _CopyBankPosition(self)


class _CopyBankPosition(_RoutingPosition):
    def __init__(self, game: _CopyBank):
        super().__init__()
        self.game = game
        self.copies: dict[int, Position] = {}

    def _route(self, lm: Labmove) -> tuple[Position, Labmove] | None:
        split = split_index_move(lm.move)
        if split is None:
            return None
        u, rest = split
        copy = self.copies.get(u)
        if copy is None:
            copy = self.copies[u] = self.game.base.start()
        return copy, Labmove(lm.player, rest)

    def _moves(self, player: Player) -> list[str]:
        fresh = max(self.copies, default=0) + 1, self.game.base.start()
        return [f"{u}.{m}" for u, copy in [*sorted(self.copies.items()), fresh]
                for m in copy.moves(player)]

    def _won(self) -> Player:
        results = [copy.winner() for copy in self.copies.values()]
        results.append(self.game.base.start().winner())
        return _combine(results, self.game.conjunctive)


class PstGame(_CopyBank):
    conjunctive = True


class PcostGame(_CopyBank):
    conjunctive = False


def thread_representatives(bitstrings: set[str]) -> list[InfiniteBitstring]:
    """One representative per equivalence class of infinite bitstrings,
    where x and y are equivalent iff the same members of `bitstrings` are
    initial segments of both.

    Walk the prefix trie of the given set; for each node p, the exits
    p0000... and p1000... together cover every class.  Representatives are
    deduplicated by their prefix class.
    """
    nodes = {""}
    for w in bitstrings:
        for i in range(len(w) + 1):
            nodes.add(w[:i])
    candidates = []
    for p in sorted(nodes, key=lambda s: (len(s), s)):
        candidates.append(InfiniteBitstring(p, "0"))
        candidates.append(InfiniteBitstring(p + "1", "0"))
    reps: list[InfiniteBitstring] = []
    seen_classes: set[frozenset[str]] = set()
    for x in candidates:
        cls = frozenset(w for w in bitstrings if x.has_prefix(w))
        if cls not in seen_classes:
            seen_classes.add(cls)
            reps.append(x)
    return reps


class _ThreadBank(Game):
    """Shared shape of branching recurrence/corecurrence: threads addressed
    by infinite bitstrings, moves `w.rest` acting in all threads extending w.
    Winner quantifiers over the continuum of threads are decided on
    representatives of the finitely many classes the run distinguishes."""

    conjunctive: bool

    def __init__(self, base: Game):
        self.base = base

    def start(self) -> Position:
        return _ThreadBankPosition(self)


class _ThreadBankPosition(Position):
    """One base position per thread class.  A move with a new stem refines
    the classes, and the positions are rebuilt from the moves played."""

    def __init__(self, game: _ThreadBank):
        super().__init__()
        self.game = game
        self.played: list[tuple[str, Labmove]] = []
        self.stems: set[str] = set()
        self.threads = [(InfiniteBitstring(), game.base.start())]  # one class, no stems

    def _replay(self, reps: list[InfiniteBitstring]) -> list[tuple[InfiniteBitstring, Position]]:
        """A position per representative, holding the played moves it sees."""
        return [
            (x, self.game.base.replay([m for w, m in self.played if x.has_prefix(w)]))
            for x in reps
        ]

    def _step(self, lm: Labmove) -> bool:
        split = split_bit_move(lm.move)
        if split is None:
            return False
        stem, rest = split
        if stem not in self.stems:
            self.stems.add(stem)
            self.threads = self._replay(thread_representatives(self.stems))
        inner = Labmove(lm.player, rest)
        self.played.append((stem, inner))
        return all(pos.extend(inner) for x, pos in self.threads if x.has_prefix(stem))

    def _moves(self, player: Player) -> list[str]:
        # A move legal at stem w is legal in thread w:0 in particular; it is
        # listed if it extends every thread class that a move at w acts in.
        roots = self.stems | {""}
        out = []
        for w in sorted(roots | {w + bit for w in roots for bit in "01"}, key=lambda w: (len(w), w)):
            ((_, thread),) = self._replay([InfiniteBitstring(w)])
            reached = [x for x in thread_representatives(self.stems | {w}) if x.has_prefix(w)]
            out += [f"{w}.{m}" for m in thread.moves(player)
                    if all(pos.extend(Labmove(player, m)) for _, pos in self._replay(reached))]
        return out

    def _won(self) -> Player:
        return _combine((pos.winner() for _, pos in self.threads), self.game.conjunctive)


class StGame(_ThreadBank):
    conjunctive = True


class CostGame(_ThreadBank):
    conjunctive = False


_UNARY_GAMES = {Pst: PstGame, Pcost: PcostGame, St: StGame, Cost: CostGame}


def interpret_formula(f: Formula, interp: Interpretation) -> Game:
    """Build the compositional game for f under the interpretation."""
    if isinstance(f, (AtomRef, NegAtom)):
        if f.name not in interp:
            raise GameError(f"unmapped atom {f.name}")
        return interp[f.name] if isinstance(f, AtomRef) else NegGame(interp[f.name])
    if isinstance(f, (And, Or)):
        pair = AndGame if isinstance(f, And) else OrGame
        return pair(interpret_formula(f.left, interp), interpret_formula(f.right, interp))
    unary = _UNARY_GAMES.get(type(f))
    if unary is None:
        raise GameError(f"cannot interpret {f!r}")
    return unary(interpret_formula(f.body, interp))


class CirquentGame(Game):
    """The game of a cirquent: moves `a;u1,...,un.rest` name an oformula a
    and one coordinate per overgroup, with u_j = 0 exactly when overgroup j
    does not contain oformula a.  Winner: the machine wins iff for every
    undergroup and every choice of positive coordinates, some oformula in
    that undergroup has a machine-won cell."""

    def __init__(self, c: Cirquent, interp: Interpretation):
        if not is_valid(c):
            raise GameError("invalid cirquent")
        self.cirquent = c
        self.base_games = [interpret_formula(f, interp) for f in c.oformulas]
        self.membership = [
            tuple(a in g for g in c.overgroups) for a in range(1, c.size + 1)
        ]
        # Per undergroup: the overgroups that contain any of its oformulas.
        self.under_overs = [
            tuple(j for j, g in enumerate(c.overgroups) if g & under)
            for under in c.undergroups
        ]

    def start(self) -> Position:
        return _CirquentPosition(self)


class _CirquentPosition(_RoutingPosition):
    """One base position per played cell.  A legal move of oformula a has
    nonzero coordinates exactly in the overgroups containing a, so its
    coordinate tuple names its cell, and every cell never played holds the
    empty run."""

    def __init__(self, game: CirquentGame):
        super().__init__()
        self.game = game
        self.cells: dict[tuple[int, tuple[int, ...]], Position] = {}

    def _route(self, lm: Labmove) -> tuple[Position, Labmove] | None:
        split = split_cell_move(lm.move)
        if split is None:
            return None
        a, coords, rest = split
        g = self.game
        if not 1 <= a <= g.cirquent.size or len(coords) != len(g.cirquent.overgroups):
            return None
        if any((u > 0) != member for u, member in zip(coords, g.membership[a - 1])):
            return None
        cell = self.cells.get((a, coords))
        if cell is None:
            cell = self.cells[(a, coords)] = g.base_games[a - 1].start()
        return cell, Labmove(lm.player, rest)

    def _moves(self, player: Player) -> list[str]:
        g = self.game
        options = []
        for j in range(len(g.cirquent.overgroups)):
            used = sorted({coords[j] for _, coords in self.cells if coords[j]})
            options.append(used + [used[-1] + 1 if used else 1])
        out = []
        for a, member in enumerate(g.membership, start=1):
            empty = g.base_games[a - 1].start().moves(player)
            for coords in itertools.product(*(o if m else (0,) for o, m in zip(options, member))):
                cell = self.cells.get((a, coords))
                head = f"{a};{','.join(map(str, coords))}."
                out += [head + m for m in (empty if cell is None else cell.moves(player))]
        return out

    def _won(self) -> Player:
        g = self.game
        won = {key: cell.winner() is TOP for key, cell in self.cells.items()}
        empty_won: dict[int, bool] = {}
        n = len(g.cirquent.overgroups)
        for under, overs in zip(g.cirquent.undergroups, g.under_overs):
            options = []
            for j in overs:
                used = sorted({coords[j] for a, coords in won if a in under and coords[j]})
                options.append(used + [used[-1] + 1 if used else 1])
            xs = [0] * n
            for values in itertools.product(*options):
                for j, u in zip(overs, values):
                    xs[j] = u
                if not any(self._cell_won(a, xs, won, empty_won) for a in under):
                    return BOT
        return TOP

    def _cell_won(self, a: int, xs: list[int], won: dict, empty_won: dict[int, bool]) -> bool:
        coords = tuple(u if member else 0 for u, member in zip(xs, self.game.membership[a - 1]))
        result = won.get((a, coords))
        if result is None:
            result = empty_won.get(a)
            if result is None:
                result = empty_won[a] = self.game.base_games[a - 1].start().winner() is TOP
        return result


def interpret_cirquent(c: Cirquent, interp: Interpretation) -> Game:
    return CirquentGame(c, interp)
