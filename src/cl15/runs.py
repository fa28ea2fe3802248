"""Runs: players, labeled moves, run files, and the projection operators.

A run is a finite tuple of labmoves.  Three projections slice runs:
by literal string prefix, by infinite-bitstring thread, and by
oformula/coordinate cell.
"""
from __future__ import annotations

import enum
import re
import sys

from .values import InputError, Value, set_field


class RunError(InputError):
    """Malformed run text or move."""


class Player(enum.Enum):
    TOP = "T"
    BOT = "B"

    @property
    def opponent(self) -> "Player":
        return Player.BOT if self is Player.TOP else Player.TOP


TOP = Player.TOP
BOT = Player.BOT


class Labmove(Value):
    __slots__ = __match_args__ = ("player", "move")

    def __init__(self, player: Player, move: str):
        if not move:
            raise RunError("empty move")
        set_field(self, "player", player)
        set_field(self, "move", move)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.player, self.move) == (other.player, other.move)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.player, self.move))


Run = tuple[Labmove, ...]


def content_lines(text: str) -> list[tuple[int, str]]:
    """Each line of `text` that is neither blank nor a `#` comment, stripped,
    with its 1-based number: the comment syntax of every input format."""
    numbered = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(lineno, line) for lineno, line in numbered if line and not line.startswith("#")]


def parse_run(text: str) -> Run:
    """Parse run text: one `T <move>` or `B <move>` per line, `#` comments."""
    out: list[Labmove] = []
    for lineno, line in content_lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise RunError(f"line {lineno}: expected '<label> <move>'")
        label, move = parts
        if label == "T":
            player = TOP
        elif label == "B":
            player = BOT
        else:
            raise RunError(f"line {lineno}: unknown label {label!r}")
        if re.search(r"\s", move):
            raise RunError(f"line {lineno}: whitespace inside move")
        out.append(Labmove(player, move))
    return tuple(out)


def render_run(run: Run) -> str:
    """Inverse of parse_run; one labmove per line."""
    return "\n".join(f"{lm.player.value} {lm.move}" for lm in run)


def negate_run(run: Run) -> Run:
    """Flip every label."""
    return tuple(Labmove(lm.player.opponent, lm.move) for lm in run)


def project_prefix(run: Run, a: str) -> Run:
    """Keep moves of shape a+rest, stripped of a; order and labels preserved."""
    return tuple(
        Labmove(lm.player, lm.move[len(a):])
        for lm in run
        if lm.move.startswith(a) and len(lm.move) > len(a)
    )


class InfiniteBitstring(Value):
    """The infinite bitstring stem + tail repeated forever."""

    __slots__ = __match_args__ = ("stem", "tail")

    def __init__(self, stem: str = "", tail: str = "0"):
        if not tail:
            raise RunError("tail must be non-empty")
        if not re.fullmatch(r"[01]*", stem) or not re.fullmatch(r"[01]+", tail):
            raise RunError("stem and tail must be bitstrings")
        set_field(self, "stem", stem)
        set_field(self, "tail", tail)

    def bit(self, i: int) -> str:
        if i < len(self.stem):
            return self.stem[i]
        return self.tail[(i - len(self.stem)) % len(self.tail)]

    def has_prefix(self, w: str) -> bool:
        """Is the finite bitstring w an initial segment of this string?"""
        return all(w[i] == self.bit(i) for i in range(len(w)))

    def render(self) -> str:
        return f"{self.stem}:{self.tail}"


def parse_bitstring_spec(text: str) -> InfiniteBitstring:
    """Parse `stem:tail` (tail defaults to `0` when omitted)."""
    if ":" in text:
        stem, tail = text.split(":", 1)
    else:
        stem, tail = text, "0"
    return InfiniteBitstring(stem, tail or "0")


_BIT_MOVE_RE = re.compile(r"([01]*)\.(.+)", re.DOTALL)


def split_bit_move(move: str) -> tuple[str, str] | None:
    """Split `w.rest` with w a possibly-empty bitstring; None if not that shape."""
    m = _BIT_MOVE_RE.fullmatch(move)
    if m is None:
        return None
    return m.group(1), m.group(2)


def project_branch(run: Run, x: InfiniteBitstring) -> Run:
    """Keep moves `w.rest` where w is an initial segment of x, stripped of `w.`."""
    out: list[Labmove] = []
    for lm in run:
        split = split_bit_move(lm.move)
        if split is None:
            continue
        w, rest = split
        if x.has_prefix(w):
            out.append(Labmove(lm.player, rest))
    return tuple(out)


_INDEX_MOVE_RE = re.compile(r"([1-9][0-9]*)\.(.+)", re.DOTALL)
_CELL_MOVE_RE = re.compile(
    r"([1-9][0-9]*);((?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*)?\.(.+)", re.DOTALL
)


def is_numeral(text: str) -> bool:
    """Canonical decimal numeral: ASCII digits, no leading zero."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")


def _digits_value(digits: str) -> int:
    """int(digits); past the interpreter's digit limit, a RunError naming it."""
    try:
        return int(digits)
    except ValueError:
        raise RunError(f"a number over the limit of {sys.get_int_max_str_digits():,} digits") from None


def numeral_value(text: str) -> int:
    """The value of a canonical numeral (ASCII digits, no leading zero), spaces
    around it allowed; a ValueError for other text."""
    digits = text.strip()
    if not is_numeral(digits):
        raise ValueError(f"not a number: {text!r}")
    return _digits_value(digits)


def split_index_move(move: str) -> tuple[int, str] | None:
    """Split `u.rest` with u a positive canonical numeral; None otherwise."""
    m = _INDEX_MOVE_RE.fullmatch(move)
    if m is None:
        return None
    return _digits_value(m.group(1)), m.group(2)


def split_cell_move(move: str) -> tuple[int, tuple[int, ...], str] | None:
    """Split `a;u1,...,un.rest` (or `a;.rest` when n=0) into (a, coords, rest).

    Returns None if the move is not of that shape; a >= 1 and each u_j >= 0,
    all canonical numerals.
    """
    m = _CELL_MOVE_RE.fullmatch(move)
    if m is None:
        return None
    a, coords, rest = m.groups()
    return _digits_value(a), tuple(map(_digits_value, coords.split(","))) if coords else (), rest


def format_cell_move(a: int, coords: tuple[int, ...], rest: str) -> str:
    """Inverse of split_cell_move."""
    return f"{a};{','.join(str(u) for u in coords)}.{rest}"


def project_cell(run: Run, a: int, xs: tuple[int, ...]) -> Run:
    """Keep moves `a;u1,...,un.rest` whose nonzero u_j all equal xs[j-1],
    stripped through the first dot.  Non-conforming moves are deleted;
    their legality is the ambient game's concern, not the projector's."""
    out: list[Labmove] = []
    for lm in run:
        split = split_cell_move(lm.move)
        if split is None:
            continue
        b, coords, rest = split
        if b != a or len(coords) != len(xs):
            continue
        if all(u == 0 or u == x for u, x in zip(coords, xs)):
            out.append(Labmove(lm.player, rest))
    return tuple(out)
