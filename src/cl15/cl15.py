"""The inference rules as checkable premise/conclusion relations with
their move translators, plus whole-proof verification and the proof file
format.

Each rule is one class, and the class is its only record: its file-format
`name`, its parameters (its fields, in file order), its check
`holds(premise, conclusion)`, the `mismatch` text for a pair that is not
an instance, and, for every rule but the axiom, its move translator
`translator(premise, conclusion)`.  A check runs a deterministic
constructor in the rule's natural direction (conclusion from premise for
the exchanges, duplications and merging, premise from conclusion for the
rest) and compares the result with the given cirquent, so diagnostics are
exact and checking is linear.  A translator turns a strategy for the
premise into one for the conclusion by translating split cell moves both
ways; `strategy.extract_solution` builds one per verified application.
"""
from __future__ import annotations

import re
from collections.abc import Callable

from .cirquent import Cirquent, CirquentError, Group, clubsuit, parse_cirquent, render_cirquent, validate_cirquent
from .formula import And, Formula, FormulaError, Or, Pcost, Pst, negate, render_formula
from .runs import RunError, content_lines, numeral_value, split_index_move
from .values import InputError, Value, set_field


class ProofError(InputError):
    """Malformed proof text."""


class Violation(Value):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):
        set_field(self, "reason", reason)


# Move translators

Cell = tuple[int, tuple[int, ...], str]
Move = str | Cell


class Translator(Value):
    """Move maps between an outer (conclusion) play and an imagined inner
    (premise) play.  `outer_to_inner` translates environment moves inward
    (None drops the move); `inner_to_outer` translates the inner machine's
    moves outward (None absorbs the move into the imagined run only).  Both
    map split cell moves, except at the edge, the one translator that maps
    move texts: outside it the moves are the real run's.  A `structural`
    translator's maps read and change only a move's oformula and
    coordinates and keep its payload, so whether it drops or absorbs a move
    depends on those alone; only the rules' translators set it.  Maps that keep a play's copy tables come with
    `renew`, which builds the translator again with empty tables."""

    __slots__ = __match_args__ = ("name", "outer_to_inner", "inner_to_outer", "structural", "renew")

    def __init__(self, name: str, outer_to_inner: Callable[[Move], Move | None],
                 inner_to_outer: Callable[[Cell], Move | None], structural: bool = False,
                 renew: Callable[[], Translator] | None = None):
        set_field(self, "name", name)
        set_field(self, "outer_to_inner", outer_to_inner)
        set_field(self, "inner_to_outer", inner_to_outer)
        set_field(self, "structural", structural)
        set_field(self, "renew", renew)

    def fresh(self) -> Translator:
        """This translator for a new play: itself, unless it keeps tables."""
        return self if self.renew is None else self.renew()


def identity_translator(name: str) -> Translator:
    return Translator(name, lambda m: m, lambda m: m, structural=True)


def _copy_number(seen: dict, back: dict, key: tuple[int, ...], arity: int) -> tuple[int, ...] | None:
    """The copy tuple that `key` stands for in a copy table read one way.
    A key seen first gets the first (k, ..., k) of `arity` that the reverse
    map `back` lacks, recorded both ways, so the table stays injective;
    None if there is none, which only arity 0 runs out of."""
    image = seen.get(key)
    if image is None:
        k = 1
        while (image := (k,) * arity) in back:
            if not arity:
                return None
            k += 1
        seen[key] = image
        back[image] = key
    return image


# Rule instances (all indices 1-based).  Rules whose parameter has the same
# name share a base that holds it, and the three rules that split an oformula
# in two (contraction, `or` and `and`) share `_Split`, which holds their
# premise constructor and their translator.

_FORWARD_MISMATCH = "conclusion does not match the rule applied to the premise"


class Rule(Value):
    """A rule instance; each rule's class subclasses this one and sets
    `name`, `params` (its fields, in file order) and `mismatch`."""

    __slots__ = ()
    name = mismatch = ""
    params: tuple[str, ...]

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        """Is (premise p, conclusion c) an instance of this rule?  May raise
        ValueError, whose message then explains why not."""
        raise NotImplementedError

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        """The move translator for an application (premise, conclusion) that
        `holds`; every rule but the axiom has one."""
        raise NotImplementedError


class Axiom(Rule):
    """The axiom on formulas F1..Fn.  Its cirquent ~F1, F1, ..., ~Fn, Fn
    says everything about it, so it has no parameters and no fields."""

    __slots__ = params = ()
    name, mismatch = "axiom", "axiom has no premise"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return False


class _AtPos(Rule):
    __slots__ = __match_args__ = params = ("pos",)
    mismatch = _FORWARD_MISMATCH

    def __init__(self, pos: int):
        set_field(self, "pos", pos)


class _AtOformula(Rule):
    __slots__ = __match_args__ = params = ("oformula",)

    def __init__(self, oformula: int):
        set_field(self, "oformula", oformula)


class OformulaExchange(_AtPos):
    __slots__ = ()
    name = "exchange_oformulas"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return conclusion_of_oformula_exchange(p, self.pos) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        i = self.pos

        def both_ways(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            return (i + 1 if a == i else i if a == i + 1 else a), coords, rest

        return Translator(f"exchange_oformulas@{i}", both_ways, both_ways, structural=True)


class UndergroupExchange(_AtPos):
    __slots__ = ()
    name = "exchange_unders"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, _swap_groups(p.undergroups, self.pos), p.overgroups) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        return identity_translator(f"exchange_unders@{self.pos}")


class OvergroupExchange(_AtPos):
    __slots__ = ()
    name = "exchange_overs"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _swap_groups(p.overgroups, self.pos)) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        i = self.pos

        def both_ways(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            if len(coords) < i + 1:
                return None
            cs = list(coords)
            cs[i - 1], cs[i] = cs[i], cs[i - 1]
            return a, tuple(cs), rest

        return Translator(f"exchange_overs@{i}", both_ways, both_ways, structural=True)


class UndergroupDuplication(_AtPos):
    __slots__ = ()
    name = "dup_under"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, _duplicate_group(p.undergroups, self.pos), p.overgroups) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        return identity_translator(f"dup_under@{self.pos}")


class OvergroupDuplication(_AtPos):
    """A pair of coordinates in the two copies is one premise coordinate."""

    __slots__ = ()
    name = "dup_over"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _duplicate_group(p.overgroups, self.pos)) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        j = self.pos
        inner, outer = {}, {}  # one play's copy table, both ways

        def outer_to_inner(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            if len(coords) < j + 1:
                return None
            us = coords[j - 1:j + 1]
            if us == (0, 0):
                merged = (0,)
            elif 0 in us:
                return None
            else:
                merged = _copy_number(inner, outer, us, 1)
            return a, coords[:j - 1] + merged + coords[j + 1:], rest

        def inner_to_outer(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            if len(coords) < j:
                return None
            u = coords[j - 1:j]
            expanded = (0, 0) if u == (0,) else _copy_number(outer, inner, u, 2)
            return a, coords[:j - 1] + expanded + coords[j:], rest

        return Translator(f"dup_over@{j}", outer_to_inner, inner_to_outer, structural=True,
                          renew=lambda: self.translator(premise, conclusion))


class Merging(Rule):
    """Copy v of an oformula is v in each merged overgroup that holds it and
    0 in the other.  Going out, a pair whose zeros match that membership is
    its larger entry, and two different positive entries are absorbed."""

    __slots__ = __match_args__ = params = ("over",)
    name, mismatch = "merging", _FORWARD_MISMATCH

    def __init__(self, over: int):
        set_field(self, "over", over)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _merge_groups(p.overgroups, self.over)) == c

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        j = self.over
        left, right = premise.overgroups[j - 1:j + 1]

        def outer_to_inner(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            member = a in left, a in right
            if len(coords) < j or (coords[j - 1] > 0) != any(member):
                return None
            v = coords[j - 1]
            return a, coords[:j - 1] + tuple(v if m else 0 for m in member) + coords[j:], rest

        def inner_to_outer(cell: Cell) -> Cell | None:
            a, coords, rest = cell
            pair = coords[j - 1:j + 1]
            if (len(pair) < 2 or (pair[0] > 0, pair[1] > 0) != (a in left, a in right)
                    or 0 < min(pair) < max(pair)):
                return None
            return a, coords[:j - 1] + (max(pair),) + coords[j + 1:], rest

        return Translator(f"merging@{j}", outer_to_inner, inner_to_outer, structural=True)


class Weakening(Rule):
    __slots__ = __match_args__ = params = ("under", "oformula")
    name, mismatch = "weakening", "premise is not the arc-deletion of the conclusion"

    def __init__(self, under: int, oformula: int):
        set_field(self, "under", under)
        set_field(self, "oformula", oformula)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_weakening(c, self.under, self.oformula) == p

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        name = f"weakening@{self.under},{self.oformula}"
        # The checked step deleted oformula d exactly when its premise is
        # shorter, and with d each overgroup that held d alone.
        if premise.size == conclusion.size:
            return identity_translator(name)
        d = self.oformula
        dropped = {j for j, g in enumerate(conclusion.overgroups, start=1) if g == {d}}

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

        return Translator(name, outer_to_inner, inner_to_outer, structural=True)


class _Split(_AtOformula):
    """Contraction, `or` and `and`: the premise holds oformula a of the
    conclusion as its two `sides`, at a and a+1.  A rule states the `kind`
    of oformula a and how a payload `k.tail` in a goes in, to side 1 or 2
    (`inward`; None drops it), and how a side's move comes out (`outward`;
    None absorbs it).  With `split_unders`, an undergroup that held a
    becomes two: one that holds side 1, then one that holds side 2."""

    __slots__ = ()
    kind: type
    split_unders = False
    sides: Callable[[Formula], tuple[Formula, Formula]]
    inward: Callable[[int, str], tuple[int, str] | None]
    outward: Callable[[int, str], str | None]

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return self.premise(c) == p

    def premise(self, conclusion: Cirquent) -> Cirquent:
        """The premise of this rule's application to `conclusion`."""
        a = self.oformula
        of = list(conclusion.oformulas)
        of[a - 1:a] = self.sides(_oformula(conclusion, a, self.kind))
        unders: list[Group] = []
        for g in conclusion.undergroups:
            spread = _shift_after(g, a)
            if self.split_unders and a in g:
                unders += (spread - {a + 1}, spread - {a})
            else:
                unders.append(spread)
        overs = tuple(_shift_after(g, a) for g in conclusion.overgroups)
        return Cirquent(tuple(of), tuple(unders), overs)

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        a = self.oformula

        def outer_to_inner(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            if c != a:
                return c + 1 if c > a else c, coords, rest
            payload = split_index_move(rest)
            inner = None if payload is None else self.inward(*payload)
            if inner is None:
                return None
            side, move = inner
            return a + side - 1, coords, move

        def inner_to_outer(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            if c not in (a, a + 1):
                return c - 1 if c > a + 1 else c, coords, rest
            move = self.outward(c - a + 1, rest)
            return None if move is None else (a, coords, move)

        return Translator(f"{self.name}@{a}", outer_to_inner, inner_to_outer)


class Contraction(_Split):
    """Copy k of `?F` in a is copy (k+1)//2 of side 1 for odd k, and of side
    2 for even k."""

    __slots__ = ()
    name, mismatch = "contraction", "premise is not the two-copy split of the conclusion"
    kind = Pcost

    def sides(self, f: Formula) -> tuple[Formula, Formula]:
        return f, f

    def inward(self, k: int, tail: str) -> tuple[int, str] | None:
        return 2 - k % 2, f"{(k + 1) // 2}.{tail}"

    def outward(self, side: int, move: str) -> str | None:
        payload = split_index_move(move)
        if payload is None:
            return None
        k, tail = payload
        return f"{2 * k - 2 + side}.{tail}"


class _BinaryIntro(_Split):
    """`or` and `and`: a move `i.m` in a is move m in side i."""

    __slots__ = ()

    def sides(self, f: Formula) -> tuple[Formula, Formula]:
        return f.left, f.right

    def inward(self, k: int, tail: str) -> tuple[int, str] | None:
        return (k, tail) if k in (1, 2) else None

    def outward(self, side: int, move: str) -> str | None:
        return f"{side}.{move}"


class OrIntro(_BinaryIntro):
    __slots__ = ()
    name, mismatch = "or", "premise does not split the disjunction as required"
    kind = Or


class AndIntro(_BinaryIntro):
    __slots__ = ()
    name, mismatch = "and", "premise does not split the conjunction as required"
    kind, split_unders = And, True


class PstIntro(_AtOformula):
    """Every cell gets the coordinate u of the singleton overgroup {a} at its
    place j: 0 in every oformula but a, where move `u.m` is move m in copy u.
    Going out, u must be positive exactly in a, and leaves the cell."""

    __slots__ = ()
    name, mismatch = "pst", "premise does not add a singleton overgroup as required"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return self.position(p, c) is not None

    def position(self, premise: Cirquent, conclusion: Cirquent) -> int | None:
        """The first place j at which the singleton overgroup {a} goes in
        to make the premise; None if there is none.  Raises ValueError
        unless oformula a is a '!' formula."""
        a = self.oformula
        of = list(conclusion.oformulas)
        of[a - 1] = _oformula(conclusion, a, Pst).body
        oformulas, unders, overs = tuple(of), conclusion.undergroups, conclusion.overgroups
        for j in range(1, len(overs) + 2):
            if Cirquent(oformulas, unders, overs[:j - 1] + (frozenset({a}),) + overs[j - 1:]) == premise:
                return j
        return None

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        a = self.oformula
        j = self.position(premise, conclusion)

        def outer_to_inner(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            u = 0
            if c == a:
                payload = split_index_move(rest)
                if payload is None:
                    return None
                u, rest = payload
            return c, coords[:j - 1] + (u,) + coords[j - 1:], rest

        def inner_to_outer(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            if len(coords) < j or (coords[j - 1] > 0) != (c == a):
                return None
            return c, coords[:j - 1] + coords[j:], f"{coords[j - 1]}.{rest}" if c == a else rest

        return Translator(f"pst@{a},{j}", outer_to_inner, inner_to_outer)


class PcostIntro(Rule):
    """Copy v of the `?` oformula is one tuple of premise coordinates in the
    added overgroups, paired with v by a copy table per play; with none
    added, the first copy that a move uses is the premise's only one."""

    __slots__ = __match_args__ = params = ("oformula", "add_over")
    name, mismatch = "pcost", "premise does not match the stated overgroup additions"

    def __init__(self, oformula: int, add_over: frozenset[int] = frozenset()):
        set_field(self, "oformula", oformula)
        set_field(self, "add_over", add_over)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_pcost(c, self.oformula, self.add_over) == p

    def translator(self, premise: Cirquent, conclusion: Cirquent) -> Translator:
        a = self.oformula
        positions = tuple(sorted(self.add_over))
        n = len(positions)
        inner, outer = {}, {}  # one play's copy table, both ways

        def put(coords: tuple[int, ...], us: tuple[int, ...]) -> tuple[int, ...]:
            cs = list(coords)
            for p, u in zip(positions, us):
                cs[p - 1] = u
            return tuple(cs)

        def outer_to_inner(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            if c != a:
                return cell
            payload = split_index_move(rest)
            if (payload is None or any(coords[p - 1:p] != (0,) for p in positions)
                    or (us := _copy_number(inner, outer, payload[:1], n)) is None):
                return None
            return a, put(coords, us), payload[1]

        def inner_to_outer(cell: Cell) -> Cell | None:
            c, coords, rest = cell
            if c != a:
                return cell
            us = tuple(coords[p - 1] for p in positions if p <= len(coords))
            if len(us) != n or 0 in us:
                return None
            (v,) = _copy_number(outer, inner, us, 1)
            return a, put(coords, (0,) * n), f"{v}.{rest}"

        return Translator(f"pcost@{a}", outer_to_inner, inner_to_outer,
                          renew=lambda: self.translator(premise, conclusion))


_RULES = {
    cls.name: cls
    for cls in (Axiom, OformulaExchange, UndergroupExchange, OvergroupExchange,
                UndergroupDuplication, OvergroupDuplication, Merging, Weakening,
                Contraction, OrIntro, AndIntro, PstIntro, PcostIntro)
}


class ProofStep(Value):
    __slots__ = __match_args__ = ("cirquent", "rule")

    def __init__(self, cirquent: Cirquent, rule: Rule):
        set_field(self, "cirquent", cirquent)
        set_field(self, "rule", rule)


class Proof(Value):
    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: tuple[ProofStep, ...]):
        set_field(self, "steps", steps)


# Index remapping helper

def _shift_after(g: Group, a: int) -> Group:
    """Renumber for an insertion at position a+1: indices > a move up by one;
    membership of a itself spreads to both copies a and a+1."""
    out = set()
    for c in g:
        if c < a:
            out.add(c)
        elif c == a:
            out.add(a)
            out.add(a + 1)
        else:
            out.add(c + 1)
    return frozenset(out)


# Forward constructors (conclusion from premise)

def conclusion_of_oformula_exchange(premise: Cirquent, i: int) -> Cirquent:
    if not 1 <= i < premise.size:
        raise ValueError(f"position {i} out of range")
    of = list(premise.oformulas)
    of[i - 1], of[i] = of[i], of[i - 1]
    swap = {i: i + 1, i + 1: i}

    def renumber(groups: tuple[Group, ...]) -> tuple[Group, ...]:
        return tuple(frozenset(swap.get(a, a) for a in g) for g in groups)

    return Cirquent(tuple(of), renumber(premise.undergroups), renumber(premise.overgroups))


# Group edits shared by the exchange, duplication and merging rules.  Each
# edits one tuple of groups, the premise's undergroups or its overgroups.

def _swap_groups(groups: tuple[Group, ...], i: int) -> tuple[Group, ...]:
    if not 1 <= i < len(groups):
        raise ValueError(f"position {i} out of range")
    out = list(groups)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def _duplicate_group(groups: tuple[Group, ...], i: int) -> tuple[Group, ...]:
    if not 1 <= i <= len(groups):
        raise ValueError(f"position {i} out of range")
    out = list(groups)
    out.insert(i, out[i - 1])
    return tuple(out)


def _merge_groups(groups: tuple[Group, ...], j: int) -> tuple[Group, ...]:
    if not 1 <= j < len(groups):
        raise ValueError(f"position {j} out of range")
    out = list(groups)
    out[j - 1:j + 1] = [out[j - 1] | out[j]]
    return tuple(out)


# Backward constructors (premise from conclusion)

def premise_of_weakening(conclusion: Cirquent, under: int, oformula: int) -> Cirquent:
    """Delete the arc (undergroup `under`, oformula), cascading: an oformula
    left in no undergroup is deleted with its overgroup arcs, and overgroups
    left empty are deleted."""
    if not 1 <= under <= len(conclusion.undergroups):
        raise ValueError(f"undergroup {under} out of range")
    a = oformula
    if a not in conclusion.undergroups[under - 1]:
        raise ValueError(f"no arc from undergroup {under} to oformula {a}")
    unders = list(conclusion.undergroups)
    unders[under - 1] = unders[under - 1] - {a}
    if any(a in g for g in unders):
        return Cirquent(conclusion.oformulas, tuple(unders), conclusion.overgroups)
    # The oformula became homeless: delete it and renumber.
    of = list(conclusion.oformulas)
    del of[a - 1]

    def drop(g: Group) -> Group:
        return frozenset(c - 1 if c > a else c for c in g if c != a)

    overs = (drop(g) for g in conclusion.overgroups)
    return Cirquent(tuple(of), tuple(drop(g) for g in unders), tuple(g for g in overs if g))


# How a diagnostic names each kind of oformula.
_SYMBOL = {Or: "\\/", And: "/\\", Pst: "'!'", Pcost: "'?'"}


def _oformula(conclusion: Cirquent, a: int, kind: type) -> Formula:
    """Oformula a of the conclusion, which must exist and be a `kind` formula."""
    if not 1 <= a <= conclusion.size:
        raise ValueError(f"oformula {a} out of range")
    f = conclusion.oformulas[a - 1]
    if not isinstance(f, kind):
        raise ValueError(f"oformula {a} is not a {_SYMBOL[kind]} formula")
    return f


def premise_of_pcost(conclusion: Cirquent, a: int, add_over: frozenset[int]) -> Cirquent:
    f = _oformula(conclusion, a, Pcost)
    for j in add_over:
        if not 1 <= j <= len(conclusion.overgroups):
            raise ValueError(f"overgroup {j} out of range")
        if a in conclusion.overgroups[j - 1]:
            raise ValueError(f"overgroup {j} already contains oformula {a}")
    of = list(conclusion.oformulas)
    of[a - 1] = f.body
    overs = [
        g | {a} if j in add_over else g
        for j, g in enumerate(conclusion.overgroups, start=1)
    ]
    return Cirquent(tuple(of), conclusion.undergroups, tuple(overs))


# Checking

def axiom_violation(c: Cirquent) -> Violation | None:
    """None when c is the axiom cirquent on the formulas F1..Fn of its even
    oformulas: oformulas ~F1, F1, ..., ~Fn, Fn with matched
    undergroup/overgroup pairs."""
    formulas = c.oformulas[1::2]
    n = len(formulas)
    if n == 0:
        return Violation("axiom needs at least one formula")
    expected_of = []
    for f in formulas:
        expected_of.append(negate(f))
        expected_of.append(f)
    pairs = tuple(frozenset({2 * i - 1, 2 * i}) for i in range(1, n + 1))
    expected = Cirquent(tuple(expected_of), pairs, pairs)
    if c != expected:
        return Violation(
            f"not the axiom cirquent for {', '.join(render_formula(f) for f in formulas)}"
        )
    return None


def check_step(
    premise: Cirquent, conclusion: Cirquent, rule: Rule, premise_valid: bool = False
) -> Violation | None:
    """Is (premise, conclusion) exactly an instance of rule?  None if so.
    Both cirquents are validated first, or only the conclusion when the
    caller has already validated the premise (`premise_valid`)."""
    sides = (("premise", premise), ("conclusion", conclusion))
    for name, c in sides[premise_valid:]:
        issues = validate_cirquent(c)
        if issues:
            return Violation(f"invalid {name}: {issues[0]}")
    if _RULES.get(rule.name) is not type(rule):
        return Violation(f"unknown rule {rule!r}")
    try:
        if rule.holds(premise, conclusion):
            return None
    except ValueError as exc:
        return Violation(str(exc))
    return Violation(rule.mismatch)


def verify_proof(proof: Proof, goal: Formula | None = None) -> tuple[int, Violation] | None:
    """None if the proof verifies (and proves goal, when given);
    otherwise (1-based step index, violation)."""
    if not proof.steps:
        return (1, Violation("empty proof"))
    first = proof.steps[0]
    if not isinstance(first.rule, Axiom):
        return (1, Violation("first step must be an axiom"))
    v = axiom_violation(first.cirquent)
    if v is not None:
        return (1, v)
    for k in range(1, len(proof.steps)):
        step = proof.steps[k]
        if isinstance(step.rule, Axiom):
            return (k + 1, Violation("axiom allowed only at step 1"))
        # The premise was validated as the previous step's conclusion, or
        # is the axiom cirquent, which is valid.
        v = check_step(proof.steps[k - 1].cirquent, step.cirquent, step.rule, True)
        if v is not None:
            return (k + 1, v)
    if goal is not None and proof.steps[-1].cirquent != clubsuit(goal):
        return (
            len(proof.steps),
            Violation(f"last cirquent does not prove {render_formula(goal)}"),
        )
    return None


# Proof file format

_STEP_RE = re.compile(r"step\s+(0|[1-9][0-9]*)\s*:\s*rule=(\S+)\s*(.*)")


def _parse_params(text: str, lineno: int) -> dict[str, object]:
    params: dict[str, object] = {}
    for chunk in text.split():
        if "=" not in chunk:
            raise ProofError(f"line {lineno}: bad parameter {chunk!r}")
        key, _, value = chunk.partition("=")
        if key in params:
            raise ProofError(f"line {lineno}: repeated parameter {key}")
        is_set = value.startswith("{")
        try:
            if not is_set:
                params[key] = numeral_value(value)
            elif not value.endswith("}"):
                raise ValueError(value)
            else:
                inner = value[1:-1].strip()
                params[key] = frozenset(map(numeral_value, inner.split(","))) if inner else frozenset()
        except RunError:
            raise
        except ValueError as exc:
            kind = "set parameter" if is_set else "parameter"
            raise ProofError(f"line {lineno}: bad {kind} {chunk!r}") from exc
    return params


def _build_rule(name: str, params: dict[str, object], lineno: int) -> Rule:
    cls = _RULES.get(name)
    if cls is None:
        raise ProofError(f"line {lineno}: unknown rule {name!r}")
    extra = params.keys() - cls.params
    if extra:
        raise ProofError(f"line {lineno}: rule {name} does not take {', '.join(sorted(extra))}")
    # add_over is optional, and is checked before the required parameters.
    add = params.get("add_over", frozenset())
    if not isinstance(add, frozenset):
        raise ProofError(f"line {lineno}: add_over must be a set like {{1,2}}")
    args: list[object] = []
    for key in cls.params:
        if key == "add_over":
            args.append(add)
        elif key not in params:
            raise ProofError(f"line {lineno}: rule {name} needs parameter {key}")
        elif isinstance(params[key], frozenset):
            raise ProofError(f"line {lineno}: {key} must be a number, not a set")
        else:
            args.append(params[key])
    return cls(*args)


def parse_proof(text: str | list[tuple[int, str]]) -> Proof:
    """Parse the proof file format: `step <k>: rule=<name> <params>` headers
    each followed by one cirquent line; `#` starts a comment.  `text` is the
    file's text or its numbered content lines, as `content_lines` gives
    them.  Reading makes one pass over the lines, a header and its cirquent
    line at a time.  Per file, each distinct cirquent line, section,
    oformula text, group text and step header `(rule, parameters)` is parsed
    once, and an oformula text made of oformula texts read before is built
    from theirs."""
    lines = content_lines(text) if isinstance(text, str) else text
    steps: list[ProofStep] = []
    cirquents: dict[str, Cirquent] = {}
    formulas: dict[str, Formula] = {}
    groups: dict[str, Group] = {}
    sections: dict[str, tuple] = {}
    rules: dict[tuple[str, str], Rule] = {}
    for i in range(0, len(lines), 2):
        lineno, line = lines[i]
        number = len(steps) + 1
        try:
            m = _STEP_RE.fullmatch(line)
            if m is None:
                raise ProofError(f"line {lineno}: expected a 'step <k>: rule=...' header")
            if m.group(1) != str(number):
                raise ProofError(f"line {lineno}: expected step {number}, got {numeral_value(m.group(1))}")
            header = m.group(2, 3)
            rule = rules.get(header)
            params = _parse_params(header[1], lineno) if rule is None else None
        except RunError as exc:
            raise ProofError(f"line {lineno}: {exc}") from exc
        if i + 1 == len(lines):
            raise ProofError(f"step {number} has no cirquent")
        cirquent_line, line = lines[i + 1]
        cirq = cirquents.get(line)
        if cirq is None:
            try:
                cirq = cirquents[line] = parse_cirquent(line, formulas, groups, sections)
            except (CirquentError, FormulaError, RunError) as exc:
                # A header where the cirquent line belongs fails to parse as one.
                if _STEP_RE.fullmatch(line):
                    raise ProofError(f"line {cirquent_line}: step {number} has no cirquent") from None
                raise ProofError(f"line {cirquent_line}: {exc}") from exc
        if rule is None:
            rule = rules[header] = _build_rule(header[0], params, lineno)  # type: ignore[arg-type]
        steps.append(ProofStep(cirq, rule))
    if not steps:
        raise ProofError("empty proof file")
    return Proof(tuple(steps))


def render_proof(proof: Proof) -> str:
    """Inverse of parse_proof.  Each distinct oformula and group tuple is
    rendered once per call."""
    rendered: dict = {}
    lines = []
    for k, step in enumerate(proof.steps, start=1):
        rule = step.rule
        params = ""
        for key in rule.params:
            value = getattr(rule, key)
            if isinstance(value, frozenset):
                value = "{" + ",".join(str(j) for j in sorted(value)) + "}"
            params += f" {key}={value}"
        lines.append(f"step {k}: rule={rule.name}{params}")
        lines.append(render_cirquent(step.cirquent, rendered))
    return "\n".join(lines)
