"""Cirquents: oformula sequences with undergroup/overgroup structure.

Groups are positional: two groups with equal contents are still distinct.
Indices are 1-based throughout.
"""
from __future__ import annotations

import re

from .formula import Formula, parse_formula, render_formula
from .runs import RunError, numeral_value
from .values import InputError, Value, set_field


class CirquentError(InputError):
    """Malformed cirquent text."""


Group = frozenset[int]


class Cirquent(Value):
    __slots__ = __match_args__ = ("oformulas", "undergroups", "overgroups")

    def __init__(self, oformulas: tuple[Formula, ...], undergroups: tuple[Group, ...],
                 overgroups: tuple[Group, ...]):
        set_field(self, "oformulas", oformulas)
        set_field(self, "undergroups", undergroups)
        set_field(self, "overgroups", overgroups)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.oformulas, self.undergroups, self.overgroups)
                    == (other.oformulas, other.undergroups, other.overgroups))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.oformulas, self.undergroups, self.overgroups))

    @property
    def size(self) -> int:
        return len(self.oformulas)


def group(*indices: int) -> Group:
    return frozenset(indices)


def make_cirquent(
    oformulas: tuple[Formula, ...] | list[Formula],
    undergroups,
    overgroups,
) -> Cirquent:
    return Cirquent(
        tuple(oformulas),
        tuple(frozenset(g) for g in undergroups),
        tuple(frozenset(g) for g in overgroups),
    )


def validate_cirquent(c: Cirquent) -> list[str]:
    """Return all invariant violations; empty list means valid.  A cirquent
    is valid when it has oformulas and groups of both kinds, no group is
    empty, and each kind's groups cover exactly the indices 1..m."""
    m = len(c.oformulas)
    full = set(range(1, m + 1))
    unders = set().union(*c.undergroups)
    overs = set().union(*c.overgroups)
    if (m and c.undergroups and c.overgroups and all(c.undergroups) and all(c.overgroups)
            and unders == full and overs == full):
        return []
    issues: list[str] = []
    if m == 0:
        issues.append("no oformulas")
    if not c.undergroups:
        issues.append("no undergroups")
    if not c.overgroups:
        issues.append("no overgroups")
    for kind, groups in (("undergroup", c.undergroups), ("overgroup", c.overgroups)):
        for pos, g in enumerate(groups, start=1):
            if not g:
                issues.append(f"empty {kind} {pos}")
            for idx in g:
                if not 1 <= idx <= m:
                    issues.append(f"{kind} {pos} index {idx} out of range")
    for a in range(1, m + 1):
        if a not in unders:
            issues.append(f"oformula {a} in no undergroup")
        if a not in overs:
            issues.append(f"oformula {a} in no overgroup")
    return issues


def is_valid(c: Cirquent) -> bool:
    return not validate_cirquent(c)


def clubsuit(f: Formula) -> Cirquent:
    """The one-oformula cirquent with a single undergroup and overgroup."""
    return Cirquent((f,), (frozenset({1}),), (frozenset({1}),))


def as_clubsuit(c: Cirquent) -> Formula | None:
    """The formula F with c == clubsuit(F), if there is one."""
    if (
        len(c.oformulas) == 1
        and c.undergroups == (frozenset({1}),)
        and c.overgroups == (frozenset({1}),)
    ):
        return c.oformulas[0]
    return None


# Text format: `oformulas: f1 | f2 ; under: {1,2}{2} ; over: {1}`

# One scan: group 1 is a whole group; group 2 is the rest of the text from
# any other non-space character on, which ends the scan.
_GROUP_RE = re.compile(r"\s*(?:(\{[^}]*\})|(\S.*))", re.DOTALL)

# The sections of a cirquent line, in the order they are parsed.
_SECTIONS = dict.fromkeys(("oformulas", "under", "over"))


def _parse_groups(text: str, what: str, known: dict[str, Group]) -> tuple[Group, ...]:
    """The groups of an `under:` or `over:` section.  `known` maps each
    group text already parsed, braces included, to its set."""
    groups: list[Group] = []
    for g, rest in _GROUP_RE.findall(text):
        if rest:
            if rest[0] == "{":
                raise CirquentError(f"unclosed group in {what}")
            raise CirquentError(f"malformed {what} groups at {rest.rstrip()!r}")
        indices = known.get(g)
        if indices is None:
            inner = g[1:-1].strip()
            try:
                indices = frozenset(map(numeral_value, inner.split(","))) if inner else frozenset()
            except RunError:
                raise
            except ValueError as exc:
                raise CirquentError(f"bad index in {what} group: {inner!r}") from exc
            known[g] = indices
        groups.append(indices)
    if not groups:
        raise CirquentError(f"no {what} groups")
    return tuple(groups)


def _parse_oformulas(text: str, known: dict[str, Formula]) -> tuple[Formula, ...]:
    """The formulas of an `oformulas:` section.  `known` maps each
    oformula text already parsed to its formula."""
    of_texts = [p.strip() for p in text.split("|")]
    if not all(of_texts):
        raise CirquentError("empty oformula entry")
    for t in of_texts:
        if t not in known:
            known[t] = parse_formula(t)
    return tuple(known[t] for t in of_texts)


def parse_cirquent(
    text: str,
    formulas: dict[str, Formula] | None = None,
    groups: dict[str, Group] | None = None,
    sections: dict[str, tuple] | None = None,
) -> Cirquent:
    """Parse the one-line cirquent text format.  `formulas`, if given, maps
    oformula texts already parsed to their formulas; each text is parsed at
    most once.  `groups` does the same for single group texts such as
    `{1,2}`, and `sections` for whole section texts, name included."""
    parts: dict[str, str] = {}
    for part in text.split(";"):
        name, colon, _ = part.partition(":")
        if not colon:
            if part.strip():
                raise CirquentError(f"expected 'name: ...' section, got {part.strip()!r}")
            continue
        name = name.strip()
        if name in parts:
            raise CirquentError(f"duplicate section {name!r}")
        parts[name] = part
    if parts.keys() != _SECTIONS.keys():
        missing = _SECTIONS.keys() - parts.keys()
        if missing:
            raise CirquentError(f"missing sections: {', '.join(sorted(missing))}")
        raise CirquentError(f"unknown sections: {', '.join(sorted(parts.keys() - _SECTIONS.keys()))}")
    known_formulas = {} if formulas is None else formulas
    known_groups = {} if groups is None else groups
    known_sections = {} if sections is None else sections
    values = []
    for name in _SECTIONS:
        part = parts[name]
        value = known_sections.get(part)
        if value is None:
            body = part.partition(":")[2]
            if name == "oformulas":
                value = _parse_oformulas(body, known_formulas)
            else:
                value = _parse_groups(body, name, known_groups)
            known_sections[part] = value
        values.append(value)
    return Cirquent(*values)


def _render_groups(groups: tuple[Group, ...]) -> str:
    return "".join("{" + ",".join(str(i) for i in sorted(g)) + "}" for g in groups)


def render_cirquent(c: Cirquent, rendered: dict | None = None) -> str:
    """Inverse of parse_cirquent.  `rendered`, if given, holds the oformula
    and group tuple texts already rendered; each is rendered at most once."""
    known = {} if rendered is None else rendered
    for f in c.oformulas:
        if f not in known:
            known[f] = render_formula(f)
    for gs in (c.undergroups, c.overgroups):
        if gs not in known:
            known[gs] = _render_groups(gs)
    of = " | ".join(known[f] for f in c.oformulas)
    return f"oformulas: {of} ; under: {known[c.undergroups]} ; over: {known[c.overgroups]}"
