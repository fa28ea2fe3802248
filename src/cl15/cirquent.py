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

# The sections of a cirquent line, in the order they are parsed.
_SECTIONS = ("oformulas", "under", "over")

# A line in one scan: three `name: body` sections between `;`s, in any
# order, with blank sections anywhere.  Groups 3k+1, 3k+2 and 3k+3 are the
# k-th section's whole text, its name and its body.  Blank sections after
# the last body begin with its `;`, so a refused line costs linear time.
_SECTION = r"[\s;]*((oformulas|under|over)\s*:([^;]*))"
_LINE_RE = re.compile(f"{_SECTION};{_SECTION};{_SECTION}(?:;[\\s;]*)?")


def _parse_group(pieces: list[str], j: int, what: str) -> Group:
    """Group `j` of a section split at each `}`: piece `j` is the group's
    text from after the `}` before it up to its own `}`."""
    g = pieces[j].lstrip()
    if g[:1] != "{":
        raise CirquentError(f"malformed {what} groups at {'}'.join(pieces[j:]).strip()!r}")
    inner = g[1:].strip()
    try:
        return frozenset(map(numeral_value, inner.split(","))) if inner else frozenset()
    except RunError:
        raise
    except ValueError as exc:
        raise CirquentError(f"bad index in {what} group: {inner!r}") from exc


def _parse_groups(text: str, what: str, known: dict[str, Group]) -> tuple[Group, ...]:
    """The groups of an `under:` or `over:` section.  `known` maps the text
    of each group already parsed, up to its `}` and from the `}` before it
    or the start of the section, to its set."""
    pieces = text.split("}")
    groups = tuple(map(known.get, pieces[:-1]))
    if None in groups or not groups or pieces[-1].strip():
        for j, piece in enumerate(pieces[:-1]):
            if piece not in known:
                known[piece] = _parse_group(pieces, j, what)
        rest = pieces[-1].strip()
        if rest:
            raise CirquentError(f"unclosed group in {what}" if rest[0] == "{"
                                else f"malformed {what} groups at {rest!r}")
        if len(pieces) == 1:
            raise CirquentError(f"no {what} groups")
        groups = tuple(map(known.get, pieces[:-1]))
    return groups


def _parse_oformulas(text: str, known: dict[str, Formula]) -> tuple[Formula, ...]:
    """The formulas of an `oformulas:` section.  `known` maps each
    oformula text already parsed to its formula."""
    of_texts = list(map(str.strip, text.split("|")))
    if "" in of_texts:
        raise CirquentError("empty oformula entry")
    formulas = tuple(map(known.get, of_texts))
    if None in formulas:
        for t in of_texts:
            if t not in known:
                known[t] = parse_formula(t, known)
        formulas = tuple(map(known.get, of_texts))
    return formulas


def _sections_error(text: str) -> CirquentError:
    """What is wrong with the sections of a line that `_LINE_RE` refused,
    in the order checked: a part that is not `name: ...`, a repeated name,
    missing names, unknown names."""
    names: list[str] = []
    for part in text.split(";"):
        name, colon, _ = part.partition(":")
        if not colon:
            if part.strip():
                return CirquentError(f"expected 'name: ...' section, got {part.strip()!r}")
            continue
        name = name.strip()
        if name in names:
            return CirquentError(f"duplicate section {name!r}")
        names.append(name)
    missing = set(_SECTIONS).difference(names)
    if missing:
        return CirquentError(f"missing sections: {', '.join(sorted(missing))}")
    return CirquentError(f"unknown sections: {', '.join(sorted(set(names).difference(_SECTIONS)))}")


def parse_cirquent(
    text: str,
    formulas: dict[str, Formula] | None = None,
    groups: dict[str, Group] | None = None,
    sections: dict[str, tuple] | None = None,
) -> Cirquent:
    """Parse the one-line cirquent text format.  `formulas`, if given, maps
    oformula texts already parsed to their formulas; each text is parsed at
    most once, and built from its operands' entries where it can be.
    `groups` does the same for single group texts, and `sections` for whole
    section texts, name included.  The section names are checked before
    any section is parsed, and the sections are parsed in the order
    oformulas, under, over."""
    m = _LINE_RE.fullmatch(text)
    if m is None:
        raise _sections_error(text)
    of, of_name, of_body, un, un_name, un_body, ov, ov_name, ov_body = m.groups()
    if (of_name, un_name, ov_name) != _SECTIONS:
        found = {of_name: (of, of_body), un_name: (un, un_body), ov_name: (ov, ov_body)}
        if len(found) < 3:
            raise _sections_error(text)
        (of, of_body), (un, un_body), (ov, ov_body) = map(found.get, _SECTIONS)
    known = {} if sections is None else sections
    oformulas = known.get(of)
    if oformulas is None:
        oformulas = known[of] = _parse_oformulas(of_body, {} if formulas is None else formulas)
    undergroups = known.get(un)
    if undergroups is None:
        undergroups = known[un] = _parse_groups(un_body, "under", {} if groups is None else groups)
    overgroups = known.get(ov)
    if overgroups is None:
        overgroups = known[ov] = _parse_groups(ov_body, "over", {} if groups is None else groups)
    return Cirquent(oformulas, undergroups, overgroups)


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
