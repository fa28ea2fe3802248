"""Cirquent construction, validation, text format, and diagrams."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl15.cirquent import (
    Cirquent,
    CirquentError,
    as_clubsuit,
    clubsuit,
    is_valid,
    parse_cirquent,
    render_cirquent,
    validate_cirquent,
)
from cl15.formula import parse_formula, render_formula

from conftest import RULE_CASES, C, group, make_cirquent


def test_make_and_size():
    c = make_cirquent(
        (parse_formula("P"), parse_formula("Q")), [{1, 2}], [{1}, {2}]
    )
    assert c.size == 2
    assert c.undergroups == (frozenset({1, 2}),)
    assert c.overgroups == (frozenset({1}), frozenset({2}))
    assert group(2, 1) == frozenset({1, 2})


def test_groups_are_positional():
    a = C("oformulas: P | Q ; under: {1}{2} ; over: {1,2}")
    b = C("oformulas: P | Q ; under: {2}{1} ; over: {1,2}")
    assert a != b


def test_validation_catches_each_invariant():
    P, Q = parse_formula("P"), parse_formula("Q")
    assert validate_cirquent(make_cirquent((P, Q), [{1, 2}], [{1}, {2}])) == []
    assert "no oformulas" in validate_cirquent(make_cirquent((), [{1}], [{1}]))[0]
    assert any(
        "empty" in issue
        for issue in validate_cirquent(make_cirquent((P,), [set()], [{1}]))
    )
    assert any(
        "out of range" in issue
        for issue in validate_cirquent(make_cirquent((P,), [{1, 3}], [{1}]))
    )
    assert any(
        "no undergroup" in issue
        for issue in validate_cirquent(make_cirquent((P, Q), [{1}], [{1, 2}]))
    )
    assert any(
        "no overgroup" in issue
        for issue in validate_cirquent(make_cirquent((P, Q), [{1, 2}], [{1}]))
    )
    assert not is_valid(make_cirquent((P,), [], [{1}]))


def test_clubsuit_roundtrip():
    f = parse_formula("?~P \\/ !P")
    c = clubsuit(f)
    assert as_clubsuit(c) == f
    wider = C("oformulas: P | Q ; under: {1,2} ; over: {1,2}")
    assert as_clubsuit(wider) is None
    two_groups = C("oformulas: P ; under: {1}{1} ; over: {1}")
    assert as_clubsuit(two_groups) is None


def test_parse_render_roundtrip_on_fixture_instances():
    for _name, prem, concl, _rule in RULE_CASES:
        for text in ([prem] if prem is not None else []) + [concl]:
            c = C(text)
            assert parse_cirquent(render_cirquent(c)) == c


@pytest.mark.parametrize(
    "text",
    [
        "",
        "oformulas: P ; under: {1}",
        "oformulas: P ; under: {1} ; over: {1} ; extra: {1}",
        "oformulas: P ; under: {1} ; under: {1} ; over: {1}",
        "oformulas: ; under: {1} ; over: {1}",
        "oformulas: P | ; under: {1} ; over: {1}",
        "oformulas: P ; under: 1 ; over: {1}",
        "oformulas: P ; under: {1 ; over: {1}",
        "oformulas: P ; under: {x} ; over: {1}",
        "oformulas: P ; no colon here",
    ],
)
def test_malformed_cirquent_text_is_rejected(text):
    with pytest.raises(CirquentError):
        parse_cirquent(text)


def test_empty_group_braces_parse_as_empty_group():
    c = parse_cirquent("oformulas: P ; under: {} ; over: {1}")
    assert c.undergroups == (frozenset(),)
    assert not is_valid(c)


def render_diagram(c: Cirquent) -> str:
    """Three-layer ASCII diagram: overgroups, oformulas, undergroups.

    A `*` in a group row marks an arc to the oformula in that column.
    """
    cells = [f"[{a}] {render_formula(f)}" for a, f in enumerate(c.oformulas, start=1)]
    width = max(len(s) for s in cells) + 2
    gutter = max(
        len(f"over {len(c.overgroups)}"), len(f"under {len(c.undergroups)}"), len("oformula")
    ) + 2

    def row(label: str, marks: list[str]) -> str:
        return label.ljust(gutter) + "".join(m.center(width) for m in marks)

    lines = []
    for j, g in enumerate(c.overgroups, start=1):
        lines.append(row(f"over {j}", ["*" if a in g else "." for a in range(1, c.size + 1)]))
    lines.append(row("oformula", cells))
    for i, g in enumerate(c.undergroups, start=1):
        lines.append(row(f"under {i}", ["*" if a in g else "." for a in range(1, c.size + 1)]))
    return "\n".join(lines)


def test_diagram_marks_membership_columns():
    c = C("oformulas: E | F ; under: {1,2} ; over: {1}{2}")
    diagram = render_diagram(c)
    lines = diagram.splitlines()
    assert any("E" in ln and "F" in ln for ln in lines)
    star_rows = [ln for ln in lines if "*" in ln]
    assert len(star_rows) >= 3


def _reference_validate_cirquent(c: Cirquent) -> list[str]:
    """The enumerating validator: every oformula against every group."""
    issues: list[str] = []
    m = len(c.oformulas)
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
        if not any(a in g for g in c.undergroups):
            issues.append(f"oformula {a} in no undergroup")
        if not any(a in g for g in c.overgroups):
            issues.append(f"oformula {a} in no overgroup")
    return issues


BREAKS = ("none", "empty group", "index 0", "index m+1", "uncovered oformula",
          "no undergroups", "no overgroups", "no oformulas", "random")


@st.composite
def cirquents_valid_and_broken(draw):
    """A valid cirquent of 1-4 oformulas in 1-3 groups of each kind, then
    one way of breaking it (or none)."""
    m = draw(st.integers(1, 4))
    kinds = []
    for _ in range(2):
        n = draw(st.integers(1, 3))
        groups = [set() for _ in range(n)]
        for a in range(1, m + 1):
            for j in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                groups[j].add(a)
        for g in groups:
            if not g:
                g.add(draw(st.integers(1, m)))
        kinds.append(groups)
    unders, overs = kinds
    how = draw(st.sampled_from(BREAKS))
    target = draw(st.sampled_from((unders, overs)))
    j = draw(st.integers(0, len(target) - 1))
    if how == "empty group":
        target.insert(j, set())
    elif how == "index 0":
        target[j].add(0)
    elif how == "index m+1":
        target[j].add(m + 1)
    elif how == "uncovered oformula":
        a = draw(st.integers(1, m))
        for g in target:
            g.discard(a)
    elif how == "no undergroups":
        unders = []
    elif how == "no overgroups":
        overs = []
    elif how == "no oformulas":
        m = 0
    elif how == "random":
        m = draw(st.integers(0, 3))
        pick = st.lists(st.sets(st.integers(0, m + 1), max_size=m + 1), max_size=3)
        unders, overs = draw(pick), draw(pick)
    return make_cirquent([parse_formula("P")] * m, unders, overs), how


@settings(max_examples=200)
@given(cirquents_valid_and_broken())
def test_validation_matches_enumerating_reference(case):
    c, how = case
    issues = validate_cirquent(c)
    assert issues == _reference_validate_cirquent(c)
    if how == "none":
        assert issues == []
    elif how != "random":
        assert issues
