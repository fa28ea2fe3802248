"""The one-pass formula and cirquent readers against the two-pass,
memo-free reference in `reference_parser`: on the same text both return
equal values or raise the same exception class with the same message."""
import random

from cl15.cirquent import CirquentError, parse_cirquent
from cl15.formula import Formula, FormulaError, parse_formula

import reference_parser as ref

ATOMS = ("P", "Q", "R2", "Foo")
PREFIXES = ("~", "~~", "!", "?", "b!", "b?")
BINARY = ("/\\", "\\/", "->")
SPACES = ("", "", " ", "  ", "\t", "\u00a0")
BAD_GROUPS = ("{1,,2}", "{1", "1}", "{a}", "{}", "{ }", "{,}", "{ 1 , 2 }", "{+1}", "{01,2}", "x{1}",
              "{1}x", "{1}{", "{1}}", "{1{2}")


def _outcome(parse, text, *memos):
    try:
        return parse(text, *memos)
    except (FormulaError, CirquentError) as exc:
        return type(exc), str(exc)


def _formula_text(rng: random.Random, depth: int) -> str:
    """A well-formed formula over every connective, with random spacing and
    extra parentheses."""
    sp = rng.choice(SPACES)
    r = rng.random()
    if depth == 0 or r < 0.25:
        text = rng.choice(ATOMS)
    elif r < 0.55:
        text = rng.choice(PREFIXES) + sp + _formula_text(rng, depth - 1)
    else:
        text = (_formula_text(rng, depth - 1) + sp + rng.choice(BINARY) + rng.choice(SPACES)
                + _formula_text(rng, depth - 1))
    if rng.random() < 0.3:
        text = "(" + sp + text + rng.choice(SPACES) + ")"
    return text


def _corrupt(rng: random.Random, text: str) -> str:
    """Truncate text, or insert a stray `b`, a lowercase letter or one
    parenthesis, or delete one parenthesis."""
    i = rng.randint(0, len(text))
    kind = rng.randrange(5)
    if kind == 0:
        return text[:i]
    if kind < 4:
        return text[:i] + rng.choice(("b", "pqxz", "()")[kind - 1]) + text[i:]
    parens = [j for j, ch in enumerate(text) if ch in "()"]
    if not parens:
        return text + ")"
    j = rng.choice(parens)
    return text[:j] + text[j + 1:]


def test_random_formulas_parse_like_the_reference():
    rng = random.Random(41)
    for _ in range(800):
        text = _formula_text(rng, rng.randint(0, 5))
        got = _outcome(parse_formula, text)
        assert isinstance(got, Formula), text
        assert got == ref.parse_formula(text), text


def test_corrupted_formulas_fail_like_the_reference():
    rng = random.Random(42)
    texts = ["", " \t ", "p", "b", "bP", "~", "P /\\", "(P", "((P)", "P)", "P Q", "& P", "-> P",
             "P ->", "P ~ Q", "P //\\ Q", "P &", "P  \t%rest of it"]
    texts += [_corrupt(rng, _formula_text(rng, rng.randint(0, 4))) for _ in range(800)]
    failures = 0
    for text in texts:
        got = _outcome(parse_formula, text)
        assert got == _outcome(ref.parse_formula, text), text
        failures += not isinstance(got, Formula)
    assert failures > len(texts) // 2


def _cirquent_parts(rng: random.Random) -> list[tuple[str, str]]:
    m = rng.randint(1, 3)

    def groups() -> str:
        return rng.choice(SPACES).join(
            "{" + ",".join(map(str, sorted(rng.sample(range(1, m + 1), rng.randint(1, m))))) + "}"
            for _ in range(rng.randint(1, 3)))

    oformulas = " | ".join(_formula_text(rng, rng.randint(0, 1)) for _ in range(m))
    parts = [("oformulas", oformulas), ("under", groups()), ("over", groups())]
    rng.shuffle(parts)
    return parts


def _line(rng: random.Random, parts: list[tuple[str, str]]) -> str:
    return ";".join(f"{rng.choice(SPACES)}{name}{rng.choice(SPACES)}:{rng.choice(SPACES)}{body}"
                    for name, body in parts)


def _corrupt_parts(rng: random.Random, parts: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Drop, repeat or add a section, or spoil one group, oformula entry or
    formula."""
    parts = list(parts)
    k = rng.randrange(len(parts))
    name, body = parts[k]
    kind = rng.randrange(7)
    if kind == 0:
        del parts[k]
    elif kind == 1:
        parts.insert(rng.randint(0, len(parts)), parts[k])
    elif kind == 2:
        parts.insert(rng.randint(0, len(parts)), rng.choice((("extra", "1"), ("", "x"))))
    elif kind == 3 and name == "oformulas":
        entries = body.split("|")
        entries.insert(rng.randint(0, len(entries)), rng.choice(("", " ")))
        parts[k] = (name, "|".join(entries))
    elif kind == 3:
        groups = body.replace("}", "}\0").split("\0")
        groups.insert(rng.randint(0, len(groups)), rng.choice(BAD_GROUPS))
        parts[k] = (name, "".join(groups))
    elif kind == 4 and name == "oformulas":
        parts[k] = (name, _corrupt(rng, body))
    elif kind == 4:
        # Junk just before a group that the memo has most likely seen.
        i = body.find("{")
        parts[k] = (name, body[:i] + rng.choice("x}1,a") + body[i:])
    elif kind == 5:
        parts[k] = (name, rng.choice(("", " ")))
    else:
        parts.insert(rng.randint(0, len(parts)), (rng.choice(("junk", "  ", "")), None))
    return parts


def _render_parts(rng: random.Random, parts) -> str:
    return ";".join(name if body is None else _line(rng, [(name, body)]) for name, body in parts)


def test_cirquent_lines_parse_like_the_reference():
    """Through one set of memos, as in one proof file: good lines, and lines
    with reordered, missing, repeated or unknown sections, bad groups and
    empty oformula entries."""
    rng = random.Random(43)
    memos: tuple[dict, dict, dict] = ({}, {}, {})
    failures = 0
    for _ in range(1500):
        parts = _cirquent_parts(rng)
        if rng.random() < 0.5:
            parts = _corrupt_parts(rng, parts)
        line = _render_parts(rng, parts)
        got = _outcome(parse_cirquent, line, *memos)
        assert got == _outcome(ref.parse_cirquent, line), line
        assert _outcome(parse_cirquent, line) == got, line
        failures += isinstance(got, tuple)
    assert 300 < failures < 1200


def test_empty_oformula_entries_fail_like_the_reference():
    for oformulas in ("", " ", "P ||Q", "| P", "P |", "P | \t | Q", "|"):
        line = f"oformulas: {oformulas} ; under: {{1}} ; over: {{1}}"
        got = _outcome(parse_cirquent, line, {}, {}, {})
        assert got == _outcome(ref.parse_cirquent, line) == (CirquentError, "empty oformula entry")
