"""The one-pass formula, cirquent and proof readers against the two-pass,
memo-free reference in `reference_parser`: on the same text both return
equal values or raise the same exception class with the same message."""
import functools
import random
import time

from cl15.cirquent import CirquentError, parse_cirquent
from cl15.cl15 import ProofError, parse_proof
from cl15.formula import Formula, FormulaError, parse_formula
from conftest import benchmark_generator, read_fixture

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


def test_formulas_built_from_earlier_texts_parse_like_the_reference():
    """Texts made by joining texts read before, bare or in parentheses, with
    a prefix or an infix between single spaces: through one memo, as in one
    proof file, whether built from the memo or parsed token by token."""
    rng = random.Random(46)
    known = {atom: parse_formula(atom) for atom in ATOMS}
    texts = list(ATOMS)
    for _ in range(1500):
        parts = [rng.choice(texts) for _ in range(2)]
        parts = ["(" + p + ")" if rng.random() < 0.3 else p for p in parts]
        r = rng.random()
        if r < 0.3:
            text = rng.choice(PREFIXES) + parts[0]
        elif r < 0.9:
            text = parts[0] + " " + rng.choice(BINARY[:2] * 3 + BINARY[2:]) + " " + parts[1]
        else:
            text = parts[0] + rng.choice(("", "  ", " ~ ")) + parts[1]
        got = _outcome(parse_formula, text, known)
        assert got == _outcome(ref.parse_formula, text), text
        if isinstance(got, Formula):
            known[text] = got
            if len(text) < 60:
                texts.append(text)


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


def test_long_refused_lines_fail_in_linear_time():
    # Runs of white space and `;` that a backtracking scan would retry
    # once per character: 100,000 characters take milliseconds.
    good = "oformulas: P ; under: {1} ; over: {1}"
    for line in (good + " " * 100_000 + ";x", good + "; " * 50_000 + "x",
                 "oformulas:" + " " * 100_000 + "x;" + " " * 100_000, " " * 100_000 + "x"):
        start = time.perf_counter()
        got = _outcome(parse_cirquent, line)
        assert time.perf_counter() - start < 1
        assert got == _outcome(ref.parse_cirquent, line)


def test_empty_oformula_entries_fail_like_the_reference():
    for oformulas in ("", " ", "P ||Q", "| P", "P |", "P | \t | Q", "|"):
        line = f"oformulas: {oformulas} ; under: {{1}} ; over: {{1}}"
        got = _outcome(parse_cirquent, line, {}, {}, {})
        assert got == _outcome(ref.parse_cirquent, line) == (CirquentError, "empty oformula entry")


# Proof files: generated proofs, respaced and commented, then corrupted.

def _proof_pairs(rng: random.Random) -> list[tuple[str, str, list[str], str]]:
    """(step number, rule name, parameter chunks, cirquent line) for each
    step of a slice of a generated proof, renumbered from 1."""
    source = rng.choice(_proof_pool())
    lines = source.split("\n")
    start = rng.randrange(len(lines) // 2)
    count = rng.randint(1, min(10, len(lines) // 2 - start))
    pairs = []
    for k in range(count):
        header, line = lines[2 * (start + k)], lines[2 * (start + k) + 1]
        rule, *params = header.split(": rule=", 1)[1].split()
        pairs.append((str(k + 1), rule, params, line))
    return pairs


@functools.cache
def _proof_pool() -> tuple[str, ...]:
    gen = benchmark_generator()
    rng = random.Random(45)
    return (read_fixture("p1.proof").strip(), read_fixture("p2.proof").strip(),
            *(gen.deep_proof(rng, target).text() for target in (5, 10, 20, 30)))


def _header(rng: random.Random, number: str, rule: str, params: list[str]) -> str:
    sp = rng.choice(SPACES[:5])
    params = rng.sample(params, len(params))
    return (f"step{rng.choice((' ', '  ', chr(9)))}{number}{sp}:{rng.choice(SPACES[:5])}rule={rule}"
            + "".join(rng.choice((" ", "  ", "\t")) + p for p in params))


def _respaced_line(rng: random.Random, line: str) -> str:
    """The cirquent line with its sections reordered, respaced, and blank
    sections or a trailing `;` added."""
    parts = [tuple(p.strip() for p in part.split(":", 1)) for part in line.split(";")]
    if rng.random() < 0.5:
        rng.shuffle(parts)
    kind = rng.randrange(10)
    if kind < 2:
        parts = _corrupt_parts(rng, parts)
    elif kind == 2:
        # One oformula spoilt.
        k = next(k for k, (name, _) in enumerate(parts) if name == "oformulas")
        entries = parts[k][1].split(" | ")
        j = rng.randrange(len(entries))
        entries[j] = _corrupt(rng, entries[j])
        parts[k] = ("oformulas", " | ".join(entries))
    text = _render_parts(rng, parts)
    if rng.random() < 0.2:
        text += rng.choice((";", " ;", "; ", ";;"))
    if rng.random() < 0.1:
        text = text.replace(";", rng.choice((";;", "; ;")), 1)
    return text


def _corrupt_header(rng: random.Random, number: str, rule: str,
                    params: list[str]) -> tuple[str, str, list[str]]:
    """A step number out of order or with a leading zero, or a repeated,
    unknown, missing or malformed parameter, or an unknown rule."""
    params = list(params)
    kind = rng.randrange(8)
    if kind == 0:
        number = rng.choice((str(int(number) + 1), str(int(number) - 1), "0" + number, "0"))
    elif kind == 1 and params:
        params.append(rng.choice(params).split("=")[0] + "=" + rng.choice(("1", "2", "{1}")))
    elif kind == 2:
        params.append(rng.choice(("extra=1", "add_over={1,2}", "add_over={}", "add_over=3",
                                  "add_over={2}", "pos=1", "oformula={1}")))
    elif kind == 3 and params:
        params.remove(rng.choice(params))
    elif kind == 4 and params:
        k = rng.randrange(len(params))
        key = params[k].split("=")[0]
        params[k] = rng.choice((key, f"{key}=", f"{key}=x", f"{key}=01", f"{key}=+1", f"{key}={{1",
                                f"{key}={{1,,2}}", f"{key}={{ }}", f"{key}={{01}}", f"={key}",
                                f"{key}={{1}}", f"{key}=2"))
    elif kind == 5:
        rule = rng.choice(("frobnicate", "Axiom", "or,", rule + "x"))
    elif kind == 6:
        params.append(rng.choice(("add_over={ 1,2 }", "add_over={1, 2}", "add_over={ }")))
    return number, rule, params


def _proof_file(rng: random.Random) -> str:
    pairs = _proof_pairs(rng)
    if rng.random() < 0.3:
        # Steps again, renumbered: repeated headers and lines.
        again = rng.sample(pairs, rng.randint(1, len(pairs)))
        pairs += [(str(len(pairs) + i + 1), rule, params, line)
                  for i, (_, rule, params, line) in enumerate(again)]
    lines: list[str] = []
    for k, (number, rule, params, line) in enumerate(pairs):
        if rng.random() < 0.04:
            number, rule, params = _corrupt_header(rng, number, rule, params)
        lines.append(_header(rng, number, rule, params) if rng.random() < 0.3
                     else f"step {number}: rule={rule}" + "".join(" " + p for p in params))
        lines.append(_respaced_line(rng, line) if rng.random() < 0.3 else line)
    kind = rng.randrange(10)
    if kind == 0:
        del lines[rng.randrange(len(lines))]          # a header or a cirquent line lost
    elif kind == 1:
        k = rng.randrange(len(lines) - 1)             # a cirquent line before its header
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == 2:
        lines.append(lines[-2])                       # a header with no cirquent at the end
    for _ in range(rng.choice((0, 0, 1, 3))):
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("", "   ", "# a comment", "  # step 1: rule=axiom", "#", "\t")))
    ends = rng.choice(("\n", "\r\n", "mixed"))
    if ends == "mixed":
        return "".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines)
    return ends.join(lines) + rng.choice(("", ends))


def _proof_outcome(parse, text):
    try:
        return parse(text)
    except ProofError as exc:
        return str(exc)


def test_proof_files_read_like_the_reference():
    """Good and corrupted proof files read to an equal proof, or fail with
    the same message, through the one-pass reader and the line-by-line
    reference."""
    rng = random.Random(44)
    failures = 0
    for _ in range(1500):
        text = _proof_file(rng)
        got = _proof_outcome(parse_proof, text)
        assert got == _proof_outcome(ref.parse_proof, text), text
        failures += isinstance(got, str)
    assert 300 < failures < 1000
