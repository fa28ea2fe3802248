"""The two-pass formula parser and the section-by-section cirquent parser,
kept as a test-only reference for the one-pass readers in `cl15.formula`
and `cl15.cirquent`.

The formula parser here builds a tree with general negation (`Neg`) and
then pushes negation down to the atoms in a second pass; the cirquent
parser parses every group section character by character.  Both are the
direct reading of the text formats, and the one-pass readers must agree
with them: equal values, or the same exception class with the same
message.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from cl15.cirquent import Cirquent, CirquentError, Group
from cl15.formula import (
    And,
    AtomRef,
    Cost,
    Formula,
    FormulaError,
    NegAtom,
    Or,
    Pcost,
    Pst,
    St,
)


@dataclass(frozen=True)
class Neg(Formula):
    """General negation, parser-intermediate only.

    Never present in normalized formulas; eliminate with normalize_negation.
    """

    body: Formula


ATOM_RE = re.compile(r"[A-Z][A-Za-z0-9]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[A-Z][A-Za-z0-9]*)"
    r"|(?P<op>b!|b\?|->|/\\|\\/|[~!?()]))"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaError(f"unknown token at position {pos}: {rest[:10]!r}")
        tok = m.group("atom") or m.group("op")
        tokens.append((tok, m.start("atom") if m.group("atom") else m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise FormulaError(f"expected {tok!r}, got {got!r} at position {self.tokens[self.i - 1][1]}")

    def parse_impl(self) -> Formula:
        left = self.parse_or()
        if self.peek() == "->":
            self.take()
            right = self.parse_impl()
            return Or(Neg(left), right)
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek() == "\\/":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek() == "/\\":
            self.take()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        if tok == "~":
            self.take()
            return Neg(self.parse_unary())
        if tok == "!":
            self.take()
            return Pst(self.parse_unary())
        if tok == "?":
            self.take()
            return Pcost(self.parse_unary())
        if tok == "b!":
            self.take()
            return St(self.parse_unary())
        if tok == "b?":
            self.take()
            return Cost(self.parse_unary())
        if tok == "(":
            self.take()
            node = self.parse_impl()
            self.expect(")")
            return node
        if ATOM_RE.fullmatch(tok):
            self.take()
            return AtomRef(tok)
        raise FormulaError(f"unexpected token {tok!r}")


def normalize_negation(f: Formula) -> Formula:
    """Push general negation down to atoms, yielding negation normal form."""
    if isinstance(f, Neg):
        return _negate_normalized(normalize_negation(f.body))
    if isinstance(f, (AtomRef, NegAtom)):
        return f
    if isinstance(f, And):
        return And(normalize_negation(f.left), normalize_negation(f.right))
    if isinstance(f, Or):
        return Or(normalize_negation(f.left), normalize_negation(f.right))
    if isinstance(f, Pst):
        return Pst(normalize_negation(f.body))
    if isinstance(f, Pcost):
        return Pcost(normalize_negation(f.body))
    if isinstance(f, St):
        return St(normalize_negation(f.body))
    if isinstance(f, Cost):
        return Cost(normalize_negation(f.body))
    raise FormulaError(f"not a formula node: {f!r}")


def _negate_normalized(f: Formula) -> Formula:
    if isinstance(f, AtomRef):
        return NegAtom(f.name)
    if isinstance(f, NegAtom):
        return AtomRef(f.name)
    if isinstance(f, And):
        return Or(_negate_normalized(f.left), _negate_normalized(f.right))
    if isinstance(f, Or):
        return And(_negate_normalized(f.left), _negate_normalized(f.right))
    if isinstance(f, Pst):
        return Pcost(_negate_normalized(f.body))
    if isinstance(f, Pcost):
        return Pst(_negate_normalized(f.body))
    if isinstance(f, St):
        return Cost(_negate_normalized(f.body))
    if isinstance(f, Cost):
        return St(_negate_normalized(f.body))
    raise FormulaError(f"not a normalized formula node: {f!r}")


def parse_formula(text: str) -> Formula:
    """Parse formula text into a normalized Formula."""
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaError("empty formula")
    parser = _Parser(tokens, text)
    try:
        node = parser.parse_impl()
        if parser.peek() is not None:
            raise FormulaError(f"trailing input from token {parser.peek()!r}")
        return normalize_negation(node)
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None


def _index(text: str) -> int:
    """A canonical numeral (ASCII digits, no leading zero) with optional spaces around it."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and digits != "0"):
        raise ValueError(text)
    return int(digits)


def _parse_groups(text: str, what: str) -> tuple[Group, ...]:
    text = text.strip()
    if not text:
        raise CirquentError(f"no {what} groups")
    groups: list[Group] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "{":
            raise CirquentError(f"malformed {what} groups at {text[i:]!r}")
        close = text.find("}", i)
        if close < 0:
            raise CirquentError(f"unclosed group in {what}")
        inner = text[i + 1:close].strip()
        if not inner:
            groups.append(frozenset())
        else:
            try:
                groups.append(frozenset(map(_index, inner.split(","))))
            except ValueError as exc:
                raise CirquentError(f"bad index in {what} group: {inner!r}") from exc
        i = close + 1
    return tuple(groups)


def parse_cirquent(text: str) -> Cirquent:
    """Parse the one-line cirquent text format, every piece afresh."""
    sections: dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CirquentError(f"expected 'name: ...' section, got {part!r}")
        name, _, body = part.partition(":")
        name = name.strip()
        if name in sections:
            raise CirquentError(f"duplicate section {name!r}")
        sections[name] = body
    required = {"oformulas", "under", "over"}
    missing = required - sections.keys()
    if missing:
        raise CirquentError(f"missing sections: {', '.join(sorted(missing))}")
    unknown = sections.keys() - required
    if unknown:
        raise CirquentError(f"unknown sections: {', '.join(sorted(unknown))}")
    of_texts = [p.strip() for p in sections["oformulas"].split("|")]
    if not all(of_texts):
        raise CirquentError("empty oformula entry")
    oformulas = tuple(parse_formula(t) for t in of_texts)
    return Cirquent(
        oformulas, _parse_groups(sections["under"], "under"), _parse_groups(sections["over"], "over")
    )
