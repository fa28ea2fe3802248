"""Formula syntax: tokenizing, parsing, negation normalization, rendering.

Stored formulas are always in negation normal form: negation appears only
directly on atoms.  The parser accepts general negation (and `->` sugar)
and normalizes immediately.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaError(ValueError):
    """Malformed formula text."""


ATOM_RE = re.compile(r"[A-Z][A-Za-z0-9]*")


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes."""


@dataclass(frozen=True)
class AtomRef(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Pst(Formula):
    """Parallel recurrence (`!`): infinitely many conjoined copies."""

    body: Formula


@dataclass(frozen=True)
class Pcost(Formula):
    """Parallel corecurrence (`?`): infinitely many disjoined copies."""

    body: Formula


@dataclass(frozen=True)
class St(Formula):
    """Branching recurrence (`b!`): threads addressed by bitstrings."""

    body: Formula


@dataclass(frozen=True)
class Cost(Formula):
    """Branching corecurrence (`b?`): dual of St."""

    body: Formula


@dataclass(frozen=True)
class Neg(Formula):
    """General negation, parser-intermediate only.

    Never present in normalized formulas; eliminate with normalize_negation.
    """

    body: Formula


# Tokenizer

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


def negate(f: Formula) -> Formula:
    """Negation of a normalized formula, itself normalized."""
    return _negate_normalized(f)


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
        # The recursive descent's depth is bounded by the interpreter's.
        raise FormulaError("formula nested too deeply") from None


# Rendering with minimal parentheses.  Precedence: atoms/prefix 3, /\ 2, \/ 1.

def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def render_formula(f: Formula) -> str:
    """Render a normalized formula; parse_formula(render_formula(f)) == f."""
    if isinstance(f, AtomRef):
        return f.name
    if isinstance(f, NegAtom):
        return "~" + f.name
    if isinstance(f, (Pst, Pcost, St, Cost)):
        sym = {Pst: "!", Pcost: "?", St: "b!", Cost: "b?"}[type(f)]
        body = render_formula(f.body)
        if _prec(f.body) < 3:
            body = "(" + body + ")"
        return sym + body
    if isinstance(f, (And, Or)):
        sym = "/\\" if isinstance(f, And) else "\\/"
        p = _prec(f)
        left = render_formula(f.left)
        if _prec(f.left) < p:
            left = "(" + left + ")"
        right = render_formula(f.right)
        if _prec(f.right) <= p:
            right = "(" + right + ")"
        return f"{left} {sym} {right}"
    raise FormulaError(f"cannot render {f!r}")


def atoms(f: Formula) -> frozenset[str]:
    """Atom names occurring in f."""
    if isinstance(f, (AtomRef, NegAtom)):
        return frozenset({f.name})
    if isinstance(f, (And, Or)):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, (Pst, Pcost, St, Cost, Neg)):
        return atoms(f.body)
    raise FormulaError(f"not a formula node: {f!r}")
