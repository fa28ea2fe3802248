"""Formula syntax: tokenizing, parsing, negation, rendering.

Stored formulas are always in negation normal form: negation appears only
directly on atoms.  The parser accepts general negation (and `->` sugar)
and builds the normal form as it reads, in one pass.
"""
from __future__ import annotations

import re

from .values import Frozen, InputError, set_field


class FormulaError(InputError):
    """Malformed formula text."""


# Every node built so far, keyed by `(class, *fields)`; never emptied.
_NODES: dict[tuple, Formula] = {}


class Formula(Frozen):
    """Base class for formula nodes.  Building a node equal to an existing
    one returns that one, so equal formulas are one object, compared and
    hashed by identity without walking them."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                set_field(node, name, value)
            _NODES[key] = node
        return node


class _Named(Formula):
    __slots__ = __match_args__ = ("name",)


class _Unary(Formula):
    __slots__ = __match_args__ = ("body",)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")


class AtomRef(_Named):
    __slots__ = ()


class NegAtom(_Named):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Pst(_Unary):
    """Parallel recurrence (`!`): infinitely many conjoined copies."""

    __slots__ = ()


class Pcost(_Unary):
    """Parallel corecurrence (`?`): infinitely many disjoined copies."""

    __slots__ = ()


class St(_Unary):
    """Branching recurrence (`b!`): threads addressed by bitstrings."""

    __slots__ = ()


class Cost(_Unary):
    """Branching corecurrence (`b?`): dual of St."""

    __slots__ = ()


# Each connective's dual: the class of the negation of a node.
_DUAL: dict[type, type] = {
    And: Or, Or: And, Pst: Pcost, Pcost: Pst, St: Cost, Cost: St, AtomRef: NegAtom, NegAtom: AtomRef,
}

_PREFIX = {"!": Pst, "?": Pcost, "b!": St, "b?": Cost}


_TOKEN = r"[A-Z][A-Za-z0-9]*|b!|b\?|->|/\\|\\/|[~!?()]"
_TOKEN_RE = re.compile(_TOKEN)
# Only for the positions in messages, one scan: group 1 is a token, and
# group 2 any other non-space character.  Compiled on first use.
_SCAN = r"\s*(?:(" + _TOKEN + r")|(\S))"


def _tokenize(text: str) -> list[str | None]:
    """The tokens of text, ending in a None sentinel."""
    tokens: list[str | None] = _TOKEN_RE.findall(text)
    # Tokens hold no white space, so they cover every other character
    # unless the scan skipped one.
    if sum(map(len, tokens)) != len("".join(text.split())):
        for m in re.finditer(_SCAN, text):
            if m.group(2) is not None:
                bad = m.start(2)
                raise FormulaError(f"unknown token at position {m.start()}: {text[bad:bad + 10]!r}")
    tokens.append(None)
    return tokens


class _Parser:
    """Recursive descent straight to negation normal form.  Each method
    reads one construct under a polarity: with `neg` set it builds the
    negation of what it reads, taking each node class from `_DUAL`."""

    def __init__(self, tokens: list[str | None], text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def take(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            raise FormulaError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            position = [m.start(1) for m in re.finditer(_SCAN, self.text)][self.i - 1]
            raise FormulaError(f"expected {tok!r}, got {got!r} at position {position}")

    def parse_impl(self, neg: bool) -> Formula:
        left = self.parse_or(neg)
        if self.tokens[self.i] == "->":
            self.i += 1
            right = self.parse_impl(neg)
            return (_DUAL[Or] if neg else Or)(negate(left), right)
        return left

    def parse_or(self, neg: bool) -> Formula:
        node = self.parse_and(neg)
        cls = _DUAL[Or] if neg else Or
        while self.tokens[self.i] == "\\/":
            self.i += 1
            node = cls(node, self.parse_and(neg))
        return node

    def parse_and(self, neg: bool) -> Formula:
        node = self.parse_unary(neg)
        cls = _DUAL[And] if neg else And
        while self.tokens[self.i] == "/\\":
            self.i += 1
            node = cls(node, self.parse_unary(neg))
        return node

    def parse_unary(self, neg: bool) -> Formula:
        tok = self.take()
        if tok.isalnum():
            return (_DUAL[AtomRef] if neg else AtomRef)(tok)
        if tok == "~":
            return self.parse_unary(not neg)
        cls = _PREFIX.get(tok)
        if cls is not None:
            return (_DUAL[cls] if neg else cls)(self.parse_unary(neg))
        if tok == "(":
            node = self.parse_impl(neg)
            self.expect(")")
            return node
        raise FormulaError(f"unexpected token {tok!r}")


def negate(f: Formula) -> Formula:
    """Negation of a normalized formula, itself normalized."""
    dual = _DUAL.get(type(f))
    if dual is None:
        raise FormulaError(f"not a normalized formula node: {f!r}")
    if isinstance(f, (AtomRef, NegAtom)):
        return dual(f.name)
    if isinstance(f, (And, Or)):
        return dual(negate(f.left), negate(f.right))
    return dual(negate(f.body))


# Texts up to this long may be built from their operands' texts: they nest
# too shallowly for the descent, or `negate`, to reach the recursion limit,
# so both ways read the same texts.
_BUILD_MAX = 200
# How loosely each class binds at the top of a text without `->`: the text
# of a formula of that class binds at least this tightly.
_BINDING = {Or: 1, And: 2}


def _operand(text: str, known: dict[str, Formula], binding: int) -> Formula | None:
    """The formula of text from `known`, bare or in one pair of parentheses,
    if text binds at least as tightly as `binding`."""
    f = known.get(text)
    if f is not None:
        return f if _BINDING.get(type(f), 3) >= binding else None
    if text[:1] == "(" and text[-1:] == ")":
        return known.get(text[1:-1])
    return None


def _build(text: str, known: dict[str, Formula]) -> Formula | None:
    """The formula of text when text is a prefix, or an infix `\\/` or
    `/\\` between single spaces, applied to operand texts in `known`; else
    None.  The grammar reads such a text one way only, so this is the
    formula the descent would build."""
    if len(text) > _BUILD_MAX or "->" in text:
        return None
    sym = text[:2] if text[:1] == "b" else text[:1]
    if sym in _PREFIX or sym == "~":
        body = _operand(text[len(sym):], known, 3)
        if body is not None:
            return negate(body) if sym == "~" else _PREFIX[sym](body)
    for sym, cls in ((" \\/ ", Or), (" /\\ ", And)):
        binding = _BINDING[cls]
        i = text.find(sym)
        while i >= 0:
            left = _operand(text[:i], known, binding)
            if left is not None:
                right = _operand(text[i + len(sym):], known, binding + 1)
                if right is not None:
                    return cls(left, right)
            i = text.find(sym, i + 1)
    return None


def parse_formula(text: str, known: dict[str, Formula] | None = None) -> Formula:
    """Parse formula text into a normalized Formula.  `known`, if given,
    maps texts already parsed to their formulas; a text made of operand
    texts there is built from them instead of parsed token by token."""
    if known:
        node = _build(text, known)
        if node is not None:
            return node
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise FormulaError("empty formula")
    parser = _Parser(tokens, text)
    try:
        node = parser.parse_impl(False)
    except RecursionError:
        # The recursive descent's depth is bounded by the interpreter's.
        raise FormulaError("formula nested too deeply") from None
    if tokens[parser.i] is not None:
        raise FormulaError(f"trailing input from token {tokens[parser.i]!r}")
    return node


# Rendering with minimal parentheses.  Precedence: atoms/prefix 3, /\ 2, \/ 1.

def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


_PREFIX_SYMBOL = {cls: sym for sym, cls in _PREFIX.items()}


def render_formula(f: Formula) -> str:
    """Render a normalized formula; parse_formula(render_formula(f)) == f."""
    if isinstance(f, AtomRef):
        return f.name
    if isinstance(f, NegAtom):
        return "~" + f.name
    if isinstance(f, (Pst, Pcost, St, Cost)):
        sym = _PREFIX_SYMBOL[type(f)]
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
    if isinstance(f, (Pst, Pcost, St, Cost)):
        return atoms(f.body)
    raise FormulaError(f"not a formula node: {f!r}")
