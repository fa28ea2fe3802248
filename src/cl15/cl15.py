"""The inference rules as checkable premise/conclusion relations, plus
whole-proof verification and the proof file format.

Each rule is one class, and the class is its only record: its file-format
`name`, its parameters (its fields, in file order), its check
`holds(premise, conclusion)` and the `mismatch` text for a pair that is not
an instance.  A check runs a deterministic constructor in the rule's
natural direction (conclusion from premise for the exchanges, duplications
and merging, premise from conclusion for the rest) and compares the result
with the given cirquent, so diagnostics are exact and checking is linear.
"""
from __future__ import annotations

import re

from .cirquent import Cirquent, CirquentError, Group, clubsuit, parse_cirquent, render_cirquent, validate_cirquent
from .formula import And, Formula, FormulaError, Or, Pcost, Pst, negate, render_formula
from .runs import RunError, numeral_value
from .values import Value, set_field


class ProofError(ValueError):
    """Malformed proof text."""


class Violation(Value):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):
        set_field(self, "reason", reason)


# Rule instances (all indices 1-based).  Rules whose parameter has the same
# name share a base that holds it.

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


class Axiom(Rule):
    """The axiom on formulas F1..Fn.  Its step header takes no parameters:
    `formulas` is read from its cirquent ~F1, F1, ..., ~Fn, Fn."""

    __slots__ = __match_args__ = ("formulas",)
    name, params, mismatch = "axiom", (), "axiom has no premise"

    def __init__(self, formulas: tuple[Formula, ...]):
        set_field(self, "formulas", formulas)

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


class UndergroupExchange(_AtPos):
    __slots__ = ()
    name = "exchange_unders"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, _swap_groups(p.undergroups, self.pos), p.overgroups) == c


class OvergroupExchange(_AtPos):
    __slots__ = ()
    name = "exchange_overs"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _swap_groups(p.overgroups, self.pos)) == c


class UndergroupDuplication(_AtPos):
    __slots__ = ()
    name = "dup_under"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, _duplicate_group(p.undergroups, self.pos), p.overgroups) == c


class OvergroupDuplication(_AtPos):
    __slots__ = ()
    name = "dup_over"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _duplicate_group(p.overgroups, self.pos)) == c


class Merging(Rule):
    __slots__ = __match_args__ = params = ("over",)
    name, mismatch = "merging", _FORWARD_MISMATCH

    def __init__(self, over: int):
        set_field(self, "over", over)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return Cirquent(p.oformulas, p.undergroups, _merge_groups(p.overgroups, self.over)) == c


class Weakening(Rule):
    __slots__ = __match_args__ = params = ("under", "oformula")
    name, mismatch = "weakening", "premise is not the arc-deletion of the conclusion"

    def __init__(self, under: int, oformula: int):
        set_field(self, "under", under)
        set_field(self, "oformula", oformula)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_weakening(c, self.under, self.oformula)[0] == p


class Contraction(_AtOformula):
    __slots__ = ()
    name, mismatch = "contraction", "premise is not the two-copy split of the conclusion"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_contraction(c, self.oformula) == p


class OrIntro(_AtOformula):
    __slots__ = ()
    name, mismatch = "or", "premise does not split the disjunction as required"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_or(c, self.oformula) == p


class AndIntro(_AtOformula):
    __slots__ = ()
    name, mismatch = "and", "premise does not split the conjunction as required"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_and(c, self.oformula) == p


class PstIntro(_AtOformula):
    __slots__ = ()
    name, mismatch = "pst", "premise does not add a singleton overgroup as required"

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return pst_position(p, c, self.oformula) is not None


class PcostIntro(Rule):
    __slots__ = __match_args__ = params = ("oformula", "add_over")
    name, mismatch = "pcost", "premise does not match the stated overgroup additions"

    def __init__(self, oformula: int, add_over: frozenset[int] = frozenset()):
        set_field(self, "oformula", oformula)
        set_field(self, "add_over", add_over)

    def holds(self, p: Cirquent, c: Cirquent) -> bool:
        return premise_of_pcost(c, self.oformula, self.add_over) == p


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

def premise_of_weakening(
    conclusion: Cirquent, under: int, oformula: int
) -> tuple[Cirquent, int | None, tuple[int, ...]]:
    """Delete the arc (undergroup `under`, oformula), cascading: an oformula
    left in no undergroup is deleted with its overgroup arcs, and overgroups
    left empty are deleted.  Returns (premise, deleted oformula index or
    None, deleted overgroup positions), indices in conclusion terms."""
    if not 1 <= under <= len(conclusion.undergroups):
        raise ValueError(f"undergroup {under} out of range")
    a = oformula
    if a not in conclusion.undergroups[under - 1]:
        raise ValueError(f"no arc from undergroup {under} to oformula {a}")
    unders = list(conclusion.undergroups)
    unders[under - 1] = unders[under - 1] - {a}
    if any(a in g for g in unders):
        return (
            Cirquent(conclusion.oformulas, tuple(unders), conclusion.overgroups),
            None,
            (),
        )
    # The oformula became homeless: delete it and renumber.
    of = list(conclusion.oformulas)
    del of[a - 1]

    def drop(g: Group) -> Group:
        return frozenset(c - 1 if c > a else c for c in g if c != a)

    unders2 = tuple(drop(g) for g in unders)
    overs2 = [drop(g) for g in conclusion.overgroups]
    deleted_overs = tuple(
        j for j, g in enumerate(overs2, start=1) if not g
    )
    overs3 = tuple(g for g in overs2 if g)
    return Cirquent(tuple(of), unders2, overs3), a, deleted_overs


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


def _split(conclusion: Cirquent, a: int, first: Formula, second: Formula,
           split_unders: bool = False) -> Cirquent:
    """Oformula a replaced by `first` and `second`, at a and a+1.  A group
    that held a holds both, except that with `split_unders` an undergroup
    that held a becomes two: one that holds `first`, then one that holds
    `second`."""
    of = list(conclusion.oformulas)
    of[a - 1:a] = [first, second]
    unders: list[Group] = []
    for g in conclusion.undergroups:
        spread = _shift_after(g, a)
        if split_unders and a in g:
            unders += (spread - {a + 1}, spread - {a})
        else:
            unders.append(spread)
    overs = tuple(_shift_after(g, a) for g in conclusion.overgroups)
    return Cirquent(tuple(of), tuple(unders), overs)


def premise_of_contraction(conclusion: Cirquent, a: int) -> Cirquent:
    f = _oformula(conclusion, a, Pcost)
    return _split(conclusion, a, f, f)


def premise_of_or(conclusion: Cirquent, a: int) -> Cirquent:
    f = _oformula(conclusion, a, Or)
    return _split(conclusion, a, f.left, f.right)


def premise_of_and(conclusion: Cirquent, a: int) -> Cirquent:
    f = _oformula(conclusion, a, And)
    return _split(conclusion, a, f.left, f.right, split_unders=True)


def premise_of_pst(conclusion: Cirquent, a: int, over_pos: int) -> Cirquent:
    f = _oformula(conclusion, a, Pst)
    if not 1 <= over_pos <= len(conclusion.overgroups) + 1:
        raise ValueError(f"overgroup position {over_pos} out of range")
    of = list(conclusion.oformulas)
    of[a - 1] = f.body
    overs = list(conclusion.overgroups)
    overs.insert(over_pos - 1, frozenset({a}))
    return Cirquent(tuple(of), conclusion.undergroups, tuple(overs))


def pst_position(premise: Cirquent, conclusion: Cirquent, a: int) -> int | None:
    """The first insertion position at which the premise matches; None if
    none.  Raises ValueError unless oformula a is a '!' formula."""
    _oformula(conclusion, a, Pst)
    for j in range(1, len(conclusion.overgroups) + 2):
        if premise_of_pst(conclusion, a, j) == premise:
            return j
    return None


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

def axiom_violation(c: Cirquent, formulas: tuple[Formula, ...]) -> Violation | None:
    """None when c is the axiom cirquent on the given formulas: oformulas
    ~F1, F1, ..., ~Fn, Fn with matched undergroup/overgroup pairs."""
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
    v = axiom_violation(first.cirquent, first.rule.formulas)
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

_STEP_RE = re.compile(r"step\s+([0-9]+)\s*:\s*rule=(\S+)\s*(.*)")


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


def _build_rule(name: str, params: dict[str, object], cirq: Cirquent, lineno: int) -> Rule:
    cls = _RULES.get(name)
    if cls is None:
        raise ProofError(f"line {lineno}: unknown rule {name!r}")
    extra = params.keys() - cls.params
    if extra:
        raise ProofError(f"line {lineno}: rule {name} does not take {', '.join(sorted(extra))}")
    if cls is Axiom:
        return Axiom(cirq.oformulas[1::2])
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


def parse_proof(text: str) -> Proof:
    """Parse the proof file format: `step <k>: rule=<name> <params>` headers
    each followed by one cirquent line; `#` starts a comment.  Each distinct
    cirquent line, section, oformula text, group text and non-axiom step
    header `(rule, parameters)` in the file is parsed once."""
    steps: list[ProofStep] = []
    cirquents: dict[str, Cirquent] = {}
    formulas: dict[str, Formula] = {}
    groups: dict[str, Group] = {}
    sections: dict[str, tuple] = {}
    # An axiom's formulas come from its cirquent, so only other rules are kept.
    rules: dict[tuple[str, str], Rule] = {}
    # The pending step: its number, header, parameters and header line.
    pending: tuple[int, tuple[str, str], dict[str, object] | None, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            m = _STEP_RE.fullmatch(line)
            if m:
                if pending is not None:
                    raise ProofError(f"line {lineno}: step {pending[0]} has no cirquent")
                number = numeral_value(m.group(1))
                if number != len(steps) + 1:
                    raise ProofError(f"line {lineno}: expected step {len(steps) + 1}, got {number}")
                header = m.group(2, 3)
                params = None if header in rules else _parse_params(header[1], lineno)
                pending = (number, header, params, lineno)
                continue
            if pending is None:
                raise ProofError(f"line {lineno}: expected a 'step <k>: rule=...' header")
            cirq = cirquents.get(line)
            if cirq is None:
                cirq = cirquents[line] = parse_cirquent(line, formulas, groups, sections)
        except (CirquentError, FormulaError, RunError) as exc:
            raise ProofError(f"line {lineno}: {exc}") from exc
        _, header, params, header_line = pending
        rule = rules.get(header)
        if rule is None:
            rule = _build_rule(header[0], params, cirq, header_line)  # type: ignore[arg-type]
            if not isinstance(rule, Axiom):
                rules[header] = rule
        steps.append(ProofStep(cirq, rule))
        pending = None
    if pending is not None:
        raise ProofError(f"step {pending[0]} has no cirquent")
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
