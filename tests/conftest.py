"""Shared test data: rule illustration instances, a single-corruption
generator, and scripted-play helpers for the translator identity checks."""
from __future__ import annotations

import functools
import importlib.util
import random
import sys
import warnings
from pathlib import Path

from hypothesis import HealthCheck, settings

from cl15 import cl15 as rules
from cl15.cirquent import Cirquent, make_cirquent, parse_cirquent
from cl15.cl15 import Translator
from cl15.formula import And, AtomRef, Cost, Formula, NegAtom, Or, Pcost, Pst, St
from cl15.games import FiniteGame, Game, GameError, Interpretation, Position
from cl15.harness import Choose, HarnessError, ScriptMachine, random_formula
from cl15.runs import BOT, TOP, Labmove, Player, Run, format_cell_move, project_cell, project_prefix, split_cell_move
from cl15.strategy import (
    CIRQUENT_EDGE,
    FORMULA_EDGE,
    MachineStrategy,
    Pipeline,
    ScriptEnv,
    StrategyError,
    play,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Property tests draw the same examples on every run, a bounded number of
# them, with no per-example deadline on this slow reference code.
settings.register_profile(
    "cl15",
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cl15")


def C(text: str) -> Cirquent:
    return parse_cirquent(text)


@functools.cache
def benchmark_generator():
    """The benchmark's input generator, which builds valid proofs from
    every rule on its own.  One of its docstrings holds a `\\/` escape
    that Python warns about when it compiles the file."""
    path = FIXTURES.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        warnings.simplefilter("ignore", SyntaxWarning)
        spec.loader.exec_module(module)
    return module


def generated_proof(seed: int, steps: int = 60) -> rules.Proof:
    """A valid proof of about `steps` steps from the benchmark's generator."""
    return rules.parse_proof(benchmark_generator().deep_proof(random.Random(seed), steps).text())


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# Helpers that only tests use.

class PermissiveGame(Game):
    """Everything is legal and won by the machine; used for translation
    experiments where only the run matters."""

    def start(self) -> Position:
        return _PermissivePosition()


class _PermissivePosition(Position):
    def _step(self, lm: Labmove) -> bool:
        return True

    def _moves(self, player: Player) -> list[str]:
        raise GameError("a permissive game has no list of moves")

    def _won(self) -> Player:
        return TOP


def random_cirquent(
    rng: random.Random, atoms=("P", "Q"), max_size: int = 3, depth: int = 2
) -> Cirquent:
    """A random valid cirquent: every oformula in at least one undergroup
    and one overgroup, no empty groups."""
    size = rng.randint(1, max_size)
    oformulas = tuple(random_formula(rng, atoms, depth) for _ in range(size))

    def random_groups(count: int) -> list[set[int]]:
        groups: list[set[int]] = [set() for _ in range(count)]
        for a in range(1, size + 1):
            groups[rng.randrange(count)].add(a)
        for g in groups:
            if not g:
                g.add(rng.randint(1, size))
        for g in groups:
            for a in range(1, size + 1):
                if rng.random() < 0.25:
                    g.add(a)
        return groups

    return make_cirquent(
        oformulas, random_groups(rng.randint(1, 2)), random_groups(rng.randint(1, 2))
    )


def moves_after(game: FiniteGame, run: Run) -> list[Labmove]:
    """Labmoves extending the given position inside a finite game's tree,
    in the order of the trie's children."""
    pos = game.replay(run)
    return [] if pos.offender is not None else list(game._children[pos.node])


def render_finite_game(g: FiniteGame) -> str:
    lines = ["finitegame"]
    labels = g.labels
    for run in sorted(labels, key=lambda r: (len(r), tuple((lm.player.value, lm.move) for lm in r))):
        run_text = "; ".join(f"{lm.player.value} {lm.move}" for lm in run) if run else "()"
        lines.append(f"{run_text} => {labels[run].value}")
    return "\n".join(lines)


def move_alphabet(game: FiniteGame) -> list[str]:
    """Every move text of a finite game's trie, in the order of its nodes."""
    return list(dict.fromkeys(lm.move for kids in game._children for lm in kids))


# Structure-shaped candidate moves: fuzz input that is well shaped but may
# be illegal.  Copies and coordinates come from 1-3, stems have 0-2 bits,
# and an atom's move from its finite game's alphabet (or 1-3).

def rng_chooser(rng: random.Random) -> Choose:
    return lambda n: rng.randrange(n)


def _candidate_formula_move(f: Formula, interp: Interpretation, choose: Choose) -> str:
    if isinstance(f, (AtomRef, NegAtom)):
        base = interp.get(f.name)
        alphabet = move_alphabet(base) if isinstance(base, FiniteGame) else []
        alphabet = alphabet or ["1", "2", "3"]
        return alphabet[choose(len(alphabet))]
    if isinstance(f, (And, Or)):
        side = choose(2)
        inner = f.left if side == 0 else f.right
        return f"{side + 1}.{_candidate_formula_move(inner, interp, choose)}"
    if isinstance(f, (Pst, Pcost)):
        return f"{choose(3) + 1}.{_candidate_formula_move(f.body, interp, choose)}"
    if isinstance(f, (St, Cost)):
        bits = "".join("01"[choose(2)] for _ in range(choose(3)))
        return f"{bits}.{_candidate_formula_move(f.body, interp, choose)}"
    raise HarnessError(f"cannot build a move for {f!r}")


def _candidate_cirquent_move(c: Cirquent, interp: Interpretation, choose: Choose) -> str:
    a = choose(c.size) + 1
    coords = ",".join(
        str(choose(3) + 1) if a in g else "0" for g in c.overgroups
    )
    return f"{a};{coords}.{_candidate_formula_move(c.oformulas[a - 1], interp, choose)}"


def move_builder(structure, interp: Interpretation):
    """Candidate-move generator for the given formula or cirquent."""
    if isinstance(structure, Cirquent):
        return lambda choose: _candidate_cirquent_move(structure, interp, choose)
    return lambda choose: _candidate_formula_move(structure, interp, choose)


def random_run(structure, interp, rng: random.Random, length: int,
               junk_rate: float = 0.1) -> Run:
    """A random run of structure-shaped moves with occasional junk; no
    legality filtering, so both legal and offender runs occur."""
    builder = move_builder(structure, interp)
    junk = ("x", "0", "9.9.9.9", ";", "1;;.m")
    out = []
    for _ in range(length):
        if rng.random() < junk_rate:
            mv = junk[rng.randrange(len(junk))]
        else:
            mv = builder(rng_chooser(rng))
        out.append(Labmove(TOP if rng.random() < 0.5 else BOT, mv))
    return tuple(out)


# One accepted instance per rule (axiom first, with no premise), plus extra
# instances that exercise the coordinate translators from other angles:
# a duplication that is not at the end, a merging with both/neither
# membership, and a corecurrence introduction adjoining no overgroups.

RULE_CASES = [
    ("axiom", None,
     "oformulas: ~F1 | F1 | ~F2 | F2 ; under: {1,2}{3,4} ; over: {1,2}{3,4}",
     rules.Axiom()),
    ("exchange_oformulas",
     "oformulas: E | F | G ; under: {1,2}{2}{3} ; over: {1}{2,3}",
     "oformulas: F | E | G ; under: {1,2}{1}{3} ; over: {2}{1,3}",
     rules.OformulaExchange(1)),
    ("exchange_unders",
     "oformulas: E | F ; under: {1}{2} ; over: {1,2}",
     "oformulas: E | F ; under: {2}{1} ; over: {1,2}",
     rules.UndergroupExchange(1)),
    ("exchange_overs",
     "oformulas: E | F ; under: {1,2} ; over: {1}{2}",
     "oformulas: E | F ; under: {1,2} ; over: {2}{1}",
     rules.OvergroupExchange(1)),
    ("dup_under",
     "oformulas: E | F | G ; under: {1,2}{3} ; over: {1}{2,3}",
     "oformulas: E | F | G ; under: {1,2}{1,2}{3} ; over: {1}{2,3}",
     rules.UndergroupDuplication(1)),
    ("dup_over",
     "oformulas: ~P | P ; under: {1,2} ; over: {1,2}",
     "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}",
     rules.OvergroupDuplication(1)),
    ("dup_over_mid",
     "oformulas: E | F ; under: {1,2} ; over: {1,2}{2}",
     "oformulas: E | F ; under: {1,2} ; over: {1,2}{1,2}{2}",
     rules.OvergroupDuplication(1)),
    ("merging",
     "oformulas: E | F | E ; under: {1}{2}{3} ; over: {1}{2,3}",
     "oformulas: E | F | E ; under: {1}{2}{3} ; over: {1,2,3}",
     rules.Merging(1)),
    ("merging_mixed",
     "oformulas: E | F ; under: {1,2} ; over: {1}{2}{2}",
     "oformulas: E | F ; under: {1,2} ; over: {1}{2}",
     rules.Merging(2)),
    ("weakening",
     "oformulas: G | F | F ; under: {1}{2}{3} ; over: {1,2}{2,3}",
     "oformulas: G | F | F ; under: {1,2}{2}{3} ; over: {1,2}{2,3}",
     rules.Weakening(1, 2)),
    ("contraction",
     "oformulas: E | ?F | ?F | G ; under: {1,2,3}{2,3,4} ; over: {1}{2,3,4}{4}",
     "oformulas: E | ?F | G ; under: {1,2}{2,3} ; over: {1}{2,3}{3}",
     rules.Contraction(2)),
    ("or",
     "oformulas: E | E | F ; under: {1}{2,3}{2,3} ; over: {1,2,3}{2,3}",
     "oformulas: E | E \\/ F ; under: {1}{2}{2} ; over: {1,2}{2}",
     rules.OrIntro(2)),
    ("and",
     "oformulas: G | E | F ; under: {1}{1,2}{1,3} ; over: {1}{2,3}",
     "oformulas: G | E /\\ F ; under: {1}{1,2} ; over: {1}{2}",
     rules.AndIntro(2)),
    ("pst",
     "oformulas: H | E | F ; under: {1,2}{2}{3} ; over: {1,2}{2,3}{3}",
     "oformulas: H | E | !F ; under: {1,2}{2}{3} ; over: {1,2}{2,3}",
     rules.PstIntro(3)),
    ("pcost",
     "oformulas: H | E | F ; under: {1,2}{2}{3} ; over: {1,2,3}{2,3}{3}",
     "oformulas: H | E | ?F ; under: {1,2}{2}{3} ; over: {1,2}{2,3}{3}",
     rules.PcostIntro(3, frozenset({1}))),
    ("pcost_plain",
     "oformulas: P ; under: {1} ; over: {1}",
     "oformulas: ?P ; under: {1} ; over: {1}",
     rules.PcostIntro(1, frozenset())),
]


# Cases that reach translator branches no case of RULE_CASES reaches: a
# weakening that deletes its oformula, and a pcost introduction that adds
# its oformula to two overgroups.  They are kept apart because the verdicts
# of RULE_CASES are pinned by a digest.
LEMMA_CASES = [
    ("weakening_deleting",
     "oformulas: E | F ; under: {1,2} ; over: {1}{2}",
     "oformulas: E | G | F ; under: {1,2,3} ; over: {1,2}{3}",
     rules.Weakening(1, 2)),
    # Two overgroups deleted, neither of them last.
    ("weakening_deleting_two_overs",
     "oformulas: E | F ; under: {1,2} ; over: {1,2}",
     "oformulas: E | F | G ; under: {1,2,3} ; over: {3}{3}{1,2}",
     rules.Weakening(1, 3)),
    ("pcost_two_overs",
     "oformulas: E | F ; under: {1,2} ; over: {1,2}{1,2}{2}",
     "oformulas: E | ?F ; under: {1,2} ; over: {1}{1}{2}",
     rules.PcostIntro(2, frozenset({1, 2}))),
    # The singleton overgroup goes first, not last as in the `pst` case.
    ("pst_first",
     "oformulas: E | F ; under: {1,2} ; over: {2}{1,2}",
     "oformulas: E | !F ; under: {1,2} ; over: {1,2}",
     rules.PstIntro(2)),
]


def rule_case(name):
    for case_name, prem, concl, rule in RULE_CASES + LEMMA_CASES:
        if case_name == name:
            return (C(prem) if prem is not None else None), C(concl), rule
    raise KeyError(name)


def instance_accepted(premise, conclusion, rule) -> bool:
    if premise is None:
        assert isinstance(rule, rules.Axiom)
        return rules.axiom_violation(conclusion) is None
    return rules.check_step(premise, conclusion, rule) is None


# Single-token corruptions.  Every variant below must be rejected: with the
# rule and one side fixed, the other side is determined, and the excluded
# combinations (overgroup edits inside a merged pair) are skipped because
# merging genuinely identifies such premises.

def _with_of(c: Cirquent, a: int, f) -> Cirquent:
    of = list(c.oformulas)
    of[a - 1] = f
    return Cirquent(tuple(of), c.undergroups, c.overgroups)


def _swap_of(c: Cirquent, a: int) -> Cirquent:
    of = list(c.oformulas)
    of[a - 1], of[a] = of[a], of[a - 1]
    return Cirquent(tuple(of), c.undergroups, c.overgroups)


def _with_groups(c: Cirquent, kind: str, groups) -> Cirquent:
    if kind == "under":
        return Cirquent(c.oformulas, tuple(groups), c.overgroups)
    return Cirquent(c.oformulas, c.undergroups, tuple(groups))


def _cirquent_mutants(side: str, c: Cirquent, skip_over_toggles: bool,
                      skip_over_swaps: bool):
    fresh = AtomRef("Zz")
    for a in range(1, c.size + 1):
        yield (f"{side}: wrap oformula {a}", _with_of(c, a, Or(c.oformulas[a - 1], fresh)))
    for a in range(1, c.size):
        if c.oformulas[a - 1] != c.oformulas[a]:
            yield (f"{side}: swap oformulas {a},{a + 1}", _swap_of(c, a))
    for kind in ("under", "over"):
        groups = c.undergroups if kind == "under" else c.overgroups
        if not (kind == "over" and skip_over_toggles):
            for j, g in enumerate(groups):
                for a in range(1, c.size + 1):
                    g2 = g - {a} if a in g else g | {a}
                    yield (
                        f"{side}: toggle {a} in {kind}group {j + 1}",
                        _with_groups(
                            c, kind, groups[:j] + (frozenset(g2),) + groups[j + 1:]
                        ),
                    )
        if not (kind == "over" and skip_over_swaps):
            for j in range(len(groups) - 1):
                if groups[j] != groups[j + 1]:
                    yield (
                        f"{side}: swap {kind}groups {j + 1},{j + 2}",
                        _with_groups(
                            c, kind,
                            groups[:j] + (groups[j + 1], groups[j]) + groups[j + 2:],
                        ),
                    )


def _rule_mutants(rule):
    if isinstance(rule, rules.Axiom):
        return
    if isinstance(
        rule,
        (
            rules.OformulaExchange,
            rules.UndergroupExchange,
            rules.OvergroupExchange,
            rules.UndergroupDuplication,
            rules.OvergroupDuplication,
        ),
    ):
        yield "rule: pos+1", type(rule)(rule.pos + 1)
    elif isinstance(rule, rules.Merging):
        yield "rule: over+1", rules.Merging(rule.over + 1)
    elif isinstance(rule, rules.Weakening):
        yield "rule: under+1", rules.Weakening(rule.under + 1, rule.oformula)
        yield "rule: oformula+1", rules.Weakening(rule.under, rule.oformula + 1)
    elif isinstance(rule, rules.PcostIntro):
        yield "rule: oformula+1", rules.PcostIntro(rule.oformula + 1, rule.add_over)
    else:
        yield "rule: oformula+1", type(rule)(rule.oformula + 1)


def single_corruptions(premise, conclusion, rule):
    """(description, premise, conclusion, rule) variants one edit away from
    an accepted instance; every one must be rejected.

    Two premise-side families are excluded because they land on legitimate
    alternative instances rather than corruptions: overgroup edits inside a
    merged pair (merging identifies such premises), and overgroup swaps
    around the singleton a pst introduction inserts (any insertion position
    is allowed).  So is a swap of the two oformulas of an axiom pair, which
    gives the axiom on the negated formula."""
    out = []
    pair_swaps = set() if premise is not None else {
        f"conclusion: swap oformulas {a},{a + 1}" for a in range(1, conclusion.size, 2)}
    for desc, mutated in _cirquent_mutants("conclusion", conclusion, False, False):
        if desc not in pair_swaps:
            out.append((desc, premise, mutated, rule))
    if premise is not None:
        is_merge = isinstance(rule, rules.Merging)
        skip_swaps = is_merge or isinstance(rule, rules.PstIntro)
        for desc, mutated in _cirquent_mutants("premise", premise, is_merge, skip_swaps):
            out.append((desc, mutated, conclusion, rule))
    for desc, rule2 in _rule_mutants(rule):
        out.append((desc, premise, conclusion, rule2))
    return out


def recording(translator: Translator, log: list[Labmove]) -> Translator:
    """`translator`, logging the imagined run inside it: each environment
    move it lets in and each machine move that reaches it, as labmoves of
    split cell moves.  Not structural, so a pipeline never fuses it; a
    spawn records through a fresh copy of the translator."""

    def outer_to_inner(move):
        inner = translator.outer_to_inner(move)
        if inner is not None:
            log.append(Labmove(BOT, inner))
        return inner

    def inner_to_outer(cell):
        log.append(Labmove(TOP, cell))
        return translator.inner_to_outer(cell)

    renew = translator.renew and (lambda: recording(translator.fresh(), log))
    return Translator(translator.name, outer_to_inner, inner_to_outer, renew=renew)


def as_texts(log: list[Labmove]) -> Run:
    """A recorded run of split cell moves as a run of move texts."""
    return tuple(Labmove(lm.player, format_cell_move(*lm.move)) for lm in log)


def transform_strategy(rule, premise, conclusion, inner: MachineStrategy,
                       log: list[Labmove] | None = None) -> MachineStrategy:
    """Check the rule application, then extend a cell-form strategy for the
    premise game by its translator, inside the cirquent edge, into one for
    the conclusion game; with a `log`, the translator records into it."""
    if rules.check_step(premise, conclusion, rule) is not None:
        raise StrategyError("rule application does not check")
    tr = rule.translator(premise, conclusion)
    return Pipeline(inner, (tr if log is None else recording(tr, log), CIRQUENT_EDGE))


# A generated proof in the shape of the long-play benchmark's: p1's axiom, a
# dup_over for a second overgroup and a dup_under, then seeded exchanges and
# dup_over/merging pairs, which leave the cirquent as it was.  Every step
# after the axiom is structural, so an extracted pipeline fuses all its rule
# translators into one layer, inside the edge.

def long_structural_proof(seed: int, steps: int = 40) -> rules.Proof:
    rng = random.Random(seed)
    gen = benchmark_generator()
    builder = gen.ProofBuilder([gen.atom("P")])
    builder.dup_over(1)
    builder.dup_under(1)
    while builder.steps < steps:
        kind = rng.choice(("exchange_oformulas", "exchange_unders", "exchange_overs", "dup_over"))
        if kind == "dup_over" and builder.steps < steps - 1:
            j = rng.randint(1, 2)
            builder.dup_over(j)
            builder.merging(j)
        elif kind != "dup_over":
            getattr(builder, kind)(1)
    return rules.parse_proof(builder.text())


# Scripted plays through one translation layer, for the run-correspondence
# identity checks.  Environment moves are conclusion-shaped texts, the inner
# machine's moves premise-shaped split cell moves; both respect the zero
# pattern of their cirquent's overgroup memberships.

GRID = (1, 2, 3)


def shaped_moves(cirq, rng, count, payload_for=None):
    out = []
    for _ in range(count):
        a = rng.randrange(1, cirq.size + 1)
        coords = tuple(rng.randint(1, 3) if a in g else 0 for g in cirq.overgroups)
        payload = payload_for(a, rng) if payload_for else rng.choice(("m", "n"))
        out.append((a, coords, payload))
    return out


def interleave(moves, rng):
    out = []
    for mv in moves:
        while rng.random() < 0.5:
            out.append(None)
        out.append(mv)
    out.extend([None] * 8)
    return out


def play_translated(strategy, log, env_moves, budget):
    """Play a translated strategy where every move is legal, one scripted
    environment move per grant; returns the real run and the imagined one
    that the strategy records into `log`, as texts."""
    events = play(strategy.spawn(), ScriptEnv(env_moves), PermissiveGame().start(), budget)
    return tuple(lm for _, _, lm in events if lm is not None), as_texts(log)


def play_instance(rule, prem, concl, seed, prem_payload=None, concl_payload=None,
                  n_moves=10):
    rng = random.Random(seed)
    env = [format_cell_move(*cell) for cell in shaped_moves(concl, rng, n_moves, concl_payload)]
    mach = interleave(shaped_moves(prem, rng, n_moves, prem_payload), rng)
    log = []
    strat = transform_strategy(rule, prem, concl, ScriptMachine(mach), log)
    real, imag = play_translated(strat, log, env, budget=80)
    assert len(real) >= n_moves
    return real, imag


def check_exchange_oformulas_identity(seed):
    prem, concl, rule = rule_case("exchange_oformulas")
    real, imag = play_instance(rule, prem, concl, seed)
    sigma = {1: 2, 2: 1, 3: 3}
    for a in (1, 2, 3):
        for x1 in GRID:
            for x2 in GRID:
                assert project_cell(real, a, (x1, x2)) == project_cell(
                    imag, sigma[a], (x1, x2)
                )


def check_exchange_overs_identity(seed):
    prem = C("oformulas: E | F ; under: {1,2} ; over: {1,2}{2}")
    concl = C("oformulas: E | F ; under: {1,2} ; over: {2}{1,2}")
    real, imag = play_instance(rules.OvergroupExchange(1), prem, concl, seed)
    for a in (1, 2):
        for x1 in GRID:
            for x2 in GRID:
                assert project_cell(real, a, (x1, x2)) == project_cell(imag, a, (x2, x1))


def check_contraction_identity(seed):
    prem, concl, rule = rule_case("contraction")

    def prem_payload(a, rng):
        return f"{rng.randint(1, 2)}.t" if a in (2, 3) else rng.choice(("m", "n"))

    def concl_payload(a, rng):
        return f"{rng.randint(1, 4)}.t" if a == 2 else rng.choice(("m", "n"))

    real, imag = play_instance(rule, prem, concl, seed, prem_payload, concl_payload)
    import itertools

    for xs in itertools.product(GRID, repeat=3):
        assert project_cell(real, 1, xs) == project_cell(imag, 1, xs)
        assert project_cell(real, 3, xs) == project_cell(imag, 4, xs)
        for w in (1, 2):
            assert project_prefix(project_cell(real, 2, xs), f"{2 * w - 1}.") == (
                project_prefix(project_cell(imag, 2, xs), f"{w}.")
            )
            assert project_prefix(project_cell(real, 2, xs), f"{2 * w}.") == (
                project_prefix(project_cell(imag, 3, xs), f"{w}.")
            )


def copy_renaming(real, imag, outer_key, inner_key):
    """The copies that one play numbered, read from its two runs: each
    move of the real run beside the same player's move at the same place in
    the imagined run (the plays it reads drop and absorb nothing), as
    `outer_key(cell)` -> `inner_key(cell)` for the cells that `outer_key`
    reads a key from.  Asserts that the renaming is injective both ways."""
    pairs = set()
    for player in (BOT, TOP):
        outer = [split_cell_move(lm.move) for lm in real if lm.player is player]
        inner = [split_cell_move(lm.move) for lm in imag if lm.player is player]
        assert len(outer) == len(inner)
        pairs |= {(outer_key(o), inner_key(i)) for o, i in zip(outer, inner) if outer_key(o) is not None}
    renaming = dict(pairs)
    assert len(renaming) == len(pairs) == len(set(renaming.values())), sorted(pairs)
    return renaming


def check_dup_over_identity(seed):
    # The two copies of the duplicated overgroup are one premise copy,
    # under a renaming that the play chose.
    prem, concl, rule = rule_case("dup_over")
    real, imag = play_instance(rule, prem, concl, seed)
    rho = copy_renaming(real, imag, lambda cell: cell[1], lambda cell: cell[1])
    for a in (1, 2):
        for x1 in GRID:
            for x2 in GRID:
                assert project_cell(real, a, (x1, x2)) == project_cell(
                    imag, a, rho.get((x1, x2), (0,))
                )
    prem2, concl2, rule2 = rule_case("dup_over_mid")
    real2, imag2 = play_instance(rule2, prem2, concl2, seed + 1)
    rho2 = copy_renaming(real2, imag2, lambda cell: cell[1][:2], lambda cell: cell[1][:1])
    for x1 in GRID:
        for x2 in GRID:
            for z in GRID:
                for a in (1, 2):
                    assert project_cell(real2, a, (x1, x2, z)) == project_cell(
                        imag2, a, rho2.get((x1, x2), (0,)) + (z,)
                    )


def check_merging_identity(seed):
    prem, concl, rule = rule_case("merging")
    real, imag = play_instance(rule, prem, concl, seed)
    for x in GRID:
        for z in GRID:
            assert project_cell(real, 1, (x,)) == project_cell(imag, 1, (x, z))
            assert project_cell(real, 2, (x,)) == project_cell(imag, 2, (z, x))
            assert project_cell(real, 3, (x,)) == project_cell(imag, 3, (z, x))
    # F is in both merged groups: its copy v is the premise's (v, v), and the
    # inner machine's moves off that diagonal stay in the imagined run.
    prem2, concl2, rule2 = rule_case("merging_mixed")
    real2, imag2 = play_instance(rule2, prem2, concl2, seed + 1)
    for y in GRID:
        for u in GRID:
            for v in GRID:
                assert project_cell(real2, 1, (y, u)) == project_cell(imag2, 1, (y, u, v))
                if u != v:
                    assert {lm.player for lm in project_cell(imag2, 2, (y, u, v))} <= {TOP}
            assert project_cell(real2, 2, (y, u)) == project_cell(imag2, 2, (y, u, u))


def check_or_identity(seed):
    prem, concl, rule = rule_case("or")

    def concl_payload(a, rng):
        return f"{rng.choice((1, 2))}.t" if a == 2 else rng.choice(("m", "n"))

    real, imag = play_instance(rule, prem, concl, seed, None, concl_payload)
    for x1 in GRID:
        for x2 in GRID:
            assert project_cell(real, 1, (x1, x2)) == project_cell(imag, 1, (x1, x2))
            cell = project_cell(real, 2, (x1, x2))
            assert project_prefix(cell, "1.") == project_cell(imag, 2, (x1, x2))
            assert project_prefix(cell, "2.") == project_cell(imag, 3, (x1, x2))


def check_pst_identity(seed):
    prem, concl, rule = rule_case("pst")

    def concl_payload(a, rng):
        return f"{rng.randint(1, 3)}.t" if a == 3 else rng.choice(("m", "n"))

    real, imag = play_instance(rule, prem, concl, seed, None, concl_payload)
    for x1 in GRID:
        for x2 in GRID:
            for b in (1, 2):
                for y in GRID:
                    assert project_cell(real, b, (x1, x2)) == project_cell(
                        imag, b, (x1, x2, y)
                    )
            for x in GRID:
                assert project_prefix(
                    project_cell(real, 3, (x1, x2)), f"{x}."
                ) == project_cell(imag, 3, (x1, x2, x))


def check_pcost_identity(seed):
    # A `?` copy is a premise copy in the added overgroup, under a renaming
    # that the play chose.
    prem, concl, rule = rule_case("pcost")

    def concl_payload(a, rng):
        return f"{rng.randint(1, 3)}.t" if a == 3 else rng.choice(("m", "n"))

    real, imag = play_instance(rule, prem, concl, seed, None, concl_payload)
    rho = copy_renaming(real, imag, lambda cell: cell[2].split(".")[0] if cell[0] == 3 else None,
                        lambda cell: cell[1][0])
    for x2 in GRID:
        for x3 in GRID:
            for u in GRID:
                for z in GRID:
                    assert project_prefix(
                        project_cell(real, 3, (z, x2, x3)), f"{u}."
                    ) == project_cell(imag, 3, (rho.get(str(u), 0), x2, x3))
            for b in (1, 2):
                assert project_cell(real, b, (x2, x3, 1)) == project_cell(
                    imag, b, (x2, x3, 1)
                )
    # With no added overgroup, the premise is one copy: the first that the
    # play used, in which every machine move leaves.
    prem2, concl2, rule2 = rule_case("pcost_plain")

    def concl_payload2(a, rng):
        return f"{rng.randint(1, 2)}.t"

    real2, imag2 = play_instance(rule2, prem2, concl2, seed + 1, None, concl_payload2)
    (w,) = {split_cell_move(lm.move)[2].split(".")[0] for lm in real2 if lm.player is TOP}
    for x in GRID:
        assert project_prefix(project_cell(real2, 1, (x,)), f"{w}.") == project_cell(
            imag2, 1, (x,)
        )


def check_formula_edge_identity(seed):
    # The formula edge plays copy 1 of the one-oformula clubsuit: the real
    # run is the copy-(1,) cell of the run inside the edge.
    rng = random.Random(seed)
    mach = interleave([(rng.randint(1, 2), (rng.randint(1, 3),), rng.choice(("m", "n")))
                       for _ in range(16)], rng)
    env = [rng.choice(("m", "n", "1.m")) for _ in range(8)]
    log = []
    strat = Pipeline(ScriptMachine(mach), (recording(FORMULA_EDGE, log),))
    real, imag = play_translated(strat, log, env, budget=80)
    assert len(real) >= 8
    assert real == project_cell(imag, 1, (1,))


IDENTITY_CHECKS = [
    ("exchange (oformulas)", check_exchange_oformulas_identity),
    ("exchange (overgroups)", check_exchange_overs_identity),
    ("contraction", check_contraction_identity),
    ("duplication", check_dup_over_identity),
    ("merging", check_merging_identity),
    ("or", check_or_identity),
    ("pst", check_pst_identity),
    ("pcost", check_pcost_identity),
    ("formula edge", check_formula_edge_identity),
]
