"""Machine strategies: the play loop and the simulator, the axiom mirror,
the pairing arithmetic, per-rule move translators, the translator pipeline,
and proof-to-strategy extraction."""
import random
import time
import zlib

import pytest

from cl15.cirquent import as_clubsuit, clubsuit
from cl15.cl15 import (
    Merging,
    OformulaExchange,
    OvergroupDuplication,
    OvergroupExchange,
    PcostIntro,
    UndergroupDuplication,
    UndergroupExchange,
    Weakening,
    parse_proof,
    verify_proof,
)
from cl15.formula import atoms, parse_formula
from cl15.games import PermissiveGame, interpret_cirquent, interpret_formula, parse_finite_game
from cl15.runs import BOT, TOP, Labmove, format_cell_move, split_cell_move, split_index_move
from cl15.harness import (
    ScriptMachine,
    random_adversary,
    random_finite_interpretation,
    scripted_adversary,
)
from cl15.strategy import (
    CIRQUENT_EDGE,
    FORMULA_EDGE,
    GRANT,
    IDLE,
    AxiomStrategy,
    GrantPermission,
    IdleStrategy,
    MachineStrategy,
    MakeMove,
    Pipeline,
    ProofViolation,
    PureGranter,
    ScriptEnv,
    SilentEnv,
    StrategyError,
    Translator,
    extract_solution,
    fold_positives,
    identity_translator,
    make_translator,
    pair,
    play,
    proof_goal,
    simulate,
    unfold_positives,
    unpair,
)

from conftest import (
    FIXTURES,
    IDENTITY_CHECKS,
    RULE_CASES,
    C,
    as_texts,
    generated_proof,
    long_structural_proof,
    read_fixture,
    recording,
    rule_case,
    transform_strategy,
)


def _game_P():
    return parse_finite_game("finitegame\n() => B\nT m => T")


# --- simulator -------------------------------------------------------------

def test_simulate_rejects_nonpositive_budget():
    with pytest.raises(StrategyError):
        simulate(IdleStrategy(), SilentEnv(), PermissiveGame(), 0)


def test_simulate_stops_on_idle_with_trace():
    res = simulate(IdleStrategy(), SilentEnv(), _game_P(), 10)
    assert res.steps == 1
    assert res.trace == ["1 M:idle"]
    assert res.winner is BOT  # empty run of P is lost
    assert res.first_illegality is None
    assert res.render_trace().endswith("winner: B grants:0")


def test_simulate_counts_grants_and_logs_env_moves():
    res = simulate(ScriptMachine(["m"]), SilentEnv(), _game_P(), 5)
    assert res.trace[0] == "1 M:move m"
    assert res.grants == 4 and res.steps == 5
    assert res.winner is TOP
    assert res.run == (Labmove(TOP, "m"),)


def test_simulate_flags_machine_offender():
    res = simulate(ScriptMachine(["zzz", "m"]), SilentEnv(), _game_P(), 5)
    assert res.first_illegality == "machine offender: move 'zzz' is illegal"
    assert res.winner is BOT
    assert res.steps == 1


def test_simulate_flags_environment_offender():
    res = simulate(PureGranter(), ScriptEnv(["zzz"]), _game_P(), 5)
    assert res.first_illegality == "environment offender: move 'zzz' is illegal"
    assert res.winner is TOP
    assert res.trace[-1] == "1 E:zzz"


def test_script_env_spawn_resets():
    env = ScriptEnv(["zzz"])
    first = simulate(PureGranter(), env, _game_P(), 5)
    second = simulate(PureGranter(), env, _game_P(), 5)
    assert first.run == second.run


# --- the play loop -------------------------------------------------------------

def _events(machine, env, budget=5, game=None):
    position = (game or PermissiveGame()).start()
    return list(play(machine, env, position, budget)), position.offender


def test_play_yields_one_event_per_step_up_to_the_budget():
    events, offender = _events(PureGranter(), ScriptEnv(["a"]), budget=3)
    assert events == [(1, GRANT, Labmove(BOT, "a")), (2, GRANT, None), (3, GRANT, None)]
    assert offender is None


@pytest.mark.parametrize("machine, env, offender", [
    (ScriptMachine(["zzz", "m"]), SilentEnv(), TOP),
    (ScriptMachine([None, "m"]), ScriptEnv(["zzz", "n"]), BOT),
])
def test_play_stops_after_the_first_illegal_labmove(machine, env, offender):
    events, who = _events(machine, env, game=_game_P())
    assert [lm for _, _, lm in events] == [Labmove(offender, "zzz")]
    assert who is offender


def test_play_stops_at_an_idle():
    events, _ = _events(_LoggingScript(["m", "idle", "n"], []), SilentEnv())
    assert events == [(1, MakeMove("m"), Labmove(TOP, "m")), (2, IDLE, None)]


def test_play_shows_both_players_one_growing_run():
    seen, watched = [], []

    class Machine(ScriptMachine):
        def next(self, run, step):
            seen.append(run)
            return super().next(run, step)

    class Env(ScriptEnv):
        def watch(self, position):
            watched.append(position)

        def on_grant(self, run):
            seen.append(run)
            return super().on_grant(run)

    position = PermissiveGame().start()
    events = list(play(Machine(["m", None, "n"]), Env(["e"]), position, 4))
    assert len(seen) == 6 and all(run is seen[0] for run in seen)
    assert seen[0] == [lm for _, _, lm in events if lm is not None]
    # The environment reads the referee's position, not a copy.
    assert len(watched) == 1 and watched[0] is position


# --- axiom strategy ---------------------------------------------------------

def _feed(strategy, env_moves):
    """Push environment moves one per grant; collect the machine's answers."""
    events = play(strategy.spawn(), ScriptEnv(env_moves), PermissiveGame().start(), 39)
    return [action.move for _, action, _ in events if isinstance(action, MakeMove)]


def _mirror(n):
    """The axiom strategy behind the cirquent edge, which splits and formats."""
    return Pipeline(AxiomStrategy(n), (CIRQUENT_EDGE,))


def test_axiom_strategy_mirrors_between_partners():
    assert _feed(_mirror(1), ["1;2.m"]) == ["2;2.m"]
    assert _feed(_mirror(2), ["4;1,1.m"]) == ["3;1,1.m"]
    assert _feed(_mirror(2), ["1;5.a", "2;6.b"]) == ["2;5.a", "1;6.b"]


def test_axiom_strategy_ignores_noise():
    assert _feed(_mirror(1), ["5;1.m"]) == []  # out-of-range cell
    assert _feed(_mirror(1), ["hello"]) == []  # not a cell move: dropped at the edge
    strat = AxiomStrategy(1).spawn()
    # TOP moves in the run are not mirrored.
    action = strat.next((Labmove(TOP, (1, (2,), "m")),), 1)
    assert action.__class__.__name__ == "GrantPermission"


def test_axiom_strategy_requires_positive_n():
    with pytest.raises(StrategyError):
        AxiomStrategy(0)


def test_axiom_strategy_answers_a_cell_move_with_a_cell_move():
    strat = AxiomStrategy(2).spawn()
    assert strat.next((Labmove(BOT, (4, (1, 1), "m")),), 1) == MakeMove((3, (1, 1), "m"))


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_pipeline_hands_the_base_cell_moves(layers):
    runs = []

    class Recording(AxiomStrategy):
        def spawn(self):
            return Recording(self.n)

        def next(self, run, step):
            runs.append(tuple(run))
            return super().next(run, step)

    imagined = []
    strat = _recorded(Recording(1), (identity_translator("id"),) * layers, imagined).spawn()
    assert strat.next((Labmove(BOT, "1;1.m"),), 1) == MakeMove("2;1.m")
    assert runs[0] == (Labmove(BOT, (1, (1,), "m")),)
    assert as_texts(imagined) == (Labmove(BOT, "1;1.m"), Labmove(TOP, "2;1.m"))


# --- pairing arithmetic ------------------------------------------------------

def test_pair_verbatim_values():
    assert pair(1, 1) == 1
    assert pair(1, 2) == 2
    assert pair(2, 1) == 3
    assert fold_positives(()) == 1
    assert unfold_positives(1, 0) == ()
    assert unfold_positives(2, 0) is None


def test_pair_unpair_roundtrip():
    seen = set()
    for v in range(1, 60):
        u1, u2 = unpair(v)
        assert u1 >= 1 and u2 >= 1
        assert pair(u1, u2) == v
        seen.add((u1, u2))
    assert len(seen) == 59


def test_unpair_inverts_pair_on_small_and_huge_values():
    for v in range(1, 10**5 + 1):
        assert pair(*unpair(v)) == v
    rng = random.Random(7)
    for _ in range(2000):
        v = rng.randint(1, 10**18)
        u1, u2 = unpair(v)
        assert u1 >= 1 and u2 >= 1
        assert pair(u1, u2) == v


def test_fold_unfold_roundtrip():
    for us in [(1,), (3,), (1, 2), (2, 1), (5, 4, 3), (1, 1, 1, 1)]:
        v = fold_positives(us)
        assert unfold_positives(v, len(us)) == us


# --- translators -------------------------------------------------------------

def test_pcost_translator_folds_added_overgroup_coordinates():
    p2 = parse_proof(read_fixture("p2.proof"))
    step = p2.steps[2]
    assert step.rule == PcostIntro(1, frozenset({2}))
    tr = make_translator(step.rule, p2.steps[1].cirquent, step.cirquent)
    assert tr.outer_to_inner((1, (1, 0), "7.m")) == (1, (1, 7), "m")
    assert tr.outer_to_inner((1, (1, 0), "x.m")) is None
    assert tr.inner_to_outer((1, (1, 7), "m")) == (1, (1, 0), "7.m")


STRUCTURAL_RULES = (OformulaExchange, UndergroupExchange, OvergroupExchange,
                    UndergroupDuplication, OvergroupDuplication, Merging, Weakening)


@pytest.mark.parametrize("name", [case[0] for case in RULE_CASES if case[1] is not None])
def test_structural_translators_map_addresses_only(name):
    # A structural translator keeps every payload, and it maps, drops or
    # absorbs a move by its address alone.
    premise, conclusion, rule = rule_case(name)
    tr = make_translator(rule, premise, conclusion)
    assert tr.structural is isinstance(rule, STRUCTURAL_RULES)
    rng = random.Random(name)
    for _ in range(200):
        address = rng.randint(1, 4), tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
        for move_map in (tr.outer_to_inner, tr.inner_to_outer):
            images = {payload: move_map((*address, payload)) for payload in ("m", "1.m", "2.3.x")}
            if tr.structural:
                assert len({None if cell is None else cell[:2] for cell in images.values()}) == 1
                assert all(cell is None or cell[2] == p for p, cell in images.items())


def test_declubsuit_reference_translator_verbatim():
    tr = _DECLUBSUIT
    assert tr.outer_to_inner("7.m") == "1;7.m"
    assert tr.outer_to_inner("m") is None
    assert tr.inner_to_outer("1;7.m") == "7.m"
    assert tr.inner_to_outer("1;0.m") is None
    assert tr.inner_to_outer("2;7.m") is None


def test_depst_reference_translator_verbatim():
    tr = _DEPST
    assert tr.outer_to_inner("m") == "1.m"
    assert tr.inner_to_outer("1.m") == "m"
    assert tr.inner_to_outer("2.m") is None
    assert tr.inner_to_outer("m") is None


@pytest.mark.parametrize("label", [label for label, _ in IDENTITY_CHECKS])
def test_run_correspondence_identity(label):
    check = dict(IDENTITY_CHECKS)[label]
    for seed in range(3):
        check(seed)


# --- translator pipeline ---------------------------------------------------------

def test_formula_edge_enters_and_leaves_copy_1_only():
    log = []
    script = [(2, (1,), "a"), (1, (2,), "b"), (1, (0,), "c"), (1, (1,), "d")]
    strat = Pipeline(_LoggingScript(script, log), (FORMULA_EDGE,)).spawn()
    assert strat.next((Labmove(BOT, "7.m"),), 1) == MakeMove("d")
    assert [run for run, _ in log] == [(Labmove(BOT, (1, (1,), "7.m")),) + tuple(
        Labmove(TOP, cell) for cell in script[:k]) for k in range(4)]


def test_absorbed_moves_are_asked_in_one_turn_until_the_base_grants():
    # The formula edge absorbs every machine move outside copy 1.
    machine = ScriptMachine([(1, (2,), f"m{k}") for k in range(100)])
    imagined = []
    strat = Pipeline(machine, (recording(FORMULA_EDGE, imagined),)).spawn()
    assert strat.next((), 1) == GRANT
    assert len(imagined) == 100
    assert all(lm.player is TOP for lm in imagined)


class _NestedReference(MachineStrategy):
    """One translator around an inner strategy, recursing into it: the
    semantics the flat pipeline must keep."""

    def __init__(self, inner, translator):
        self.inner_template = inner
        self.translator = translator
        self._inner = inner.spawn()
        self._imagined = []
        self._cursor = 0
        self._inner_step = 0

    def spawn(self):
        return _NestedReference(self.inner_template, self.translator)

    @property
    def imagined_run(self):
        return tuple(self._imagined)

    def next(self, run, step):
        for lm in run[self._cursor:]:
            if lm.player is BOT:
                inner_move = self.translator.outer_to_inner(lm.move)
                if inner_move is not None:
                    self._imagined.append(Labmove(BOT, inner_move))
        self._cursor = len(run)
        while True:
            self._inner_step += 1
            action = self._inner.next(tuple(self._imagined), self._inner_step)
            if isinstance(action, MakeMove):
                self._imagined.append(Labmove(TOP, action.move))
                outer = self.translator.inner_to_outer(action.move)
                if outer is not None:
                    return MakeMove(outer)
                continue
            if isinstance(action, GrantPermission):
                return GRANT
            return IDLE


class _LoggingScript(MachineStrategy):
    """Plays a script of moves, grants (None) and one final idle ("idle"),
    and logs every run and step it is shown."""

    def __init__(self, script, log):
        self.script, self.log, self._i = tuple(script), log, 0

    def spawn(self):
        return _LoggingScript(self.script, self.log)

    def next(self, run, step):
        self.log.append((tuple(run), step))
        if self._i >= len(self.script):
            return GRANT
        entry = self.script[self._i]
        self._i += 1
        if entry == "idle":
            return IDLE
        return GRANT if entry is None else MakeMove(entry)


def _hashing_translator(k, drop_in, drop_out):
    """Rewrites a cell move's payload, dropping or absorbing the move by a
    hash of its text."""

    def hit(cell, modulus):
        return modulus and zlib.crc32(f"{k}/{format_cell_move(*cell)}".encode()) % modulus == 0

    def outer_to_inner(cell):
        a, coords, rest = cell
        return None if hit(cell, drop_in) else (a, coords, f"{rest}<{k}")

    def inner_to_outer(cell):
        a, coords, rest = cell
        return None if hit(cell, drop_out) else (a, coords, rest[:12] + f">{k}")

    return Translator(f"hash{k}", outer_to_inner, inner_to_outer)


# Texts outside, split cell moves inside.  As the outermost nested layer it
# is the cirquent edge; around a cell-form base it lets a text chain drive
# that base.
_CELLS = Translator("cells", split_cell_move, lambda cell: format_cell_move(*cell))


class _TextEdge(_NestedReference):
    """The cirquent edge as the outermost nested layer.  Its imagined run is
    the one inside the outermost translator, as texts, as a pipeline's is."""

    def __init__(self, inner):
        super().__init__(inner, _CELLS)

    def spawn(self):
        return _TextEdge(self.inner_template)

    @property
    def imagined_run(self):
        return tuple(Labmove(lm.player, format_cell_move(*lm.move))
                     for lm in self._inner.imagined_run)


def _recorded(base, translators, log, edge=CIRQUENT_EDGE):
    """`base` through `translators` and the edge, recording into `log` the
    imagined run inside the outermost translator, or with none inside the
    edge: the run a nested reference keeps."""
    chain = (*translators, edge)
    k = max(len(translators) - 1, 0)
    return Pipeline(base, chain[:k] + (recording(chain[k], log),) + chain[k + 1:])


def _drive(strategy, env_moves, budget, unwrap=0, log=None):
    """The actions of a play against scripted environment moves, and the
    imagined run: the one recorded into `log`, as texts, or else that of
    the strategy played, `unwrap` nested layers in."""
    m = strategy.spawn()
    events = play(m, ScriptEnv(env_moves), PermissiveGame().start(), budget)
    actions = [action for _, action, _ in events]
    if log is not None:
        return actions, as_texts(log)
    for _ in range(unwrap):
        m = m._inner
    return actions, m.imagined_run


@pytest.mark.parametrize("seed", range(40))
def test_pipeline_matches_nested_translation(seed):
    rng = random.Random(seed)
    layers = rng.randint(1, 6)
    translators = [
        _hashing_translator(k, rng.choice((0, 2, 4)), rng.choice((0, 2, 3, 60)))
        for k in range(layers)
    ]
    script = [rng.choice((None, "idle", (1, (), f"m{i}"))) if rng.random() < 0.2
              else (1, (), f"m{i}") for i in range(rng.randint(0, 300))]
    env = [f"1;{i}.e" for i in range(rng.randint(0, 20))]
    flat_log, nested_log, imagined = [], [], []
    flat = _recorded(_LoggingScript(script, flat_log), tuple(translators), imagined)
    nested = _LoggingScript(script, nested_log)
    for tr in translators:
        nested = _NestedReference(nested, tr)
    assert _drive(flat, env, 80, log=imagined) == _drive(_TextEdge(nested), env, 80)
    assert flat_log == nested_log


@pytest.mark.parametrize("drop_out", [(2, 1), (1, 2), (2, 2, 1), (2, 1, 2), (2, 2, 2, 1)])
@pytest.mark.parametrize("seed", range(2))
def test_pipeline_matches_nested_absorptions_across_layers(drop_out, seed):
    # A layer with drop_out 1 absorbs every move that reaches it; the others
    # absorb about half the moves.  The script repeats each move for a block
    # of turns.  It opens with 40 moves that layer 0 absorbs, 10 that pass
    # it, and 70 more that layer 0 absorbs.  Then the two alternate.
    rng = random.Random(seed)
    translators = [_hashing_translator(k, 2, modulus) for k, modulus in enumerate(drop_out)]
    pool = [(1, (), f"m{j}") for j in range(8)]
    absorbed = [cell for cell in pool if translators[0].inner_to_outer(cell) is None]
    passed = [cell for cell in pool if cell not in absorbed] or absorbed
    script = [absorbed[0]] * 40 + [passed[0]] * 10 + [absorbed[0]] * 70
    script += [passed[0], absorbed[0]] * 70
    while len(script) < 300:
        cell = rng.choice([None] + pool)
        script += [cell] * rng.randint(1, 90)
    script = script[:300]
    env = [f"1;{i}.e" for i in range(30)]
    flat_log, nested_log, imagined = [], [], []
    flat = _recorded(_LoggingScript(script, flat_log), tuple(translators), imagined)
    nested = _LoggingScript(script, nested_log)
    for tr in translators:
        nested = _NestedReference(nested, tr)
    assert _drive(flat, env, 200, log=imagined) == _drive(_TextEdge(nested), env, 200)
    assert flat_log == nested_log


@pytest.mark.parametrize("absorbed", [64, 640])
def test_a_fused_run_lets_the_last_cell_out_in_turn_1(absorbed):
    # dup_over@1, dup_over@3 and an identity fuse into one layer, which
    # the recorded edge leaves alone.  dup_over@1 absorbs a
    # cell without coordinates, dup_over@3 one whose single coordinate
    # unpairs to two.  However many cells the fused layer absorbs, the
    # base is asked again in the same turn, until the last cell leaves.
    translators = (make_translator(OvergroupDuplication(1), None, None),
                   make_translator(OvergroupDuplication(3), None, None),
                   identity_translator("outer"))
    script = [(1, (), f"a{k}") for k in range(absorbed)] + [(1, (5,), "b")]
    script += [(1, (), f"c{k}") for k in range(absorbed)] + [(1, (1, 1), "d")]
    log = []
    flat = Pipeline(ScriptMachine(script), translators + (recording(CIRQUENT_EDGE, log),))
    assert len(flat._outward) == 2
    nested = ScriptMachine(script)
    for tr in translators:
        nested = _NestedReference(nested, tr)
    actions, imagined = _drive(flat, [], 3, log=log)
    assert (actions, imagined) == _drive(_TextEdge(nested), [], 3)
    leave = MakeMove("1;1,1,1,1.d")
    assert actions == [leave, GRANT, GRANT]
    assert imagined == (Labmove(TOP, "1;1,1,1,1.d"),)


def test_grant_only_turns_cost_no_layer_walk():
    class Recorder(PureGranter):
        runs = []

        def spawn(self):
            return Recorder()

        def next(self, run, step):
            Recorder.runs.append(tuple(run))
            return GRANT

    strat = Pipeline(Recorder(), (identity_translator("id"),) * 5000 + (CIRQUENT_EDGE,)).spawn()
    start = time.perf_counter()
    actions = [strat.next((), step) for step in range(1, 2001)]
    elapsed = time.perf_counter() - start
    assert actions == [GRANT] * 2000
    assert elapsed < 1.0
    assert strat.next((Labmove(BOT, "1;1.m"),), 2001) == GRANT
    assert Recorder.runs[-1] == (Labmove(BOT, (1, (1,), "m")),)


# --- the pipeline against the text chain ------------------------------------------

def _text_form(tr):
    """The translator as a text layer: its cell map lifted to texts by
    splitting the move, mapping it and formatting the result, with None for
    a move that is not a cell move."""

    def lift(fn):
        def move_map(move):
            split = split_cell_move(move)
            if split is None:
                return None
            cell = fn(split)
            return None if cell is None else format_cell_move(*cell)

        return move_map

    return Translator(tr.name, lift(tr.outer_to_inner), lift(tr.inner_to_outer))


# The formula level as two text layers outside the rule layers: declubsuit
# between the one-oformula cirquent game (inner) and the parallel-recurrence
# game over its formula (outer), where outer `u.rest` is inner `1;u.rest`;
# and depst between that and the bare formula game, which pins copy 1 and
# keeps inner moves in other copies imaginary.

def _declubsuit_in(move):
    payload = split_index_move(move)
    return None if payload is None else format_cell_move(1, (payload[0],), payload[1])


def _declubsuit_out(move):
    split = split_cell_move(move)
    if split is None:
        return None
    a, coords, rest = split
    if a != 1 or len(coords) != 1 or coords[0] < 1:
        return None
    return f"{coords[0]}.{rest}"


def _depst_out(move):
    payload = split_index_move(move)
    return payload[1] if payload is not None and payload[0] == 1 else None


_DECLUBSUIT = Translator("declubsuit", _declubsuit_in, _declubsuit_out)
_DEPST = Translator("depst", lambda move: f"1.{move}", _depst_out)


def _nested_text_chain(base, translators, formula_level=False):
    """A cell-form base driven through the text chain: each translator in
    text form, nested, and at the formula level declubsuit and depst."""
    base = _NestedReference(base, _CELLS)
    for tr in translators:
        base = _NestedReference(base, _text_form(tr))
    if formula_level:
        base = _NestedReference(_NestedReference(base, _DECLUBSUIT), _DEPST)
    return base


MALFORMED = ("0;1.m", "3;01.m", "3;1.", "m", "1;.", ";1.m", "2;1,x.m", "1;1", "1;1,.m")


def _random_move(rng):
    """A cell move with coordinates 0-4 and copy indices 1-3 in its payload,
    a formula-level move with copy indices 1-3, or a malformed text."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(MALFORMED)
    payload = rng.choice(("m", "n", "{}.m", "{}.{}.m", "{}.{}.{}.m")).format(
        *(rng.randint(1, 3) for _ in range(3)))
    if roll < 0.3:
        return payload if "." in payload else f"{rng.randint(1, 3)}.{payload}"
    coords = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
    return format_cell_move(rng.randint(1, 4), coords, payload)


# p1 and p2 at both levels, and "long", `long_structural_proof(1)`, whose
# final cirquent is not a clubsuit, at cirquent level only.
EXTRACTED_CASES = [(seed, formula_level, name) for name in ("p1", "p2")
                   for formula_level in (False, True) for seed in range(5)]
EXTRACTED_CASES += [(seed, False, "long") for seed in range(5)]


@pytest.mark.parametrize("seed, formula_level, name", EXTRACTED_CASES)
def test_extracted_cell_pipeline_matches_text_chain(name, formula_level, seed):
    rng = random.Random(seed)
    if name == "long":
        proof = long_structural_proof(1)
        assert verify_proof(proof) is None
    else:
        proof = parse_proof(read_fixture(f"{name}.proof"))
    strat = extract_solution(proof, formula_level=formula_level)
    env = [_random_move(rng) for _ in range(40)]
    if formula_level:
        env += [f"{rng.randint(1, 3)}.{rng.randint(1, 3)}.m" for _ in range(20)]
    elif name == "long":
        # Every rule translator in one fused layer, then the edge.  Two
        # overgroups: addresses repeat, so the fused layer's memos hit.
        assert len(strat._outward) == 2
        env += [f"{rng.randint(1, 2)};{rng.randint(1, 3)},{rng.randint(1, 3)}.m"
                for _ in range(20)]
    else:
        env += [f"1;{rng.randint(1, 3)}.{rng.randint(1, 3)}.{rng.randint(1, 3)}.m"
                for _ in range(20)]
    rng.shuffle(env)
    *rule_translators, edge = strat.translators
    assert edge is (FORMULA_EDGE if formula_level else CIRQUENT_EDGE)
    reference = _nested_text_chain(strat.base, rule_translators, formula_level)
    # At the formula level the imagined run is the one inside the outermost
    # rule layer, two text layers inside the reference's.
    actions, imagined = _drive(reference, env, 150, 2 * formula_level)
    # The production pipeline plays the reference's actions, and a copy whose
    # outermost rule translator records shows its imagined run too.
    assert _drive(strat, env, 150, log=[])[0] == actions
    log = []
    recorded = _recorded(strat.base, rule_translators, log, edge)
    assert _drive(recorded, env, 150, log=log) == (actions, imagined)


def _random_chain(rng):
    """1-6 layers drawn from the rule cases' translators, now and then
    with an identity or a hashing layer between them."""
    cases = [case for case in RULE_CASES if case[1] is not None]
    chain = []
    for k in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.1:
            chain.append(identity_translator(f"id{k}"))
        elif roll < 0.2:
            chain.append(_hashing_translator(k, rng.choice((0, 4)), rng.choice((0, 3))))
        else:
            _, prem, concl, rule = rng.choice(cases)
            chain.append(make_translator(rule, C(prem), C(concl)))
    return chain


@pytest.mark.parametrize("seed", range(40))
def test_random_cell_chains_match_text_chain(seed):
    rng = random.Random(seed)
    translators = _random_chain(rng)
    # A cell-form base makes only cell moves: a drawn text that is not one
    # is left out of the script.
    script = []
    for _ in range(rng.randint(0, 200)):
        if rng.random() < 0.1:
            script.append(rng.choice((None,) * 9 + ("idle",)))
        elif (cell := split_cell_move(_random_move(rng))) is not None:
            script.append(cell)
    env = [_random_move(rng) for _ in range(rng.randint(0, 40))]
    flat_log, nested_log, imagined = [], [], []
    flat = _recorded(_LoggingScript(script, flat_log), tuple(translators), imagined)
    nested = _nested_text_chain(_LoggingScript(script, nested_log), translators)
    assert _drive(flat, env, 120, log=imagined) == _drive(nested, env, 120)
    assert flat_log == nested_log


# --- extraction ---------------------------------------------------------------

def test_transform_strategy_requires_a_checking_application():
    premise, conclusion, rule = rule_case("or")
    with pytest.raises(StrategyError, match="rule application does not check"):
        transform_strategy(rule, conclusion, premise, IdleStrategy())


def test_extract_solution_rejects_broken_proof():
    proof = parse_proof(read_fixture("p1-broken.proof"))
    with pytest.raises(StrategyError, match="step 2"):
        extract_solution(proof)


def test_extract_solution_reports_the_violation():
    proof = parse_proof(read_fixture("p1-broken.proof"))
    with pytest.raises(ProofViolation) as info:
        extract_solution(proof)
    assert info.value.step == 2
    assert info.value.violation.reason == "premise does not split the disjunction as required"
    assert str(info.value) == (
        "proof does not verify at step 2: premise does not split the disjunction as required"
    )


def test_extract_solution_formula_level_needs_clubsuit_final():
    proof = parse_proof(read_fixture("p1.proof"))
    truncated = proof.__class__(proof.steps[:1])
    with pytest.raises(StrategyError, match="clubsuit"):
        extract_solution(truncated, formula_level=True)


def test_p1_cirquent_level_copycat():
    proof = parse_proof(read_fixture("p1.proof"))
    strat = extract_solution(proof)
    game = interpret_cirquent(proof.steps[-1].cirquent, {"P": _game_P()})
    res = simulate(strat, ScriptEnv(["1;1.1.m"]), game, 30)
    assert Labmove(TOP, "1;1.2.m") in res.run
    assert res.winner is TOP
    assert res.first_illegality is None


def test_axiom_only_proof_extracts_the_mirror():
    proof = parse_proof(read_fixture("p1.proof"))
    axiom_only = proof.__class__(proof.steps[:1])
    assert _feed(extract_solution(axiom_only), ["1;1.m", "2;3.n"]) == ["2;1.m", "1;3.n"]


def test_p1_formula_level_copycat():
    proof = parse_proof(read_fixture("p1.proof"))
    strat = extract_solution(proof, formula_level=True)
    goal = parse_formula("~P \\/ P")
    assert clubsuit(goal) == proof.steps[-1].cirquent
    game = interpret_formula(goal, {"P": _game_P()})
    res = simulate(strat, ScriptEnv(["1.m"]), game, 30)
    assert Labmove(TOP, "2.m") in res.run
    assert res.winner is TOP
    assert res.first_illegality is None


def test_p2_formula_level_wins_against_scripts():
    proof = parse_proof(read_fixture("p2.proof"))
    strat = extract_solution(proof, formula_level=True)
    game = interpret_formula(parse_formula("?~P \\/ !P"), {"P": _game_P()})
    for script in ([], ["1.1.m"], ["1.1.m", "1.2.m"]):
        res = simulate(strat, ScriptEnv(list(script)), game, 60)
        assert res.winner is TOP, script
        assert res.first_illegality is None


# --- the mirror's bound -----------------------------------------------------------

class _CountingBase(MachineStrategy):
    """A strategy that logs the step of each time it is asked."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log
        self._inner = inner.spawn()

    def spawn(self):
        return _CountingBase(self.inner, self.log)

    def next(self, run, step):
        self.log.append(step)
        return self._inner.next(run, step)


def _bound_proof(name):
    if name == "long":
        return long_structural_proof(1)
    if name.startswith("generated"):
        seed = int(name[len("generated"):])
        return generated_proof(seed)
    return parse_proof(read_fixture(f"{name}.proof"))


BOUND_PROOFS = [path.stem for path in sorted(FIXTURES.glob("*.proof"))
                if verify_proof(parse_proof(path.read_text())) is None]
BOUND_PROOFS += ["long"] + [f"generated{seed}" for seed in range(3)]


@pytest.mark.parametrize("name", BOUND_PROOFS)
def test_an_extracted_pipeline_asks_the_mirror_at_most_twice_a_turn(name):
    # The mirror makes one answer per environment move that reaches it, and
    # the environment moves at most once between two turns.
    proof = _bound_proof(name)
    last = proof.steps[-1].cirquent
    names = sorted(set().union(*map(atoms, last.oformulas)))
    env_moves = 0
    levels = (False, True) if as_clubsuit(last) is not None else (False,)
    for formula_level in levels:
        strat = extract_solution(proof, formula_level=formula_level)
        goal, _ = proof_goal(proof, formula_level)
        interpret = interpret_formula if formula_level else interpret_cirquent
        for seed in range(6):
            game = interpret(goal, random_finite_interpretation(names, 2, 2, seed))
            if seed % 2:
                adversary = random_adversary(seed)
            else:
                adversary = scripted_adversary(
                    tuple(random.Random(seed).randrange(7) for _ in range(24)))
            log = []
            machine = Pipeline(_CountingBase(strat.base, log), strat.translators)
            asked = 0
            for _, _, lm in play(machine.spawn(), adversary.spawn(), game.start(), 200):
                assert 1 <= len(log) - asked <= 2
                asked = len(log)
                env_moves += lm is not None and lm.player is BOT
    assert env_moves > 0
