"""Incremental game positions against the brute-force oracle in
`cl15.harness` and the projection-based reference in `reference_games`,
on random legal runs and random offender runs; the moves
`Position.moves` lists, against replays of structure-shaped candidates;
and the adversary transcripts that those lists decide."""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cl15.cirquent import Cirquent
from cl15.cli import main
from cl15.formula import And, AtomRef, Cost, NegAtom, Or, Pcost, Pst, St, render_formula
from cl15.games import (
    EnumerationGame,
    GameError,
    interpret_cirquent,
    interpret_formula,
    parse_finite_game,
)
from cl15.harness import (
    brute_force_legal,
    brute_force_winner,
    random_finite_interpretation,
)
from cl15.runs import (
    BOT,
    TOP,
    InfiniteBitstring,
    Labmove,
    format_cell_move,
    project_branch,
    project_cell,
    project_prefix,
    split_cell_move,
)

from conftest import C, FIXTURES, PermissiveGame, make_cirquent, move_builder, rng_chooser
from reference_games import (
    reference_legal,
    reference_offender,
    reference_winner,
    reference_won_legal,
)

ATOMS = ("P", "Q")
JUNK = ("x", "0", "3.1", "01.1", "9.9.9.9", ";", "1;;.m", "2;0,0.1", "1;1.1")

literals = st.builds(AtomRef, st.sampled_from(ATOMS)) | st.builds(
    NegAtom, st.sampled_from(ATOMS)
)
formulas = st.recursive(
    literals,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Pst, inner),
        st.builds(Pcost, inner),
        st.builds(St, inner),
        st.builds(Cost, inner),
    ),
    max_leaves=3,
)


@st.composite
def cirquents(draw) -> Cirquent:
    """A valid cirquent of 1-3 oformulas, 1-2 undergroups, 1-3 overgroups."""
    size = draw(st.integers(1, 3))
    oformulas = draw(st.lists(formulas, min_size=size, max_size=size))

    def groups(count: int) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(count)]
        for a in range(1, size + 1):
            out[draw(st.integers(0, count - 1))].add(a)
        for g in out:
            g |= draw(st.sets(st.integers(1, size), min_size=0 if g else 1, max_size=size))
        return out

    return make_cirquent(
        oformulas,
        groups(draw(st.integers(1, 2))),
        groups(draw(st.integers(1, 3))),
    )


@st.composite
def plays(draw, subjects, offending: bool):
    """A subject, an interpretation, its game and a run.  The run is legal,
    built from structure-shaped moves that keep it legal; with `offending`
    it continues with an illegal labmove and a few more moves after it.
    The positions under test pick the moves; the checks then catch a move
    they accept wrongly (on legal runs) or reject wrongly (on offender
    runs)."""
    subject = draw(subjects)
    interp = random_finite_interpretation(ATOMS, 2, 2, draw(st.integers(0, 10_000)))
    if isinstance(subject, Cirquent):
        game = interpret_cirquent(subject, interp)
    else:
        game = interpret_formula(subject, interp)
    rng = draw(st.randoms(use_true_random=False))
    build = move_builder(subject, interp)

    def labmove(move: str) -> Labmove:
        return Labmove(TOP if rng.random() < 0.5 else BOT, move)

    run: tuple[Labmove, ...] = ()
    for _ in range(draw(st.integers(2, 8))):
        for _ in range(12):
            lm = labmove(build(rng_chooser(rng)))
            if game.legal(run + (lm,)):
                run += (lm,)
                break
    if offending:
        for _ in range(12):
            lm = labmove(rng.choice(JUNK) if rng.random() < 0.3 else build(rng_chooser(rng)))
            if not game.legal(run + (lm,)):
                run += (lm,)
                break
        run += tuple(labmove(build(rng_chooser(rng))) for _ in range(rng.randint(0, 3)))
    return subject, interp, game, run


def _check_against_reference(game, run):
    """Every prefix's verdict, the offender and the winner, as positions
    give them, equal the reference's."""
    offender = reference_offender(game, run)
    pos = game.start()
    still_legal = True
    for i, lm in enumerate(run, start=1):
        still_legal = still_legal and reference_legal(game, run[:i])
        assert pos.extend(lm) == still_legal
        assert pos.offender == (None if still_legal else offender)
    assert pos.winner() is reference_winner(game, run)
    assert game.legal(run) == (offender is None) == reference_legal(game, run)
    assert game.offender(run) == offender
    assert game.winner(run) is pos.winner()


def _check_against_oracle(subject, interp, game, run):
    assert game.legal(run) == brute_force_legal(subject, interp, run)
    assert game.winner(run) is brute_force_winner(subject, interp, run)


@given(plays(formulas, offending=False))
def test_formula_positions_agree_on_legal_runs(case):
    subject, interp, game, run = case
    assert game.legal(run)
    _check_against_reference(game, run)
    _check_against_oracle(subject, interp, game, run)


@given(plays(formulas, offending=True))
def test_formula_positions_agree_on_offender_runs(case):
    subject, interp, game, run = case
    assert game.offender(run) is not None
    _check_against_reference(game, run)
    _check_against_oracle(subject, interp, game, run)


@given(plays(cirquents(), offending=False))
def test_cirquent_positions_agree_on_legal_runs(case):
    subject, interp, game, run = case
    assert game.legal(run)
    _check_against_reference(game, run)
    _check_against_oracle(subject, interp, game, run)


@given(plays(cirquents(), offending=True))
def test_cirquent_positions_agree_on_offender_runs(case):
    subject, interp, game, run = case
    assert game.offender(run) is not None
    _check_against_reference(game, run)
    _check_against_oracle(subject, interp, game, run)


def test_six_copies_of_an_overgroup_agree_with_reference():
    # `~P | P` with six copies of overgroup {1,2}: a 12-move legal run over
    # coordinates 1 and 2 gives the reference 3**6 coordinate vectors.  P
    # lets the machine win a cell only if its run there has even length.
    c = C("oformulas: ~P | P ; under: {1,2} ; over: " + "{1,2}" * 6)
    game = interpret_cirquent(c, {"P": EnumerationGame(lambda run: len(run) % 2 == 1)})
    vectors = [(1,) * 6, (2,) * 6, (1, 2) * 3, (2, 1) * 3, (1, 1, 1, 2, 2, 2), (2, 2, 1, 1, 2, 1)]
    run = tuple(
        Labmove(BOT if a == 2 else TOP, format_cell_move(a, xs, str(k)))
        for k, xs in enumerate(vectors, start=1)
        for a in (2, 1)
    )
    assert len(run) == 12
    pos = game.start()
    assert all(pos.extend(lm) for lm in run)
    assert reference_legal(game, run)
    assert pos.winner() is reference_won_legal(game, run) is TOP
    cut = run[:-1]
    assert game.winner(cut) is reference_won_legal(game, cut) is BOT
    stray = cut + (Labmove(TOP, format_cell_move(1, (1, 2, 1, 2, 1, 0), "1")),)
    assert not reference_legal(game, stray)
    assert game.offender(stray) is TOP and game.winner(stray) is BOT


def test_long_cirquent_play_is_linear():
    # 400 labmoves over 3 overgroups and 20 cells; the reference would take
    # minutes, the positions take well under a second.
    c = C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}{1,2}")
    game = interpret_cirquent(c, {"P": EnumerationGame(lambda run: False)})
    run = tuple(
        Labmove(BOT if a == 2 else TOP, format_cell_move(a, (k % 5 + 1, k % 4 + 1, 1), "7"))
        for k in range(200)
        for a in (2, 1)
    )
    start = time.perf_counter()
    assert game.legal(run)
    assert game.winner(run) is TOP
    assert time.perf_counter() - start < 2.0


P, Q = AtomRef("P"), AtomRef("Q")


# Listed moves.  Every move a position lists must keep the run legal, and
# every legal candidate must be listed when its values are ones the list
# covers.

def _fresh(used: set[int]) -> set[int]:
    return used | {max(used, default=0) + 1}


def _within_bound(subject, run, move: str) -> bool:
    """Is every value in `move`, a legal move after the legal `run`, one
    that a list covers: a copy or coordinate used there or the largest used
    plus one, a stem used there, empty or a one-bit child of one?"""
    if isinstance(subject, Cirquent):
        a, coords, rest = split_cell_move(move)
        used = [split_cell_move(lm.move)[1] for lm in run]
        if any(u and u not in _fresh({c[j] for c in used if c[j]}) for j, u in enumerate(coords)):
            return False
        return _within_bound(subject.oformulas[a - 1], project_cell(run, a, coords), rest)
    if isinstance(subject, (AtomRef, NegAtom)):
        return True
    head, _, rest = move.partition(".")
    if isinstance(subject, (And, Or)):
        side = subject.left if head == "1" else subject.right
        return _within_bound(side, project_prefix(run, f"{head}."), rest)
    heads = {lm.move.partition(".")[0] for lm in run}
    if isinstance(subject, (Pst, Pcost)):
        return (int(head) in _fresh(set(map(int, heads)))
                and _within_bound(subject.body, project_prefix(run, f"{head}."), rest))
    roots = heads | {""}
    return (head in roots | {w + bit for w in roots for bit in "01"}
            and _within_bound(subject.body, project_branch(run, InfiniteBitstring(head)), rest))


def _check_listed_moves(subject, interp, game, run, rng):
    """After each prefix of a legal run, for both players: the list keeps
    the run legal, has no repeats, and holds every legal candidate within
    the bound; returns how many candidates it had to hold."""
    build = move_builder(subject, interp)
    pos, held = game.start(), 0
    for i in range(len(run) + 1):
        for player in (TOP, BOT):
            listed = pos.moves(player)
            assert len(set(listed)) == len(listed)
            assert all(game.legal(run[:i] + (Labmove(player, m),)) for m in listed)
            for _ in range(20):
                move = build(rng_chooser(rng))
                if (game.legal(run[:i] + (Labmove(player, move),))
                        and _within_bound(subject, run[:i], move)):
                    assert move in listed, (run[:i], player, move)
                    held += 1
        if i < len(run):
            assert pos.extend(run[i])
    return held


def test_listed_branching_moves_skip_threads_that_reject_them():
    # P lets the machine play c only after a.  After `T 0.a`, thread :0 has
    # seen a and lists c at stem "", but the threads through 1 have not, so
    # ".c" is not listed; "1.a" is, since no thread through 1 has seen a.
    # This test comes first, so that `-x` stops at it, not after the
    # property tests below shrink a counterexample.
    game = interpret_formula(St(P), {"P": parse_finite_game(
        "finitegame\n() => B\nT a => B\nT a; T c => T")})
    pos = game.start()
    assert pos.moves(TOP) == [".a", "0.a", "1.a"]
    assert pos.extend(Labmove(TOP, "0.a"))
    assert pos.moves(TOP) == ["0.c", "1.a", "00.c", "01.c"]
    assert pos.moves(BOT) == []
    assert not game.legal((Labmove(TOP, "0.a"), Labmove(TOP, ".c")))


# Each example of the two tests below replays 20 candidates per prefix and
# player, so shrinking a counterexample took minutes; they report it as drawn.
_UNSHRUNK = settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))


@_UNSHRUNK
@given(plays(formulas, offending=False), st.randoms(use_true_random=False))
def test_formula_positions_list_their_legal_moves(case, rng):
    _check_listed_moves(*case, rng)


@_UNSHRUNK
@given(plays(cirquents(), offending=False), st.randoms(use_true_random=False))
def test_cirquent_positions_list_their_legal_moves(case, rng):
    _check_listed_moves(*case, rng)


def test_listed_moves_cover_branching_candidates():
    # The checks above are not vacuous on b! and b? with new stems.
    held = 0
    for seed, subject in enumerate([St(P), Cost(NegAtom("Q")), St(Pcost(P)), Cost(Or(P, Q))]):
        rng = random.Random(seed)
        interp = random_finite_interpretation(ATOMS, 2, 2, seed)
        game = interpret_formula(subject, interp)
        build = move_builder(subject, interp)
        run = ()
        for _ in range(6):
            lm = Labmove(TOP if rng.random() < 0.5 else BOT, build(rng_chooser(rng)))
            if game.legal(run + (lm,)):
                run += (lm,)
        held += _check_listed_moves(subject, interp, game, run, rng)
    assert held >= 50


@pytest.mark.parametrize("subject", [
    St(P), Cost(NegAtom("P")), St(Or(P, NegAtom("Q"))), Cost(Pst(P)), St(Cost(And(P, Q))),
], ids=render_formula)
def test_branching_listings_with_new_stems(subject):
    # Candidates whose stem the run has not used yet refine the thread
    # classes; within the bound such a candidate is listed exactly when a
    # replay keeps the run legal, and both verdicts must occur.
    verdicts = set()
    for seed in range(30):
        rng = random.Random(seed)
        interp = random_finite_interpretation(ATOMS, 2, 2, seed)
        game = interpret_formula(subject, interp)
        build = move_builder(subject, interp)
        pos, run = game.start(), ()
        for _ in range(8):
            listed = {player: pos.moves(player) for player in (TOP, BOT)}
            for _ in range(6):
                lm = Labmove(TOP if rng.random() < 0.5 else BOT, build(rng_chooser(rng)))
                stem = lm.move.partition(".")[0]
                if stem not in pos.stems and _within_bound(subject, run, lm.move):
                    verdict = game.legal(run + (lm,))
                    assert (lm.move in listed[lm.player]) == verdict, (run, lm)
                    verdicts.add(verdict)
            lm = Labmove(TOP if rng.random() < 0.5 else BOT, build(rng_chooser(rng)))
            if game.legal(run + (lm,)):
                assert pos.extend(lm)
                run += (lm,)
    assert verdicts == {True, False}


@given(plays(formulas, offending=True))
def test_offended_formula_positions_list_nothing(case):
    _, _, game, run = case
    pos = game.replay(run)
    assert pos.offender is not None
    assert pos.moves(TOP) == pos.moves(BOT) == []


@given(plays(cirquents(), offending=True))
def test_offended_cirquent_positions_list_nothing(case):
    _, _, game, run = case
    pos = game.replay(run)
    assert pos.offender is not None
    assert pos.moves(TOP) == pos.moves(BOT) == []


def test_listed_moves_in_order():
    numerals = EnumerationGame(lambda run: False)
    pos = numerals.start()
    assert pos.moves(TOP) == ["0"]
    pos.extend(Labmove(BOT, "3"))
    pos.extend(Labmove(TOP, "1"))
    assert pos.moves(BOT) == ["1", "3", "4"]
    interp = {"P": numerals}
    pos = interpret_formula(And(Pst(P), St(NegAtom("P"))), interp).start()
    assert pos.moves(TOP)[:2] == ["1.1.0", "2..0"]
    pos.extend(Labmove(BOT, "1.2.5"))
    pos.extend(Labmove(TOP, "2.1.7"))
    assert pos.moves(BOT) == [
        *(f"1.{u}.{n}" for u in (2, 3) for n in ((5, 6) if u == 2 else (0,))),
        "2..0", "2.0.0", "2.1.7", "2.1.8", "2.10.7", "2.10.8", "2.11.7", "2.11.8",
    ]
    cirquent = C("oformulas: P | P ; under: {1,2} ; over: {1}{1,2}")
    pos = interpret_cirquent(cirquent, interp).start()
    pos.extend(Labmove(BOT, "2;0,3.4"))
    assert pos.moves(TOP) == ["1;1,3.0", "1;1,4.0", "2;0,3.4", "2;0,3.5", "2;0,4.0"]
    with pytest.raises(GameError):
        PermissiveGame().start().moves(TOP)


# Transcripts of `simulate` with the adversaries that choose among the
# moves their live position lists: the lists and their order must stay
# the same.  The `script` entries play SCRIPTS under fixtures/interp.txt, in
# coordinates and copies 2-3, which the translators renumber; they were
# first pinned from the version that split and formatted each move at every
# translator, and again when copies came to be numbered on first use.
SCRIPTS = {
    "cirquent": ("1;2.1.3.m", "1;3.1.2.m", "1;3.1.3.m", "1;2.1.2.m"),
    "formula": ("1.3.m", "1.2.m", "1.3.m"),
}
PINNED_TRANSCRIPTS = {
    ("p1", "cirquent", "random"): ("feddb6477128c221", "bf0d7051e3d0c1ce", "a963e066f0b675b5"),
    ("p1", "cirquent", "scripted"): ("987cab22a653336a", "18b2aaaa9c1035fc", "e250b79bae521223"),
    ("p1", "formula", "random"): ("4eb08f3d78422bde", "4ff85368fe13971a", "a2ee61360b59b938"),
    ("p1", "formula", "scripted"): ("96f25e8e91f7057d", "e8640a3758929c92", "708c48298b521b7f"),
    ("p2", "cirquent", "random"): ("2bcd9d436ab069fc", "d4076173545d3028", "bc5edac4ce846940"),
    ("p2", "cirquent", "scripted"): ("a65082da8ba292c7", "64fbe7ac03998ee6", "ec47c7cf0f6c698b"),
    ("p2", "formula", "random"): ("3788aa2090abcd11", "97c7fcc224aede52", "041f39af738f340a"),
    ("p2", "formula", "scripted"): ("9fa2692a03ca290b", "ca4bd7c19a7b3c26", "e8d8d396e894c223"),
    ("p2", "cirquent", "script"): ("a004a9ad0e929dd7",) * 3,
    ("p2", "formula", "script"): ("0db3856cbedf8f44",) * 3,
}


@pytest.mark.parametrize("proof, level, adversary", sorted(PINNED_TRANSCRIPTS),
                         ids=["-".join(key) for key in sorted(PINNED_TRANSCRIPTS)])
def test_probing_adversary_transcripts_are_pinned(proof, level, adversary, tmp_path):
    extra = []
    if adversary == "script":
        script = tmp_path / "moves.script"
        script.write_text("\n".join(SCRIPTS[level]) + "\n", encoding="utf-8")
        adversary = f"script:{script}"
        extra = ["--interp", str(FIXTURES / "interp.txt")]
    digests = []
    for seed in ("1", "2", "13"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(FIXTURES / f"{proof}.proof"), "--level", level,
                         "--adversary", adversary, "--seed", seed, *extra]) == 0
        assert out.getvalue().startswith("game: ")
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
    assert tuple(digests) == PINNED_TRANSCRIPTS[proof, level, adversary.partition(":")[0]]
