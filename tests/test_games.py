"""Game construction: finite trees, composite operators, cirquent games,
the offender rule, and thread representatives."""
import itertools
import random

import pytest

from cl15.formula import parse_formula
from cl15.games import (
    CirquentGame,
    EnumerationGame,
    GameError,
    interpret_cirquent,
    interpret_formula,
    parse_finite_game,
    thread_representatives,
)
from cl15.harness import random_finite_game, random_finite_interpretation
from cl15.runs import BOT, TOP, InfiniteBitstring, Labmove, parse_run

from conftest import C, PermissiveGame, move_alphabet, moves_after, render_finite_game

lm = Labmove


def _game_P():
    return parse_finite_game("finitegame\n() => B\nT m => T")


def test_parse_finite_game_and_rendering():
    g = parse_finite_game(
        "finitegame\n# comment\n() => B\nT m => T\nT m; B n => B"
    )
    assert g.legal(()) and g.legal((lm(TOP, "m"),))
    assert not g.legal((lm(BOT, "n"),))
    assert g.winner(()) is BOT
    assert g.winner((lm(TOP, "m"),)) is TOP
    assert moves_after(g, ()) == [lm(TOP, "m")]
    assert sorted(move_alphabet(g)) == ["m", "n"]
    text = render_finite_game(g)
    assert parse_finite_game(text).tree == g.tree
    assert parse_finite_game(text).labels == g.labels


@pytest.mark.parametrize(
    "text",
    [
        "",
        "() => B",
        "finitegame\n() => X",
        "finitegame\nT m",
        "finitegame\nTm => T",
        "finitegame\nX m => T",
    ],
)
def test_malformed_finite_games_are_rejected(text):
    with pytest.raises(GameError):
        parse_finite_game(text)


def test_finite_game_requires_prefix_closed_labeled_tree():
    # Every line carries a label, so only the empty run and the prefixes
    # can be missing.
    with pytest.raises(GameError, match=r"^tree must contain the empty run '\(\)'$"):
        parse_finite_game("finitegame\nT m => T")
    with pytest.raises(GameError, match="^line 3: tree not prefix-closed"):
        parse_finite_game("finitegame\n() => T\nT m; B n => B")


def test_offender_rule_blames_first_illegal_move():
    g = _game_P()
    # The environment's illegal move loses for the environment...
    run = (lm(BOT, "zzz"),)
    assert g.offender(run) is BOT
    assert g.winner(run) is TOP
    # ...even if the machine later goes off the rails too.
    run2 = (lm(BOT, "zzz"), lm(TOP, "zzz"))
    assert g.winner(run2) is TOP
    run3 = (lm(TOP, "zzz"), lm(BOT, "zzz"))
    assert g.winner(run3) is BOT
    assert g.offender(()) is None


def test_negation_flips_roles_and_winner():
    g = _game_P()
    n = interpret_formula(parse_formula("~P"), {"P": g})
    assert n.legal((lm(BOT, "m"),))
    assert not n.legal((lm(TOP, "m"),))
    assert n.winner(()) is TOP
    assert n.winner((lm(BOT, "m"),)) is BOT


def test_or_and_winners_on_component_runs():
    interp = {"P": _game_P()}
    f_or = parse_formula("P \\/ ~P")
    f_and = parse_formula("P /\\ ~P")
    g_or = interpret_formula(f_or, interp)
    g_and = interpret_formula(f_and, interp)
    assert g_or.winner(()) is TOP  # right component is TOP-won on empty
    assert g_and.winner(()) is BOT
    run = parse_run("T 1.m")  # wins P in component 1; ~P is won on empty
    assert g_and.winner(run) is TOP
    assert g_or.winner(run) is TOP
    assert not g_or.legal(parse_run("T m"))
    assert not g_or.legal(parse_run("T 3.m"))


def test_copy_bank_quantifies_over_touched_copies_plus_empty():
    interp = {"P": _game_P()}
    pst = interpret_formula(parse_formula("!P"), interp)
    pcost = interpret_formula(parse_formula("?P"), interp)
    # Empty run: the base's empty run is BOT-won, so ! and ? both lose.
    assert pst.winner(()) is BOT and pcost.winner(()) is BOT
    one = parse_run("T 2.m")
    # Copy 2 is won, but the untouched-copy check keeps ! lost.
    assert pst.winner(one) is BOT
    assert pcost.winner(one) is TOP
    assert not pst.legal(parse_run("T 0.m"))
    assert not pst.legal(parse_run("T m"))


def test_thread_bank_decides_on_representatives():
    interp = {"P": _game_P()}
    st = interpret_formula(parse_formula("b!P"), interp)
    cost = interpret_formula(parse_formula("b?P"), interp)
    assert st.winner(()) is BOT and cost.winner(()) is BOT
    # A move in the root thread acts in every thread.
    everywhere = parse_run("T .m")
    assert st.winner(everywhere) is TOP
    # A move only in threads starting 0 leaves the 1-threads lost.
    half = parse_run("T 0.m")
    assert st.winner(half) is BOT
    assert cost.winner(half) is TOP
    assert not st.legal(parse_run("T 2.m"))


def test_thread_representatives_cover_and_separate():
    for bitstrings in [set(), {""}, {"0"}, {"0", "1"}, {"01", "0", "111"}]:
        reps = thread_representatives(set(bitstrings))
        classes = {
            frozenset(w for w in bitstrings if x.has_prefix(w)) for x in reps
        }
        # Every representative is in a distinct class, and together they
        # cover all classes reachable by any bitstring of bounded length.
        assert len(classes) == len(reps)
        max_len = max((len(w) for w in bitstrings), default=0) + 1
        for bits in itertools.product("01", repeat=max_len):
            x = InfiniteBitstring("".join(bits), "0")
            cls = frozenset(w for w in bitstrings if x.has_prefix(w))
            assert cls in classes
        for tail_bits in ("0", "1"):
            x = InfiniteBitstring("", tail_bits)
            cls = frozenset(w for w in bitstrings if x.has_prefix(w))
            assert cls in classes


def test_cirquent_game_move_shape_and_zero_pattern():
    c = C("oformulas: E | F ; under: {1,2} ; over: {1}{1,2}")
    interp = {"E": PermissiveGame(), "F": PermissiveGame()}
    g = interpret_cirquent(c, interp)
    assert g.legal(parse_run("T 1;1,2.m"))
    assert g.legal(parse_run("B 2;0,1.m"))
    assert not g.legal(parse_run("T 1;0,2.m"))  # oformula 1 is in overgroup 1
    assert not g.legal(parse_run("T 2;1,1.m"))  # oformula 2 is not
    assert not g.legal(parse_run("T 3;1,1.m"))
    assert not g.legal(parse_run("T 1;1.m"))
    assert not g.legal(parse_run("T m"))


def test_cirquent_game_needs_a_valid_cirquent():
    c = C("oformulas: P ; under: {} ; over: {1}")
    with pytest.raises(GameError):
        CirquentGame(c, {"P": PermissiveGame()})


def test_cirquent_winner_quantifies_groups_and_coordinates():
    # Axiom-shaped cirquent: every undergroup needs a TOP cell at every
    # coordinate choice.
    c = C("oformulas: ~P | P ; under: {1,2} ; over: {1,2}")
    interp = random_finite_interpretation(["P"], 2, 2, 0)
    g = interpret_cirquent(c, interp)
    assert g.winner(()) is TOP
    # Disconnected pair: each oformula alone in its undergroup.
    c2 = C("oformulas: ~P | P ; under: {1}{2} ; over: {1,2}")
    g2 = interpret_cirquent(c2, interp)
    empty_label = interp["P"].winner(())
    # One of ~P, P is lost on the empty run, so some undergroup fails.
    assert g2.winner(()) is BOT
    assert empty_label in (TOP, BOT)


def test_permissive_and_enumeration_games():
    p = PermissiveGame()
    assert p.legal(parse_run("T what_ever"))
    assert p.winner(()) is TOP
    e = EnumerationGame(lambda run: len(run) % 2 == 1)
    assert e.legal(parse_run("T 12\nB 3"))
    assert not e.legal(parse_run("T 012"))
    assert not e.legal(parse_run("T x"))
    assert e.winner(parse_run("T 1")) is BOT
    assert e.winner(parse_run("T 1\nB 2")) is TOP


def test_interpret_formula_requires_every_atom():
    with pytest.raises(GameError):
        interpret_formula(parse_formula("P /\\ Q"), {"P": PermissiveGame()})


def test_random_finite_game_trees_are_prefix_closed():
    rng = random.Random(3)
    for _ in range(10):
        g = random_finite_game(rng, 2, 3)
        assert () in g.tree
        for run in g.tree:
            assert run[: len(run) - 1] in g.tree or run == ()
            assert run in g.labels
        assert len(moves_after(g, ())) >= 1
