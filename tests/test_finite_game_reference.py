"""Finite games built as a trie, by `parse_finite_game` and by
`random_finite_game`, against the set-based reference in `reference_games`:
the same tree, labels, alphabet order and children order, and the same
legality and winner of every run tried.  The position lines come as the
benchmark generator writes them (chain and bushy games), and also shuffled,
repeated with other labels, oddly spaced and mixed with comments and blank
lines."""
import random

import pytest

from cl15.games import GameError, parse_finite_game
from cl15.harness import random_finite_game
from cl15.runs import BOT, TOP, Labmove

import reference_games as ref
from conftest import moves_after

GAPS = (" ", "  ", "\t")
PADS = ("", "", " ", "\t")
NOISE = ("", "   ", "# a comment", "  # T m => T")


def _chain(rng: random.Random, length: int) -> list[tuple[list, str]]:
    """One path of labmoves with labels alternating along it."""
    players = [rng.choice("TB") for _ in range(length)]
    moves = [f"m{rng.randrange(1000)}x{k}" for k in range(length)]
    label = rng.choice("TB")
    out = []
    for k in range(length + 1):
        out.append((list(zip(players[:k], moves[:k])), label))
        label = "B" if label == "T" else "T"
    return out


def _bushy(depth: int, label: str) -> list[tuple[list, str]]:
    """Every run of length up to depth over `T 1` and `B 1`, labels
    alternating with length."""
    out, level = [], [[]]
    for _ in range(depth + 1):
        out += [(run, label) for run in level]
        level = [run + [lm] for run in level for lm in (("T", "1"), ("B", "1"))]
        label = "B" if label == "T" else "T"
    return out


def _random_tree(rng: random.Random) -> list[tuple[list, str]]:
    """A random tree over a small move pool, so that moves recur."""
    g = ref.reference_random_finite_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    return [([(lm.player.value, lm.move) for lm in run], label.value)
            for run, label in g.labels.items()]


def _text(rng: random.Random, positions, shuffle: bool, repeat: bool, noise: bool) -> str:
    """The position lines in file syntax with random spacing; optionally in
    random order, with some runs repeated under random labels, and with
    comment and blank lines."""
    def item(p, m):
        return f"{rng.choice(PADS)}{p}{rng.choice(GAPS)}{m}{rng.choice(PADS)}"

    def line(run, label):
        run_text = ";".join(item(p, m) for p, m in run) if run else "()"
        return f"{rng.choice(PADS)}{run_text}{rng.choice(PADS)}=>{rng.choice(PADS)}{label}"

    lines = [line(run, label) for run, label in positions]
    if repeat:
        for run, _ in rng.sample(positions, min(3, len(positions))):
            lines.insert(rng.randint(0, len(lines)), line(run, rng.choice("TB")))
    if shuffle:
        rng.shuffle(lines)
    if noise:
        for _ in range(4):
            lines.insert(rng.randint(0, len(lines)), rng.choice(NOISE))
    return "\n".join(["finitegame"] + lines)


def _runs_to_try(rng: random.Random, expected: ref.ReferenceFiniteGame) -> list:
    """Every run of the tree, and random runs that leave it and go on."""
    runs = list(expected.labels)
    moves = expected.move_alphabet() + ["zz"]
    tries = list(runs)
    for _ in range(40):
        tail = tuple(Labmove(rng.choice((TOP, BOT)), rng.choice(moves))
                     for _ in range(rng.randint(1, 3)))
        tries.append(rng.choice(runs) + tail)
    return tries


def _assert_same(rng: random.Random, game, expected: ref.ReferenceFiniteGame) -> None:
    assert game.tree == expected.tree
    assert game.labels == expected.labels
    assert game.move_alphabet() == expected.move_alphabet()
    for run in _runs_to_try(rng, expected):
        assert game.legal(run) == expected.legal(run), run
        assert game.winner(run) is expected.winner(run), run
        assert moves_after(game, run) == expected.moves_after(run), run


@pytest.mark.parametrize("shape", ["chain", "bushy", "random"])
def test_position_lines_build_like_the_reference(shape):
    for seed in range(12):
        rng = random.Random(f"{shape}:{seed}")
        if shape == "chain":
            positions = _chain(rng, rng.randint(0, 25))
        elif shape == "bushy":
            positions = _bushy(rng.randint(0, 3), rng.choice("TB"))
        else:
            positions = _random_tree(rng)
        flags = (seed % 2 == 1, seed % 3 == 1, seed % 4 >= 2)
        text = _text(rng, positions, *flags)
        _assert_same(rng, parse_finite_game(text), ref.reference_parse_finite_game(text))


def test_random_finite_games_grow_like_the_reference():
    for seed in range(30):
        depth, branching = 1 + seed % 3, 1 + seed % 4
        game = random_finite_game(random.Random(seed), depth, branching)
        expected = ref.reference_random_finite_game(random.Random(seed), depth, branching)
        _assert_same(random.Random(seed), game, expected)


def test_a_child_line_may_come_before_its_parent():
    text = "finitegame\nT a; B b => T\nT c => B\n() => B\nT a => T"
    game = parse_finite_game(text)
    _assert_same(random.Random(0), game, ref.reference_parse_finite_game(text))
    assert moves_after(game, ()) == [Labmove(TOP, "c"), Labmove(TOP, "a")]
    assert game.move_alphabet() == ["a", "b", "c"]


def test_a_repeated_run_keeps_its_last_label():
    text = "finitegame\n() => B\nT m => T\n\n# again\n() => T\nT m => B"
    game = parse_finite_game(text)
    _assert_same(random.Random(0), game, ref.reference_parse_finite_game(text))
    assert game.winner(()) is TOP
    assert game.winner((Labmove(TOP, "m"),)) is BOT


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment",
        "finitegame",
        "finitegame\nT m => T",
        "finitegame\n() => B\nT m; B n => T",
        "finitegame\n() => B\nT m;; B n => T",
        "finitegame\n() => B\nT m; => T",
        "finitegame\n() => B\n => T",
        "finitegame\n() => B\nT m x => T",
        "finitegame\n() => B\nT ; => T",
        "finitegame\n() => B\nT m => T => B",
    ],
)
def test_malformed_position_lines_are_rejected_by_both(text):
    with pytest.raises(GameError):
        ref.reference_parse_finite_game(text)
    with pytest.raises(GameError):
        parse_finite_game(text)
