"""Run parsing/rendering and the three projection operators."""
import random

import pytest

from cl15.runs import (
    BOT,
    TOP,
    InfiniteBitstring,
    Labmove,
    RunError,
    format_cell_move,
    is_numeral,
    negate_run,
    numeral_value,
    parse_bitstring_spec,
    parse_run,
    project_branch,
    project_cell,
    project_prefix,
    render_run,
    split_bit_move,
    split_cell_move,
    split_index_move,
)

lm = Labmove


def test_parse_render_roundtrip_and_comments():
    text = "# a comment\nT 1.alpha\n\nB 2.beta\nT 1;2,0.m"
    run = parse_run(text)
    assert run == (lm(TOP, "1.alpha"), lm(BOT, "2.beta"), lm(TOP, "1;2,0.m"))
    assert parse_run(render_run(run)) == run


@pytest.mark.parametrize("text", ["X 1.m", "T", "T two words", "T 1.m extra"])
def test_malformed_run_lines_are_rejected(text):
    with pytest.raises(RunError):
        parse_run(text)


def test_empty_moves_are_rejected():
    with pytest.raises(RunError):
        lm(TOP, "")


def test_prefix_projection_verbatim_example():
    run = parse_run("T 1.alpha\nB 2.beta\nT 1.gamma\nB 2.delta")
    assert project_prefix(run, "1.") == (lm(TOP, "alpha"), lm(TOP, "gamma"))
    assert project_prefix(run, "2.") == (lm(BOT, "beta"), lm(BOT, "delta"))


def test_branch_projection_verbatim_example():
    run = parse_run("B 10.alpha\nT 111.beta\nB 1.gamma\nB 00.alpha")
    x = InfiniteBitstring("", "1")  # 111...
    assert project_branch(run, x) == (lm(TOP, "beta"), lm(BOT, "gamma"))


def test_cell_projection_verbatim_example():
    run = parse_run("B 1;1,1.alpha\nT 1;1,2.beta\nB 1;1,0.gamma\nB 2;1,0.delta")
    assert project_cell(run, 1, (1, 2)) == (lm(TOP, "beta"), lm(BOT, "gamma"))


def test_cell_projection_zero_coordinate_matches_anything():
    run = (lm(TOP, "2;0,3.m"),)
    assert project_cell(run, 2, (5, 3)) == (lm(TOP, "m"),)
    assert project_cell(run, 2, (5, 4)) == ()
    assert project_cell(run, 1, (5, 3)) == ()


def test_cell_projection_requires_matching_arity():
    run = (lm(TOP, "1;2.m"), lm(TOP, "1;2,2.m"))
    assert project_cell(run, 1, (2,)) == (lm(TOP, "m"),)
    assert project_cell(run, 1, (2, 2)) == (lm(TOP, "m"),)


def test_infinite_bitstring_bits_and_prefixes():
    x = InfiniteBitstring("10", "01")
    assert [x.bit(i) for i in range(6)] == ["1", "0", "0", "1", "0", "1"]
    assert x.has_prefix("")
    assert x.has_prefix("1001")
    assert not x.has_prefix("11")
    assert parse_bitstring_spec("10:01") == x
    assert parse_bitstring_spec("10") == InfiniteBitstring("10", "0")
    assert parse_bitstring_spec(":1") == InfiniteBitstring("", "1")
    with pytest.raises(RunError):
        InfiniteBitstring("2", "0")


def test_move_splitters():
    assert split_bit_move("01.m") == ("01", "m")
    assert split_bit_move(".m") == ("", "m")
    assert split_bit_move("2.m") is None
    assert split_index_move("12.m.n") == (12, "m.n")
    assert split_index_move("0.m") is None
    assert split_index_move("m") is None
    assert split_cell_move("3;1,0,2.tail.x") == (3, (1, 0, 2), "tail.x")
    assert split_cell_move("3;.tail") == (3, (), "tail")
    assert split_cell_move("0;1.m") is None
    assert split_cell_move("3;01.m") is None
    assert split_cell_move("3;1.") is None
    assert format_cell_move(3, (1, 0, 2), "tail.x") == "3;1,0,2.tail.x"
    assert is_numeral("0") and is_numeral("10") and not is_numeral("01")


@pytest.mark.parametrize("text", ["", "0", "00", "01", "10", "\u0661"])
def test_is_numeral_says_whether_numeral_value_reads_the_text(text):
    try:
        numeral_value(text)
    except ValueError:
        assert not is_numeral(text)
    else:
        assert is_numeral(text)


def _random_move(rng: random.Random) -> str:
    kind = rng.randrange(6)
    payload = rng.choice(("m", "n", "p.q"))
    if kind == 0:
        return f"{rng.randint(1, 3)}.{payload}"
    if kind == 1:
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
        return f"{bits}.{payload}"
    if kind == 2:
        a = rng.randint(1, 3)
        coords = ",".join(str(rng.randint(0, 3)) for _ in range(2))
        return f"{a};{coords}.{payload}"
    if kind == 3:
        return payload
    if kind == 4:
        return "junk;.."
    return str(rng.randint(0, 9))


def _random_run(rng: random.Random, length: int):
    return tuple(
        lm(TOP if rng.random() < 0.5 else BOT, _random_move(rng))
        for _ in range(length)
    )


def _projectors(rng: random.Random):
    a = rng.randint(1, 3)
    xs = (rng.randint(1, 3), rng.randint(1, 3))
    return [
        lambda r: project_prefix(r, "1."),
        lambda r: project_prefix(r, "2."),
        lambda r: project_branch(r, InfiniteBitstring("0", "1")),
        lambda r: project_branch(r, InfiniteBitstring("", "0")),
        lambda r, a=a, xs=xs: project_cell(r, a, xs),
    ]


def test_projection_properties_randomized():
    """Concatenation homomorphism, label-flip commutation, and prefix
    monotonicity for all three projectors over random mixed runs."""
    rng = random.Random(2024)
    checks = 0
    for _ in range(40):
        r1 = _random_run(rng, rng.randrange(9))
        r2 = _random_run(rng, rng.randrange(9))
        k = rng.randrange(len(r1) + 1)
        for proj in _projectors(rng):
            assert proj(r1 + r2) == proj(r1) + proj(r2)
            checks += 1
            assert proj(negate_run(r1)) == negate_run(proj(r1))
            checks += 1
            head = proj(r1[:k])
            assert proj(r1)[: len(head)] == head
            checks += 1
    assert checks >= 500


def test_negate_run_is_an_involution():
    rng = random.Random(5)
    run = _random_run(rng, 10)
    assert negate_run(negate_run(run)) == run


def _reference_split_cell_move(move: str) -> tuple[int, tuple[int, ...], str] | None:
    """split_cell_move by hand: find the separators, then test each numeral."""
    semi = move.find(";")
    if semi <= 0:
        return None
    a_text = move[:semi]
    if not is_numeral(a_text) or a_text == "0":
        return None
    dot = move.find(".", semi)
    if dot < 0 or dot == len(move) - 1:
        return None
    coords_text = move[semi + 1:dot]
    if coords_text == "":
        coords: tuple[int, ...] = ()
    else:
        parts = coords_text.split(",")
        if not all(is_numeral(p) for p in parts):
            return None
        coords = tuple(int(p) for p in parts)
    return int(a_text), coords, move[dot + 1:]


def test_split_cell_move_matches_reference():
    from test_strategy import MALFORMED

    rng = random.Random(20261018)
    moves = list(MALFORMED) + ["1;2,3.1.2.m", "3;.tail", "12;0,10.x\ny", "1;0.\n"]
    moves += ["".join(rng.choice("0123456789;,.m\n") for _ in range(rng.randint(0, 12)))
              for _ in range(20_000)]
    # Random strings seldom have the cell shape; these mostly do.
    moves += [f"{rng.choice(['0', '1', '07', '23'])};"
              + ",".join(rng.choice(["0", "1", "01", "10", "", "x"]) for _ in range(rng.randint(0, 3)))
              + rng.choice([".m", ".", ".1.m", "m"])
              for _ in range(5_000)]
    for move in moves:
        assert split_cell_move(move) == _reference_split_cell_move(move), move
