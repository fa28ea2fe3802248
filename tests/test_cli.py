"""Command-line behavior: exit codes, exact messages, file round trips, and
the interactive play loop driven through StringIO."""
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cl15
import cl15.cli as cli

from cl15.cirquent import CirquentError
from cl15.cl15 import ProofError, Violation, parse_proof, render_proof
from cl15.cli import (
    FAIL,
    OK,
    USAGE,
    _make_adversary,
    build_parser,
    main,
    parse_interpretation,
    play_session,
)
from cl15.formula import FormulaError
from cl15.games import GameError
from cl15.harness import RANDOM_GAME_MAX_NODES, HarnessError, ScriptMachine
from cl15.runs import RunError
from cl15.strategy import IdleStrategy, ProofViolation, StrategyError, extract_solution, proof_goal
from cl15.values import InputError

from conftest import FIXTURES, long_structural_proof, read_fixture

P1 = str(FIXTURES / "p1.proof")
P2 = str(FIXTURES / "p2.proof")
BROKEN = str(FIXTURES / "p1-broken.proof")
RUNFILE = str(FIXTURES / "example.run")
INTERP = str(FIXTURES / "interp.txt")


# --- check -------------------------------------------------------------------

def test_check_accepts_p1(capsys):
    assert main(["check", P1]) == OK
    assert capsys.readouterr().out == "ok (2 steps)\n"


def test_check_accepts_p2(capsys):
    assert main(["check", P2]) == OK
    assert capsys.readouterr().out == "ok (5 steps)\n"


def test_check_rejects_broken_proof(tmp_path, capsys):
    assert main(["check", BROKEN]) == FAIL
    out = capsys.readouterr().out
    assert out == (
        "step 2: violation: premise does not split the disjunction as required\n"
    )
    proof = tmp_path / "pcost.proof"
    proof.write_text("step 1: rule=axiom\noformulas: ~P | P ; under: {1,2} ; over: {1,2}\n"
                     "step 2: rule=pcost oformula=2 add_over={9}\n"
                     "oformulas: ~P | ?P ; under: {1,2} ; over: {1,2}\n")
    assert main(["check", str(proof)]) == FAIL
    assert capsys.readouterr().out == "step 2: violation: overgroup 9 out of range\n"


def test_check_names_the_formulas_of_an_odd_axiom_cirquent(tmp_path, capsys):
    proof = tmp_path / "odd.proof"
    proof.write_text("step 1: rule=axiom\noformulas: ~P | P | Q ; under: {1,2,3} ; over: {1,2,3}\n")
    assert main(["check", str(proof)]) == FAIL
    assert capsys.readouterr().out == "step 1: violation: not the axiom cirquent for P\n"


@pytest.mark.parametrize("oformula, reason", [
    (9, "oformula 9 out of range"),
    (1, "oformula 1 is not a '!' formula"),
])
def test_check_names_why_a_pst_step_has_no_pst_oformula(tmp_path, capsys, oformula, reason):
    text = read_fixture("p2.proof")
    assert "rule=pst oformula=2\n" in text
    proof = tmp_path / "pst.proof"
    proof.write_text(text.replace("rule=pst oformula=2\n", f"rule=pst oformula={oformula}\n"))
    assert main(["check", str(proof)]) == FAIL
    assert capsys.readouterr().out == f"step 4: violation: {reason}\n"


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/x.proof"]) == USAGE
    assert capsys.readouterr().err.startswith("error: ")


class _ClosedPipe:
    """A stdout whose reader has closed the pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


CLOSED_STDOUT_CASES = [
    (["simulate", P2, "--interp", INTERP, "--budget", "2000"], OK),
    (["check", BROKEN], FAIL),
    (["--help"], OK),
]
CLOSED_STDOUT_IDS = ["simulate", "check-broken", "help"]


@pytest.mark.parametrize("argv, verdict", CLOSED_STDOUT_CASES, ids=CLOSED_STDOUT_IDS)
def test_a_closed_stdout_keeps_the_verdict(argv, verdict, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(argv) == verdict
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, verdict", CLOSED_STDOUT_CASES, ids=CLOSED_STDOUT_IDS)
def test_a_closed_stdout_pipe_keeps_the_verdict_in_a_process(argv, verdict):
    # Buffered output that cannot be written is dropped, also at exit.
    src = str(Path(cl15.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "cl15.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (verdict, "")


def test_usage_errors():
    assert main([]) == USAGE
    assert main(["frobnicate"]) == USAGE


def test_one_parser_serves_every_call_like_a_fresh_process(monkeypatch, capsys):
    # The parser is built on the first call, not at import, and kept: help,
    # a usage error and a valid command must print what each prints alone.
    commands = [["--help"], ["frobnicate"], ["check", P2], ["check", "--help"], ["check", P2]]
    src = str(Path(cl15.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    fresh = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "cl15.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        fresh.append((done.returncode, done.stdout, done.stderr))
    done = subprocess.run([sys.executable, "-c", "import cl15.cli as c; "
                           "print(c._parser.cache_info().currsize)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "0\n"

    builds = []
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    in_process = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    cli._parser.cache_clear()
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [OK, USAGE, OK, OK, OK]
    assert len(builds) == 1


# --- extract + simulate ---------------------------------------------------------

def test_extract_then_simulate_cirquent_level(tmp_path, capsys):
    out = tmp_path / "p1.strategy"
    assert main(["extract", P1, "--out", str(out)]) == OK
    text = out.read_text()
    assert text.startswith("strategy level=cirquent\n")
    msg = capsys.readouterr().out
    assert msg.startswith("ok: cirquent-level strategy for ")
    assert str(out) in msg
    # The extracted file replays through simulate.
    assert main(["simulate", str(out), "--budget", "50"]) == OK
    sim = capsys.readouterr().out
    assert "adversary: silent budget: 50" in sim
    assert "winner: T" in sim


def test_extract_formula_level_header_sticks(tmp_path, capsys):
    out = tmp_path / "p2.strategy"
    assert main(["extract", P2, "--out", str(out), "--level", "formula"]) == OK
    assert out.read_text().startswith("strategy level=formula\n")
    capsys.readouterr()
    assert main(["simulate", str(out), "--budget", "60"]) == OK
    sim = capsys.readouterr().out
    assert "game: ?~P \\/ !P" in sim


@pytest.mark.parametrize("prefix", ["# note\n", "# note\n\n", "\n  # note\r\n\t\n"])
def test_a_strategy_file_may_open_with_comments(prefix, tmp_path, capsys):
    plain = tmp_path / "p2.strategy"
    assert main(["extract", P2, "--out", str(plain)]) == OK
    commented = tmp_path / "commented.strategy"
    commented.write_text(prefix + plain.read_text())
    capsys.readouterr()
    transcripts = []
    for path in (plain, commented):
        assert main(["simulate", str(path), "--adversary", "random", "--seed", "3"]) == OK
        transcripts.append(capsys.readouterr())
    assert transcripts[0] == transcripts[1]
    assert "winner: T" in transcripts[0].out


@pytest.mark.parametrize("command", ["simulate", "play"])
def test_a_level_flag_against_the_strategy_file_is_a_usage_error(command, tmp_path, monkeypatch,
                                                                 capsys):
    out = tmp_path / "p2.strategy"
    assert main(["extract", P2, "--out", str(out), "--level", "formula"]) == OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert main([command, str(out), "--level", "cirquent"]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --level cirquent conflicts with the strategy file's "
                            "level=formula\n")
    assert main([command, str(out), "--level", "formula", "--budget", "20"]) == OK


def test_extract_refuses_broken_proof(tmp_path, capsys):
    out = tmp_path / "x.strategy"
    assert main(["extract", BROKEN, "--out", str(out)]) == FAIL
    assert "violation" in capsys.readouterr().out
    assert not out.exists()


def test_simulate_all_adversaries(capsys):
    for adversary in ("silent", "random", "scripted"):
        code = main([
            "simulate", P2, "--adversary", adversary,
            "--budget", "150", "--seed", "5",
        ])
        sim = capsys.readouterr().out
        assert code == OK, sim
        assert f"adversary: {adversary}" in sim
        assert "winner: T" in sim


def test_simulate_script_file_adversary(tmp_path, capsys):
    script = tmp_path / "moves.txt"
    script.write_text("# environment's moves\n1;1.1.m\n")
    code = main([
        "simulate", P1, "--adversary", f"script:{script}",
        "--interp", INTERP, "--budget", "40",
    ])
    sim = capsys.readouterr().out
    assert code == OK, sim
    assert "E:1;1.1.m" in sim
    assert "M:move 1;1.2.m" in sim


# A proof whose extracted strategy lost while merging sent conclusion copy 2
# of `~P` to one premise cell and of `?P` to another (ROADMAP item 13); the
# diagonal sends both to (2, 2).  Not a fixture: tests iterate over those.
MERGED_PCOST_PROOF = """\
step 1: rule=axiom
oformulas: ~P | P ; under: {1,2} ; over: {1,2}
step 2: rule=dup_over pos=1
oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}
step 3: rule=pcost oformula=2 add_over={2}
oformulas: ~P | ?P ; under: {1,2} ; over: {1,2}{1}
step 4: rule=merging over=1
oformulas: ~P | ?P ; under: {1,2} ; over: {1,2}
"""


def test_check_accepts_the_merged_pcost_proof(tmp_path, capsys):
    proof = tmp_path / "merged.proof"
    proof.write_text(MERGED_PCOST_PROOF)
    assert main(["check", str(proof)]) == OK
    assert capsys.readouterr().out == "ok (4 steps)\n"


def test_simulate_wins_the_merged_pcost_proof(tmp_path, capsys):
    proof, script = tmp_path / "merged.proof", tmp_path / "moves.txt"
    proof.write_text(MERGED_PCOST_PROOF)
    script.write_text("1;1.m\n1;2.m\n")
    code = main(["simulate", str(proof), "--adversary", f"script:{script}",
                 "--interp", INTERP, "--budget", "20"])
    sim = capsys.readouterr().out
    assert "winner: T" in sim, sim
    assert code == OK


def test_simulate_script_move_with_whitespace_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "moves.txt"
    script.write_text("# environment's moves\n1;1.1.m\n1;1.a b\n")
    assert main(["simulate", P1, "--adversary", f"script:{script}", "--interp", INTERP]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: whitespace inside move\n"


def test_simulate_unknown_adversary(capsys):
    assert main(["simulate", P1, "--adversary", "psychic"]) == USAGE
    assert "unknown adversary" in capsys.readouterr().err


def test_simulate_formula_level_flag(capsys):
    assert main(["simulate", P1, "--level", "formula", "--budget", "40"]) == OK
    assert "game: ~P \\/ P" in capsys.readouterr().out


# --- project ----------------------------------------------------------------------

def test_project_cell_verbatim(capsys):
    assert main([
        "project", RUNFILE, "--cell", "1", "--coords", "1,2",
    ]) == OK
    assert capsys.readouterr().out == "T beta\nB gamma\n"


def test_project_prefix_and_branch(tmp_path, capsys):
    runfile = tmp_path / "r.run"
    runfile.write_text("B 10.alpha\nT 111.beta\nB 1.gamma\nB 00.alpha\n")
    assert main(["project", str(runfile), "--branch", "111:1"]) == OK
    assert capsys.readouterr().out == "T beta\nB gamma\n"
    assert main(["project", str(runfile), "--prefix", "1"]) == OK
    out = capsys.readouterr().out
    assert out == "B 0.alpha\nT 11.beta\nB .gamma\n"


def test_project_empty_result_prints_nothing(tmp_path, capsys):
    runfile = tmp_path / "r.run"
    runfile.write_text("T 1.m\n")
    assert main(["project", str(runfile), "--cell", "3"]) == OK
    assert capsys.readouterr().out == ""


def test_project_needs_exactly_one_mode(capsys):
    assert main(["project", RUNFILE]) == USAGE
    capsys.readouterr()
    assert main([
        "project", RUNFILE, "--prefix", "1.", "--cell", "1",
    ]) == USAGE


# --- demo-separation -----------------------------------------------------------------

def test_demo_separation_default_is_conclusive(capsys):
    assert main(["demo-separation", "--k", "8"]) == OK
    out = capsys.readouterr().out
    assert "verdict: separation upheld at bound k=8" in out
    assert "witness thread:" in out
    assert "final position winner: B" in out


def test_demo_separation_is_inconclusive_when_the_budget_ends_first(capsys):
    assert main(["demo-separation", "--k", "8", "--budget", "3"]) == FAIL
    out = capsys.readouterr().out
    assert out.endswith("note: the budget ended after 3 of 8 threads\n"
                        "verdict: inconclusive at bound k=8\n")


def test_demo_separation_copycat_machine_runs(capsys):
    code = main(["demo-separation", "--machine", "copycat", "--k", "4"])
    out = capsys.readouterr().out
    assert code in (OK, FAIL)
    assert "separation demo: target ?~P \\/ b!P  k=4" in out
    assert "verdict:" in out


# --- interpretation files -------------------------------------------------------------

def test_parse_interpretation_happy_path():
    interp = parse_interpretation(read_fixture("interp.txt"))
    assert set(interp) == {"P"}
    assert interp["P"].winner(()).value == "B"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("atom P\n() => B", "expected 'interpretation' header"),
        ("interpretation\natom P\n() => B\natom P\n() => T", "duplicate atom"),
        ("interpretation\n() => B", "move lines before any 'atom' section"),
        ("interpretation", "defines no atoms"),
        ("interpretation\natom lower\n() => B", "expected 'atom <Name>'"),
    ],
)
def test_parse_interpretation_errors(text, fragment):
    with pytest.raises(GameError, match=fragment):
        parse_interpretation(text)


@pytest.mark.parametrize(
    "body,message",
    [
        ("T m", "atom Q: line 4: missing '=>' in 'T m'"),
        ("T m => X", "atom Q: line 4: bad winner label 'X'"),
        ("T m;Bn => T", "atom Q: line 4: bad labmove 'Bn'"),
        # The first offending line in file order, not the shortest run.
        ("T a; B b; T c => T\n# note\nT x; B y => B",
         "atom Q: line 4: tree not prefix-closed: 'T a; B b; T c' has no line for its prefix"
         " 'T a; B b'"),
        ("T x; B y => B\nT a; B b; T c => T",
         "atom Q: line 4: tree not prefix-closed: 'T x; B y' has no line for its prefix 'T x'"),
        ("atom Q\n() => B", "line 4: duplicate atom 'Q'"),
    ],
)
def test_interpretation_errors_name_the_atom_and_the_line(body, message):
    text = f"interpretation\natom Q\n() => T\n{body}\natom P\n() => B\n"
    with pytest.raises(GameError) as info:
        parse_interpretation(text)
    assert str(info.value) == message


def test_interpretation_without_an_empty_run_names_the_atom(tmp_path, capsys):
    bad = tmp_path / "i.txt"
    bad.write_text("interpretation\natom P\nT m => T\n")
    assert main(["simulate", P1, "--interp", str(bad)]) == USAGE
    assert capsys.readouterr().err == "error: atom P: tree must contain the empty run '()'\n"


def test_interp_file_missing_atom(tmp_path, capsys):
    bad = tmp_path / "i.txt"
    bad.write_text("interpretation\natom Q\n() => T\n")
    assert main(["simulate", P1, "--interp", str(bad)]) == USAGE
    assert "interpretation missing atoms: P" in capsys.readouterr().err


def test_bad_strategy_file_header(tmp_path, capsys):
    bad = tmp_path / "bad.strategy"
    bad.write_text("strategy level=weird\nstep 1: rule=axiom\nx\n")
    assert main(["simulate", str(bad)]) == USAGE
    assert "strategy level=cirquent|formula" in capsys.readouterr().err


P1_AXIOM = "step 1: rule=axiom\noformulas: ~P | P ; under: {1,2} ; over: {1,2}\n"


@pytest.mark.parametrize("text, message", [
    ("strategy level=cirquent\n" + P1_AXIOM.replace("{1,2}\n", "{1,2\n"),
     "line 3: unclosed group in over"),
    ("\n\nstrategy level=cirquent\n" + P1_AXIOM
     + "step 2: rule=dup_over pos=1 pos=3\noformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}\n",
     "line 6: repeated parameter pos"),
    ("\n\nstrategy level=weird\n" + P1_AXIOM,
     "line 3: expected 'strategy level=cirquent|formula'"),
    ("# extracted\n  # by hand\nstrategy level=weird\n" + P1_AXIOM,
     "line 3: expected 'strategy level=cirquent|formula'"),
    ("# note\n\nstrategy level=cirquent\n" + P1_AXIOM.replace("{1,2}\n", "{1,2\n"),
     "line 5: unclosed group in over"),
], ids=["header-first", "blank-lines-first", "bad-header", "bad-header-after-comments",
        "comments-first"])
def test_strategy_file_errors_give_file_line_numbers(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.strategy"
    bad.write_text(text)
    assert main(["simulate", str(bad)]) == USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# --- interactive play -------------------------------------------------------------------

def _play(user_input, machine=None):
    proof = parse_proof(read_fixture("p1.proof"))
    goal, desc = proof_goal(proof, False)
    interp = parse_interpretation(read_fixture("interp.txt"))
    out = io.StringIO()
    code = play_session(
        machine or extract_solution(proof), goal, desc, interp, 30,
        in_stream=io.StringIO(user_input), out_stream=out,
    )
    return code, out.getvalue()


def test_play_session_copycat_round(capsys):
    code, out = _play("1;1.1.m\nquit\n")
    assert code == OK
    assert "you are the environment (B); at each grant enter a move, 'pass', or 'quit'" in out
    assert "machine moves: 1;1.2.m" in out
    assert "winner: T" in out
    assert "transcript:" in out
    assert "B 1;1.1.m" in out and "T 1;1.2.m" in out


def test_play_session_rejects_whitespace_move():
    code, out = _play("a b\nquit\n")
    assert code == OK  # empty run of the goal is machine-won
    assert "malformed move (whitespace not allowed); try again" in out
    assert out.count("your move>") >= 2


def test_play_session_records_illegal_env_move():
    code, out = _play("zzz\n")
    assert code == OK
    assert "warning: illegal move; recorded (machine wins)" in out
    assert "winner: T" in out


def test_play_session_pass_and_eof():
    code, out = _play("pass\n")
    assert code == OK
    assert "winner: T" in out
    assert "(empty)" in out
    code, out = _play("", machine=IdleStrategy())
    assert code == OK
    assert "machine idles" in out and "your move>" not in out
    assert "winner: T" in out


def test_play_session_reports_an_illegal_machine_move():
    code, out = _play("pass\n", machine=ScriptMachine(["zzz"]))
    assert code == FAIL
    assert "machine moves: zzz" in out
    assert "machine made an illegal move; environment wins" in out
    assert "winner: B" in out


def test_play_broken_proof(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["play", BROKEN, "--interp", INTERP, "--budget", "10"]) == FAIL
    assert capsys.readouterr().out == (
        "step 2: violation: premise does not split the disjunction as required\n")


@pytest.mark.parametrize("command", ["simulate", "play"])
def test_the_proof_is_verified_before_the_interpretation_is_read(command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main([command, BROKEN, "--interp", "/nonexistent/x.txt"]) == FAIL
    assert capsys.readouterr() == (
        "step 2: violation: premise does not split the disjunction as required\n", "")


@pytest.mark.parametrize("command", ["simulate", "play"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_is_a_usage_error(command, budget, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1;1.1.m\n"))
    assert main([command, P1, "--interp", INTERP, "--budget", budget]) == USAGE
    assert capsys.readouterr() == ("", "error: budget must be at least 1\n")


def test_play_command_through_main(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1;1.1.m\nquit\n"))
    code = main(["play", P1, "--interp", INTERP, "--budget", "20"])
    out = capsys.readouterr().out
    assert code == OK, out
    assert "machine moves: 1;1.2.m" in out


# Stdin scripts for `play`, in digest order; `{0}` and `{1}` are a level's
# copycat moves.  The last script runs out of the budget of 20 turns.
PLAY_INPUTS = ("quit\n", "", "pass\n\npass\nquit\n", "a b\nquit\n", "zzz\n",
               "{0}\n{1}\nquit\n", "{0}\n" + "pass\n" * 30)
COPY_MOVES = {
    ("p1", "cirquent"): ("1;1.1.m", "1;2.1.m"),
    ("p1", "formula"): ("1.m", "2.m"),
    ("p2", "cirquent"): ("1;1.1.1.m", "1;2.1.3.m"),
    ("p2", "formula"): ("1.1.m", "1.2.m"),
}
PINNED_PLAY = {
    ("p1", "cirquent"): ("5281d42360e647ae", "5281d42360e647ae", "403ea61831541965", "8f9f4853e6d4dd39",
                         "70bbea76bd430b6e", "9d33270fd2d7a96d", "dfc29e71047984de"),
    ("p1", "formula"): ("e500b3edd8f17d14", "e500b3edd8f17d14", "caa4c60743ee0829", "1bbca41cca06080c",
                        "d46fa50240ccba7c", "5b391d17f9bc5ec5", "0e7aa77aed989d3b"),
    ("p2", "cirquent"): ("d1fb2155de061dd7", "d1fb2155de061dd7", "b9f77dbdb6200e41", "6de2f71c39f33acb",
                         "7496622f9798daf3", "81d263939f7d7582", "cc82150801b66c92"),
    ("p2", "formula"): ("066f282ab4f696d6", "066f282ab4f696d6", "e2db9693fbaaf909", "e1deb2e85dc74a58",
                        "80104011bc28cd2c", "5d96ef5ee9f01e79", "8fbc45bd78fc16bc"),
}


@pytest.mark.parametrize("proof, level", sorted(COPY_MOVES),
                         ids=["-".join(key) for key in sorted(COPY_MOVES)])
def test_play_transcripts_are_pinned(proof, level, monkeypatch, capsys):
    digests = []
    for script in PLAY_INPUTS:
        monkeypatch.setattr("sys.stdin", io.StringIO(script.format(*COPY_MOVES[proof, level])))
        assert main(["play", str(FIXTURES / f"{proof}.proof"), "--level", level,
                     "--interp", INTERP, "--budget", "20"]) == OK
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert tuple(digests) == PINNED_PLAY[proof, level]


# `simulate` stdout digests for seeds 1-4 of each adversary in turn, under
# the default random interpretation.  "long" is `long_structural_proof(1)`,
# whose extracted pipeline fuses 38 of its 39 layers into one.
SIMULATE_ADVERSARIES = {"long": ("random",)}
PINNED_SIMULATE = {
    ("long", "cirquent"): ("70f2c3a5cd1edbee", "347ca666129d3069", "f8d80e266883794a",
                           "693348de7329ff5d"),
    ("p1", "cirquent"): ("e931a630b2be9622", "e931a630b2be9622", "e931a630b2be9622",
                         "e931a630b2be9622", "feddb6477128c221", "bf0d7051e3d0c1ce",
                         "38c0b08843ec86d2", "e90bef02f2724089", "987cab22a653336a",
                         "18b2aaaa9c1035fc", "8c01e9f0e3c65e43", "c2777d7d828bfcd0"),
    ("p1", "formula"): ("b9069b13f9a23e91", "b9069b13f9a23e91", "b9069b13f9a23e91",
                        "b9069b13f9a23e91", "4eb08f3d78422bde", "4ff85368fe13971a",
                        "8a7598ab4ba3351e", "9279428c539b7bac", "96f25e8e91f7057d",
                        "e8640a3758929c92", "b66bafecd76f9a52", "f60cbbd79cee0074"),
    ("p2", "cirquent"): ("c9d3a83c7219bebd", "c9d3a83c7219bebd", "c9d3a83c7219bebd",
                         "c9d3a83c7219bebd", "2bcd9d436ab069fc", "d4076173545d3028",
                         "5f11b122a1f52c94", "023988ad04c60e70", "a65082da8ba292c7",
                         "64fbe7ac03998ee6", "96b980410e2e4f3c", "80232b69ab25cbb8"),
    ("p2", "formula"): ("b1e34495f5038ccb", "b1e34495f5038ccb", "b1e34495f5038ccb",
                        "b1e34495f5038ccb", "3788aa2090abcd11", "97c7fcc224aede52",
                        "0656e01481f96a86", "ee838216fcaaa9fc", "9fa2692a03ca290b",
                        "ca4bd7c19a7b3c26", "966054fb7fecd683", "d32f3c4073acd675"),
}


@pytest.mark.parametrize("proof, level", sorted(PINNED_SIMULATE),
                         ids=["-".join(key) for key in sorted(PINNED_SIMULATE)])
def test_simulate_transcripts_are_pinned(proof, level, tmp_path, capsys):
    path = FIXTURES / f"{proof}.proof"
    if proof == "long":
        path = tmp_path / "long.proof"
        path.write_text(render_proof(long_structural_proof(1)))
    digests = []
    for adversary in SIMULATE_ADVERSARIES.get(proof, ("silent", "random", "scripted")):
        for seed in range(1, 5):
            assert main(["simulate", str(path), "--level", level, "--adversary", adversary,
                         "--seed", str(seed)]) == OK
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert tuple(digests) == PINNED_SIMULATE[proof, level]


def test_project_bad_coords_is_a_usage_error(capsys):
    for coords in ("a", "+1", "1_0", "\u0661", "01,1"):
        assert main(["project", RUNFILE, "--cell", "1", "--coords", coords]) == USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --coords {coords!r}: expected numbers like 1,2\n"
    for cell in ("01", "+1", "\u0661", "-1", "0"):
        assert main(["project", RUNFILE, "--cell", cell, "--coords", "1,2"]) == USAGE
        assert capsys.readouterr() == ("", f"error: bad --cell {cell!r}: expected a number like 1\n")


def test_check_bad_set_parameter_is_a_usage_error(tmp_path, capsys):
    text = read_fixture("p2.proof")
    assert "add_over={" in text
    bad = tmp_path / "bad.proof"
    bad.write_text(text.replace("add_over={", "add_over={x", 1))
    assert main(["check", str(bad)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")
    assert "bad set parameter 'add_over={x" in captured.err


@pytest.mark.parametrize("command", [["check"], ["extract", "--out", "p2.strategy"], ["simulate"]],
                         ids=["check", "extract", "simulate"])
def test_set_valued_number_parameter_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    text = read_fixture("p2.proof")
    assert "rule=dup_over pos=1\n" in text
    bad = tmp_path / "bad.proof"
    bad.write_text(text.replace("rule=dup_over pos=1\n", "rule=dup_over pos={1}\n", 1))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(bad), *command[1:]]) == USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 3: pos must be a number, not a set\n")
    assert not (tmp_path / "p2.strategy").exists()


def test_random_adversary_transcript_ignores_the_hash_seed():
    argv = [sys.executable, "-m", "cl15.cli", "simulate", P2, "--adversary", "random",
            "--seed", "7"]
    src = str(Path(cl15.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == OK, done.stderr
        outputs.append(done.stdout)
    assert " E:" in outputs[0]
    assert outputs[0] == outputs[1]


def test_scripted_adversary_draws_a_varied_script():
    # The script is one seeded stream of indices, not one index repeated.
    adversary = _make_adversary("scripted", 1)
    choose = adversary.make_chooser()
    assert len({choose(7) for _ in range(24)}) > 1


def test_startup_imports_no_code_generation_modules(tmp_path):
    # The value classes are written out: starting the CLI must not load
    # `dataclasses` or the modules it would bring in, nor `typing`.  `-S`
    # keeps `site`, which loads `typing` itself, out of the count; `-B`
    # leaves no bytecode cache in the source tree.  Nor does it load the
    # game layer, or `random`: `check` and `project` never do, and `extract`
    # loads only the strategy module, for the goal's text.
    src = str(Path(cl15.__file__).resolve().parent.parent)
    commands = [[], ["check", P1], ["project", RUNFILE, "--cell", "1"],
                ["extract", P1, "--out", str(tmp_path / "p1.strategy")]]
    code = ("import contextlib, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import cl15.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cl15.cli.main(argv) if argv else None\n"
            "    game_layer = {'cl15.games', 'cl15.strategy', 'cl15.harness', 'random'}\n"
            "    print(code, sorted(game_layer & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "[]\nNone []\n0 []\n0 []\n0 ['cl15.strategy']\n", "")


# One error of each module's class.
INPUT_ERRORS = [FormulaError("bad formula"), RunError("bad run"), CirquentError("bad cirquent"),
                ProofError("bad proof"), GameError("bad game"), StrategyError("bad strategy"),
                ProofViolation(2, Violation("bad step")), HarnessError("bad adversary")]


def _raising(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("exc", INPUT_ERRORS, ids=lambda exc: type(exc).__name__)
def test_each_module_error_is_an_input_error_and_a_usage_error(exc, monkeypatch, capsys):
    # The CLI catches the one base class, without importing the modules.
    assert isinstance(exc, InputError)
    monkeypatch.setitem(cli._DISPATCH, "check", _raising(exc))
    assert main(["check", P1]) == USAGE
    assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_a_wrapper_in_place_of_a_game_layer_function_is_the_one_called(monkeypatch, capsys):
    # The game layer's names are bound in `cl15.cli` once, on first use; a
    # timing wrapper set there (as `bench/tracing.py` sets one) must stay.
    calls = []
    original = cli.simulate
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args[3]) or original(*args))
    assert main(["simulate", P1, "--budget", "3"]) == OK
    assert calls == [3]


def test_a_plain_value_error_is_not_an_input_error(monkeypatch):
    monkeypatch.setitem(cli._DISPATCH, "check", _raising(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        main(["check", P1])


# --- verification once, long proofs, deep formulas ------------------------------------

def _count_check_steps(monkeypatch):
    import cl15.cl15 as rules

    calls = []
    original = rules.check_step

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rules, "check_step", counting)
    return calls


def test_extract_and_simulate_verify_once(tmp_path, monkeypatch, capsys):
    steps = len(parse_proof(read_fixture("p2.proof")).steps)
    calls = _count_check_steps(monkeypatch)
    assert main(["extract", P2, "--out", str(tmp_path / "p2.strategy")]) == OK
    assert len(calls) == steps - 1
    calls.clear()
    assert main(["simulate", P2]) == OK
    assert len(calls) == steps - 1


def _exchange_chain(steps: int) -> str:
    """A proof of alternating `exchange_oformulas pos=1` steps over ~P | P."""
    cirquents = ("oformulas: ~P | P ; under: {1,2} ; over: {1,2}",
                 "oformulas: P | ~P ; under: {1,2} ; over: {1,2}")
    lines = ["step 1: rule=axiom", cirquents[0]]
    for k in range(2, steps + 1):
        lines += [f"step {k}: rule=exchange_oformulas pos=1", cirquents[(k - 1) % 2]]
    return "\n".join(lines) + "\n"


def test_long_proof_checks_extracts_and_plays(tmp_path, capsys):
    proof = tmp_path / "chain.proof"
    proof.write_text(_exchange_chain(5000))
    assert main(["check", str(proof)]) == OK
    assert capsys.readouterr().out == "ok (5000 steps)\n"
    assert main(["extract", str(proof), "--out", str(tmp_path / "chain.strategy")]) == OK
    capsys.readouterr()
    assert main(["simulate", str(proof), "--adversary", "random", "--budget", "40"]) == OK
    out = capsys.readouterr().out
    assert " M:move " in out
    assert out.splitlines()[-1].startswith("winner: T ")


def _axiom_proof(formula: str, negation: str) -> str:
    return (f"step 1: rule=axiom\n"
            f"oformulas: {negation} | {formula} ; under: {{1,2}} ; over: {{1,2}}\n")


@pytest.mark.parametrize("formula, negation", [
    ("(" * 400 + "P" + ")" * 400, "~" + "(" * 400 + "P" + ")" * 400),
    ("!" * 2000 + "P", "?" * 2000 + "~P"),
], ids=["400-parentheses", "2000-prefix-operators"])
def test_formula_nested_too_deeply_is_a_usage_error(tmp_path, capsys, formula, negation):
    proof = tmp_path / "deep.proof"
    proof.write_text(_axiom_proof(formula, negation))
    assert main(["check", str(proof)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: formula nested too deeply\n"


def test_moderately_nested_formulas_still_parse(tmp_path):
    # A fresh interpreter, so that the test runner's own stack does not count.
    proof = tmp_path / "deep.proof"
    nested = "(" * 240 + "P" + ")" * 240
    proof.write_text(_axiom_proof(nested, "~" + nested))
    code = ("import sys; from cl15.cli import main; from cl15.formula import parse_formula\n"
            "parse_formula('!' * 900 + 'P')\n"
            "sys.exit(main(['check', sys.argv[1]]))\n")
    src = str(Path(cl15.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, str(proof)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (OK, "ok (1 steps)\n", "")


@pytest.mark.parametrize("depth, command, expected", [
    (900, ["check"], (OK, r"ok \(1 steps\)\n", "")),
    (900, ["extract", "--out", "deep.strategy"], (OK, r"ok: cirquent-level strategy for .*\n", "")),
    (400, ["simulate"], (OK, r".*\nwinner: T .*\n", "")),
    (900, ["simulate"], (USAGE, "", "error: formula nested too deeply\n")),
], ids=["check-900", "extract-900", "simulate-400", "simulate-900"])
def test_deep_formulas_stop_at_the_same_depth_on_every_interpreter(tmp_path, depth, command, expected):
    # Formulas compare by identity, so checking and extracting recurse only
    # as far as parsing does; the game positions that simulate plays recurse
    # further.  A fresh interpreter, so that the test runner's own stack
    # does not count.
    proof = tmp_path / "deep.proof"
    proof.write_text(_axiom_proof("!" * depth + "P", "?" * depth + "~P"))
    src = str(Path(cl15.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "cl15.cli", *command, str(proof)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    code, out, err = expected
    assert (done.returncode, done.stderr) == (code, err)
    assert re.fullmatch(out, done.stdout, re.DOTALL)
    assert (tmp_path / "deep.strategy").exists() == (code == OK and command[0] == "extract")


@pytest.mark.parametrize("command", ["simulate", "play"])
def test_oversized_random_interpretation_is_a_usage_error(command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main([command, P1, "--depth", "100", "--branching", "100"]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: random game over {RANDOM_GAME_MAX_NODES:,} positions; "
                            "lower --depth or --branching\n")


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_random_interpretation_is_not_a_formula_error(seed, capsys):
    # The random game grows with an explicit stack: 5,000 levels either play
    # or stop at the node cap, never as a nesting error.
    code = main(["simulate", P1, "--depth", "5000", "--branching", "3", "--seed", str(seed)])
    captured = capsys.readouterr()
    assert "nested too deeply" not in captured.err
    if code == USAGE:
        assert captured.err == (f"error: random game over {RANDOM_GAME_MAX_NODES:,} positions; "
                                "lower --depth or --branching\n")
    else:
        assert code in (OK, FAIL) and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"],
    ["extract", "{bad}", "--out", "{out}"],
    ["simulate", "{bad}"],
    ["simulate", P1, "--interp", "{bad}"],
    ["simulate", P1, "--adversary", "script:{bad}"],
    ["project", "{bad}", "--prefix", "1."],
], ids=["check", "extract", "simulate", "interp", "script", "project"])
def test_a_file_that_is_not_utf8_is_a_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bin.proof"
    bad.write_bytes(b"\xff\xfe\x00bad")
    argv = [arg.format(bad=bad, out=tmp_path / "out.strategy") for arg in argv]
    assert main(argv) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text (")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
HUGE = "1" + "0" * DIGIT_LIMIT


AXIOM_LINE = "oformulas: ~P | P ; under: {1,2} ; over: {1,2}\n"
# Proof texts with one over-long number, and the line that holds it.
HUGE_PROOFS = {
    "check": (f"step {HUGE}: rule=axiom\n{AXIOM_LINE}", 1),
    "check-param": (f"step 1: rule=axiom\n{AXIOM_LINE}step 2: rule=dup_over pos={HUGE}\n"
                    "oformulas: ~P | P ; under: {1,2} ; over: {1,2}{1,2}\n", 3),
    "check-set-param": (f"step 1: rule=axiom\n{AXIOM_LINE}"
                        f"step 2: rule=pcost oformula=1 add_over={{{HUGE}}}\n"
                        "oformulas: ?~P | P ; under: {1,2} ; over: {1,2}\n", 3),
    "check-group": (f"step 1: rule=axiom\noformulas: ~P | P ; under: {{1,{HUGE}}} ; over: {{1,2}}\n",
                    2),
}


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numbers of any length")
@pytest.mark.parametrize("command", [*HUGE_PROOFS, "simulate", "project", "project-cell",
                                     "project-coords"])
def test_a_number_over_the_digit_limit_is_a_usage_error(command, tmp_path, capsys):
    where = ""
    if command in HUGE_PROOFS:
        text, line = HUGE_PROOFS[command]
        path = tmp_path / "huge.proof"
        path.write_text(text)
        argv = ["check", str(path)]
        where = f"line {line}: "
    elif command == "simulate":
        path = tmp_path / "huge.script"
        path.write_text(f"1;{HUGE}.1.m\n")
        argv = ["simulate", P1, "--adversary", f"script:{path}"]
    elif command == "project":
        path = tmp_path / "huge.run"
        path.write_text(f"B 1;{HUGE}.1.m\n")
        argv = ["project", str(path), "--cell", "1", "--coords", "1"]
    elif command == "project-cell":
        argv = ["project", RUNFILE, "--cell", HUGE]
        where = "bad --cell: "
    else:
        argv = ["project", RUNFILE, "--cell", "1", "--coords", f"1,{HUGE}"]
        where = "bad --coords: "
    assert main(argv) == USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err == f"error: {where}a number over the limit of {DIGIT_LIMIT:,} digits\n"
