"""Command-line front end: proof checking, strategy extraction, simulated
play, run projection, the bounded separation demo, and an interactive
human-as-environment play mode."""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys

from . import cl15 as rules
from .cirquent import Cirquent
from .formula import Formula, atoms
from .runs import (
    BOT,
    TOP,
    Labmove,
    RunError,
    content_lines,
    numeral_value,
    parse_bitstring_spec,
    parse_run,
    project_branch,
    project_cell,
    project_prefix,
    render_run,
)
from .values import InputError

OK, FAIL, USAGE = 0, 1, 2

_ATOM_NAME_RE = re.compile(r"[A-Z][A-Za-z0-9]*")

# The game layer's names, by module.  `check`, `extract` and `project`
# never play, so the layer is imported, and its names bound here, on first
# use: by the functions that play, or by `__getattr__` for `cli.<name>`.
_GAME_LAYER = {
    "games": ("GameError", "finite_game", "interpret_cirquent", "interpret_formula"),
    "harness": ("HarnessError", "RotatingCopycat", "random_adversary",
                "random_finite_interpretation", "scripted_adversary", "separation_demo"),
    "strategy": ("EnvStrategy", "GrantPermission", "MakeMove", "ProofViolation", "PureGranter",
                 "ScriptEnv", "SilentEnv", "StrategyError", "extract_solution", "play",
                 "proof_goal", "simulate"),
}


@functools.cache
def _load_game_layer() -> None:
    """Import the game layer and bind its names here, once per process, so
    that a wrapper later put in a function's place stays."""
    import importlib
    for module, names in _GAME_LAYER.items():
        loaded = importlib.import_module(f".{module}", __package__)
        globals().update((name, getattr(loaded, name)) for name in names)


def __getattr__(name: str):
    if any(name in names for names in _GAME_LAYER.values()):
        _load_game_layer()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# File loaders

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_interpretation(text: str) -> Interpretation:
    """Parse an interpretation file: an `interpretation` header, then
    `atom <Name>` sections each holding finite-game lines."""
    _load_game_layer()
    body = content_lines(text)
    if not body or body[0][1] != "interpretation":
        raise GameError("line 1: expected 'interpretation' header")
    out: Interpretation = {}
    name: str | None = None
    section: list[tuple[int, str]] = []

    def close() -> None:
        if name is None:
            return
        try:
            out[name] = finite_game(section)
        except GameError as exc:
            raise GameError(f"atom {name}: {exc}") from None

    for lineno, ln in body[1:]:
        if ln.startswith("atom"):
            close()
            parts = ln.split()
            if len(parts) != 2 or not _ATOM_NAME_RE.fullmatch(parts[1]):
                raise GameError(f"line {lineno}: expected 'atom <Name>'")
            name = parts[1]
            if name in out:
                raise GameError(f"line {lineno}: duplicate atom {name!r}")
            section = []
        elif name is None:
            raise GameError(f"line {lineno}: move lines before any 'atom' section")
        else:
            section.append((lineno, ln))
    close()
    if not out:
        raise GameError("interpretation file defines no atoms")
    return out


def _load_subject(path: str, level_flag: str | None) -> tuple[rules.Proof, bool]:
    """Load a proof file, or an extracted-strategy file (a `strategy
    level=<level>` header followed by proof text).  Returns the proof and
    whether the formula level was requested, by the header or else by
    `level_flag`; a flag that names the other level than the header is an
    error."""
    text = _read(path)
    first = content_lines(text)[:1]
    if first and first[0][1].startswith("strategy"):
        lineno, header = first[0]
        m = re.fullmatch(r"strategy\s+level=(cirquent|formula)", header)
        if not m:
            raise rules.ProofError(f"line {lineno}: expected 'strategy level=cirquent|formula'")
        level = m.group(1)
        if level_flag not in (None, level):
            raise StrategyError(f"--level {level_flag} conflicts with the strategy file's "
                                f"level={level}")
        # The header's line is left blank, so proof errors keep the file's line numbers.
        lines = text.splitlines()
        lines[lineno - 1] = ""
        return rules.parse_proof("\n".join(lines)), level == "formula"
    return rules.parse_proof(text), level_flag == "formula"


def _build_interp(args, goal: Formula | Cirquent) -> Interpretation:
    formulas = goal.oformulas if isinstance(goal, Cirquent) else (goal,)
    names = frozenset().union(*map(atoms, formulas))
    if args.interp == "random":
        return random_finite_interpretation(
            sorted(names), args.depth, args.branching, args.seed
        )
    interp = parse_interpretation(_read(args.interp))
    missing = sorted(names - interp.keys())
    if missing:
        raise GameError(f"interpretation missing atoms: {', '.join(missing)}")
    return interp


def _interpret(goal: Formula | Cirquent, interp: Interpretation) -> Game:
    if isinstance(goal, Cirquent):
        return interpret_cirquent(goal, interp)
    return interpret_formula(goal, interp)


def _violation(step: int, violation: rules.Violation) -> int:
    """Print why the proof fails at `step`; the exit code for it."""
    print(f"step {step}: violation: {violation.reason}")
    return FAIL


def _setup(args, path: str) -> tuple | None:
    """Load the subject at `path`, extract its strategy (which verifies the
    proof), then its goal, the goal's text and the interpretation, in that
    order.  None, after printing the violation, if the proof fails."""
    _load_game_layer()
    proof, formula_level = _load_subject(path, args.level)
    try:
        machine = extract_solution(proof, formula_level=formula_level)
    except ProofViolation as exc:
        _violation(exc.step, exc.violation)
        return None
    goal, desc = proof_goal(proof, formula_level)
    return machine, goal, desc, _build_interp(args, goal)


# Subcommands

def cmd_check(args) -> int:
    proof = rules.parse_proof(_read(args.proof))
    failure = rules.verify_proof(proof)
    if failure is not None:
        return _violation(*failure)
    print(f"ok ({len(proof.steps)} steps)")
    return OK


def cmd_extract(args) -> int:
    from .strategy import proof_goal
    proof = rules.parse_proof(_read(args.proof))
    failure = rules.verify_proof(proof)
    if failure is not None:
        return _violation(*failure)
    _, desc = proof_goal(proof, args.level == "formula")
    text = f"strategy level={args.level}\n{rules.render_proof(proof)}\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"ok: {args.level}-level strategy for {desc} -> {args.out}")
    return OK


def _make_adversary(spec: str, seed: int):
    _load_game_layer()
    if spec == "silent":
        return SilentEnv()
    if spec == "random":
        return random_adversary(seed)
    if spec == "scripted":
        import random
        rng = random.Random(seed)
        script = tuple(rng.randrange(7) for _ in range(24))
        return scripted_adversary(script)
    if spec.startswith("script:"):
        moves = []
        for lineno, move in content_lines(_read(spec[len("script:"):])):
            if re.search(r"\s", move):
                raise HarnessError(f"line {lineno}: whitespace inside move")
            moves.append(move)
        return ScriptEnv(moves)
    raise HarnessError(
        f"unknown adversary {spec!r} (use silent, random, scripted, or script:<file>)"
    )


def cmd_simulate(args) -> int:
    setup = _setup(args, args.subject)
    if setup is None:
        return FAIL
    machine, goal, desc, interp = setup
    game = _interpret(goal, interp)
    adversary = _make_adversary(args.adversary, args.seed)
    result = simulate(machine, adversary, game, args.budget)
    print(f"game: {desc}")
    print(f"adversary: {adversary.name} budget: {args.budget}")
    print(result.render_trace())
    if result.first_illegality:
        print(f"note: {result.first_illegality}")
    return OK if result.winner is TOP else FAIL


def cmd_project(args) -> int:
    run = parse_run(_read(args.runfile))
    if args.prefix is not None:
        result = project_prefix(run, args.prefix)
    elif args.branch is not None:
        result = project_branch(run, parse_bitstring_spec(args.branch))
    else:
        try:
            cell = numeral_value(args.cell)
            if cell == 0:
                raise ValueError("no oformula 0")
        except RunError as exc:  # over the digit limit: too long to show
            raise RunError(f"bad --cell: {exc}") from None
        except ValueError as exc:
            raise RunError(f"bad --cell {args.cell!r}: expected a number like 1") from exc
        try:
            coords = tuple(map(numeral_value, args.coords.split(","))) if args.coords else ()
        except RunError as exc:
            raise RunError(f"bad --coords: {exc}") from None
        except ValueError as exc:
            raise RunError(f"bad --coords {args.coords!r}: expected numbers like 1,2") from exc
        result = project_cell(run, cell, coords)
    text = render_run(result)
    if text:
        print(text)
    return OK


def cmd_demo_separation(args) -> int:
    _load_game_layer()
    machine = PureGranter() if args.machine == "granter" else RotatingCopycat()
    report = separation_demo(machine, args.k, args.budget)
    print(report.render())
    return OK if report.conclusive else FAIL


def play_session(
    machine: MachineStrategy,
    goal: Formula | Cirquent,
    desc: str,
    interp: Interpretation,
    budget: int,
    *,
    in_stream=None,
    out_stream=None,
) -> int:
    """Interactive play of `machine` on the game of the goal, whose text is
    `desc`: the human is the environment, prompted at each grant; the
    position is shown after every labmove and the transcript is printed in
    run format at the end."""
    _load_game_layer()
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout

    def say(msg: str) -> None:
        print(msg, file=out_stream)

    class Quit(Exception):
        """The human ended the play with `quit` or the end of input."""

    class HumanEnv(EnvStrategy):
        """The environment read from `in_stream`: at each grant a prompt,
        then a move, or `pass` or an empty line to pass; `quit` or the end
        of the stream ends the play."""

        def on_grant(self, run) -> str | None:
            while True:
                say("your move>")
                line = in_stream.readline()
                text = line.strip()
                if not line or text == "quit":
                    raise Quit
                if text in ("", "pass"):
                    return None
                if not re.search(r"\s", text):
                    return text
                say("malformed move (whitespace not allowed); try again")

    position = _interpret(goal, interp).start()
    events = play(machine.spawn(), HumanEnv(), position, budget)
    say(f"playing: {desc}")
    say("you are the environment (B); at each grant enter a move, 'pass', or 'quit'")
    run: list[Labmove] = []
    try:
        for _, action, lm in events:
            if isinstance(action, MakeMove):
                say(f"machine moves: {action.move}")
            elif not isinstance(action, GrantPermission):
                say("machine idles")
            if lm is not None:
                run.append(lm)
                say("position: " + "; ".join(f"{x.player.value} {x.move}" for x in run))
            if position.offender is TOP:
                say("machine made an illegal move; environment wins")
            elif position.offender is BOT:
                say("warning: illegal move; recorded (machine wins)")
    except Quit:
        pass
    winner = position.winner()
    say(f"winner: {winner.value}")
    say("transcript:")
    say(render_run(run) or "(empty)")
    return OK if winner is TOP else FAIL


def cmd_play(args) -> int:
    setup = _setup(args, args.proof)
    if setup is None:
        return FAIL
    return play_session(*setup, args.budget)


# Argument parsing and dispatch

def _add_interp_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--interp", default="random",
                     help="interpretation file, or 'random' (default)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--depth", type=int, default=2)
    sub.add_argument("--branching", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cl15",
        description="Proof checking, strategy extraction, and game simulation "
        "for a cirquent-calculus proof system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a proof file")
    p.add_argument("proof")

    p = sub.add_parser("extract", help="extract a winning strategy from a proof")
    p.add_argument("proof")
    p.add_argument("--out", required=True)
    p.add_argument("--level", choices=("cirquent", "formula"), default="cirquent")

    p = sub.add_parser("simulate", help="play an extracted strategy against an adversary")
    p.add_argument("subject", help="proof file or extracted strategy file")
    p.add_argument("--adversary", default="silent",
                   help="silent | random | scripted | script:<file>")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--level", choices=("cirquent", "formula"), default=None)
    _add_interp_flags(p)

    p = sub.add_parser("project", help="project a run file")
    p.add_argument("runfile")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefix", help="strip this prefix, e.g. 1.")
    group.add_argument("--branch", help="infinite bitstring stem:tail, e.g. 111:1")
    group.add_argument("--cell", help="oformula index")
    p.add_argument("--coords", default="", help="cell coordinates, e.g. 1,2")

    p = sub.add_parser("demo-separation", help="bounded thread-distinctness demo")
    p.add_argument("--machine", choices=("granter", "copycat"), default="granter")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--budget", type=int, default=200)

    p = sub.add_parser("play", help="play as the environment against a proof's strategy")
    p.add_argument("proof")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--level", choices=("cirquent", "formula"), default=None)
    _add_interp_flags(p)

    return parser


_DISPATCH = {
    "check": cmd_check,
    "extract": cmd_extract,
    "simulate": cmd_simulate,
    "project": cmd_project,
    "demo-separation": cmd_demo_separation,
    "play": cmd_play,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: once per process, not at import."""
    return build_parser()


class _Stdout:
    """Standard output that drops what is written once its reader has
    closed the pipe, so that a command cut short keeps its own verdict."""

    def __init__(self, stream):
        self.stream, self.reader_gone = stream, False

    def write(self, text: str) -> None:
        self._call(self.stream.write, text)

    def flush(self) -> None:
        self._call(self.stream.flush)

    def _call(self, method, *args) -> None:
        if not self.reader_gone:
            try:
                method(*args)
            except BrokenPipeError:
                self.reader_gone = True


def main(argv=None) -> int:
    stdout = sys.stdout
    sys.stdout = guard = _Stdout(stdout)
    try:
        args = _parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # from the parser: help, or a usage error
        code = exc.code
        return code if isinstance(code, int) else USAGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RecursionError:
        # Negating, rendering and interpreting formulas, and playing their
        # games, recurse once per level; comparing them does not.
        print("error: formula nested too deeply", file=sys.stderr)
        return USAGE
    finally:
        sys.stdout = stdout
        guard.flush()
        if guard.reader_gone:
            # What is left in the buffer then goes to the null device at exit.
            with contextlib.suppress(AttributeError, OSError):
                fd = stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


if __name__ == "__main__":
    sys.exit(main())
