"""One-line mutants of src/cl15 that tier-1 tests must fail on: `python3 tests/mutants.py`.

Each entry's text must occur once in its file.  It is replaced in a fresh copy
of src/, and pytest runs the entry's arguments against that copy with `-x`,
which stops before hypothesis spends minutes shrinking a failure.  Only exit
code 1 (tests failed) kills a mutant.  Exits 1 unless every mutant is killed.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEMMAS, PLAY_LOOP = ("tests/test_rule_lemmas.py",), ("tests/test_play_loop.py",)
LISTING, ACCEPTANCE = ("tests/test_positions.py", "-k", "list"), ("tests/test_acceptance.py",)
GAMES = ("tests/test_games.py",)
ORACLE = ("tests/test_harness.py", "tests/test_acceptance.py", "tests/test_positions.py")
COHERENCE, SPAWNS = ("tests/test_strategy.py", "-k", "coherent"), ("tests/test_strategy.py", "-k", "spawns")
ROUND_TRIP = ("tests/test_strategy.py", "-k", "round_trip")
STARTUP, ERRORS = ("tests/test_cli.py", "-k", "startup or wrapper"), ("tests/test_cli.py", "-k", "input_error")
PROOF_FILES = ("tests/test_reference_parser.py", "-k", "proof_files")
READER = ("tests/test_cli.py", "-k", "canonical_reader")
CHECKER = ("tests/test_cl15.py", "-k", "reference or backward_rules")

# (file under src/cl15, text, replacement, pytest arguments)
MUTANTS = [
    # Translators.  The rest of tier-1 kills each of these too.
    ("cl15.py", "a + 1 if a >= d else a", "a + 1 if a > d else a", LEMMAS),
    ("cl15.py", 'f"{2 * k - 2 + side}.{tail}"', 'f"{2 * k + 1 - side}.{tail}"', LEMMAS),
    ("cl15.py", 'return f"{side}.{move}"', 'return f"{3 - side}.{move}"', LEMMAS),
    ("cl15.py", "c + 1 if c > a else c", "c", LEMMAS),
    ("cl15.py", "c - 1 if c > a + 1 else c", "c", LEMMAS),
    ("cl15.py", "                return j\n", "                return j - 1\n", LEMMAS),
    ("cl15.py", "for j in sorted(dropped):", "for j in sorted(dropped, reverse=True):", LEMMAS),
    # The `pst` coordinate put last in both directions instead of at its place.
    ("cl15.py", "j = self.position(premise, conclusion)", "j = len(premise.overgroups)", LEMMAS),
    # Weakening's deletion read off the checked step: an overgroup that held
    # the deleted oformula with others dropped too.
    ("cl15.py", "if g == {d}}", "if d in g}", LEMMAS),
    # The axiom cirquent without its overgroup pairs.
    ("cl15.py", "Cirquent(tuple(expected_of), pairs, pairs)", "Cirquent(tuple(expected_of), pairs, c.overgroups)",
     ("tests/test_cl15.py",)),
    # The play loop.  The adversary mutant plays as the code does (it is asked
    # whether it is settled only after it passed), so only the contract fails.
    ("harness.py", "self.MAX_MOVES or self._grants >=", "self.MAX_MOVES - 1 or self._grants >=", PLAY_LOOP),
    ("strategy.py", "if env.settled() and machine.settled(run):", "if env.settled():", PLAY_LOOP),
    # Branching listings: thread w:0's moves unfiltered, or filtered over every thread class.
    ("games.py", "if all(pos.extend(Labmove(player, m)) for _, pos in self._replay(reached))", "", LISTING),
    ("games.py", "(self.stems | {w}) if x.has_prefix(w)]", "(self.stems | {w})]", LISTING),
    # Each connective's conjunctivity: /\ played as \/, ! as ?, b! as b?.
    ("games.py", "right.start(), isinstance(f, And))", "right.start(), isinstance(f, Or))", GAMES),
    ("games.py", "(self.parts[0], isinstance(f, Pst))", "(self.parts[0], isinstance(f, Pcost))", GAMES),
    ("games.py", "(self.parts[0], isinstance(f, St))", "(self.parts[0], isinstance(f, Cost))", GAMES),
    # One mutant per translator branch of the ROADMAP's survey.
    ("cl15.py", "cs[i - 1], cs[i] = cs[i], cs[i - 1]", "cs[i - 1], cs[i] = cs[i - 1], cs[i]", ACCEPTANCE),
    ("cl15.py", "u, rest = payload\n", "u, rest = payload[0] + 1, payload[1]\n", ACCEPTANCE),
    ("strategy.py", "(a + 1 if a % 2 == 1 else a - 1, coords, rest)", "(a, coords, rest)", ACCEPTANCE),
    # Merging's diagonal moved for copies in both groups, every merged copy
    # shifted alike, or an inner move off the diagonal let out; a copy table
    # that forgets its reverse entries; and spawns that share their tables.
    ("cl15.py", "tuple(v if m else 0 for m in member)",
     "(v, v + 1) if all(member) else tuple(v if m else 0 for m in member)", COHERENCE),
    ("cl15.py", "tuple(v if m else 0 for m in member)",
     "tuple(v + i if m else 0 for i, m in enumerate(member))", ROUND_TRIP),
    ("cl15.py", "\n                    or 0 < min(pair) < max(pair))", ")", ACCEPTANCE),
    ("cl15.py", "        back[image] = key\n", "", ACCEPTANCE),
    ("strategy.py", "tuple(tr.fresh() for tr in self.translators)", "self.translators", SPAWNS),
    # The oracle's numerals: a non-ASCII digit read as a copy index.
    ("harness.py", "text.isascii() and text.isdigit()", "text.isdigit()", ("tests/test_harness.py", "-k", "ascii")),
    # The oracle's ranges and splits: no fresh copy, no fresh coordinate, the
    # sides of /\ and \/ swapped, conjunctive read as disjunctive, and a
    # cell's 0 coordinates no longer matching every vector.  Dropping the + 1
    # from the thread length is equivalent: a thread's class is fixed by its
    # first L bits, L the length of the longest stem.
    ("harness.py", "top + 2", "top + 1", ORACLE),
    ("harness.py", "default=0) + 2)", "default=0) + 1)", ORACLE),
    ("harness.py", '[(f.left, "1"), (f.right, "2")]', '[(f.left, "2"), (f.right, "1")]', ORACLE),
    ("harness.py", "(all if conjunctive else any)", "(any if conjunctive else all)", ORACLE),
    ("harness.py", "all(u == 0 or u == x", "all(u == x", ORACLE),
    # The CLI's start: the game layer imported with the CLI, or bound over a
    # wrapper put in its place; and one module's error outside the CLI's base.
    ("cli.py", "from .values import InputError\n", "from .values import InputError\nfrom . import harness\n",
     STARTUP),
    ("cli.py", "@functools.cache\ndef _load_game_layer", "def _load_game_layer", STARTUP),
    ("games.py", "class GameError(InputError):", "class GameError(ValueError):", ERRORS),
    # The proof reader: a step number one past the expected one accepted,
    # and a header followed by a header read as taking the next cirquent.
    ("cl15.py", "if m.group(1) != str(number):", "if m.group(1) not in (str(number), str(number + 1)):",
     PROOF_FILES),
    ("cl15.py", "cirquent_line, line = lines[i + 1]",
     "cirquent_line, line = next(p for p in lines[i + 1:] if not _STEP_RE.fullmatch(p[1]))", PROOF_FILES),
    # The checker: weakening taken to make its conclusion valid, and a
    # failed rule check reported before the conclusion is validated.
    ("cl15.py", 'name, mismatch = "weakening", "premise is not the arc-deletion of the conclusion"',
     'name, mismatch, implies_validity = "weakening", "premise is not the arc-deletion of the conclusion", True',
     CHECKER),
    ("cl15.py", "        if v is None:\n            return None\n", "        return v\n", CHECKER),
    # The canonical command-line reader: a value outside its choices taken,
    # and a required option let go missing.  An abbreviation mutant would
    # read what argparse reads.
    ("cli.py", 'if "choices" in keywords and value not in keywords["choices"]:', "if False:", READER),
    ("cli.py", ' or any(keywords.get("required") for keywords in options.values())', "", READER),
]


def verdict(file: str, text: str, replacement: str, args: tuple[str, ...]) -> str:
    """'killed', or why the mutant was not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "cl15" / file
        code = path.read_text(encoding="utf-8")
        count = code.count(text)
        if count != 1 or text == replacement:
            return "not applied: " + (f"{count} matches" if count != 1 else "no change")
        path.write_text(code.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
    return "killed" if status == 1 else f"not killed: pytest exit {status}"


def main() -> int:
    killed = 0
    for file, text, replacement, args in MUTANTS:
        result = verdict(file, text, replacement, args)
        killed += result == "killed"
        print(f"{result}: {file}: {text!r} -> {replacement!r} [{' '.join(args)}]", flush=True)
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
