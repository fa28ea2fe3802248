"""Benchmark of the cl15 command line: `check`, `extract` and `simulate`
run in-process through `cl15.cli.main`, one command per operation, with
every output checked against answers computed apart from the program.

    python3 bench/run.py --workload trials|long-play|deep-proof \\
        --seed N --seconds S --trace 0|1 [--smoke]

It imports the package from the `src/` beside this directory, and restarts
itself once with PYTHONHASHSEED set from the seed.  With `--trace 0` it
repeats the workload's seeded rounds of commands until S seconds of wall
time have passed and prints the end-to-end metrics.  With `--trace 1` it
runs each command of the workload's first rounds once untraced and once
traced and prints the per-layer metrics.  `--smoke` shrinks the inputs.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

# Set-up time samples per run; each imports the package in a fresh interpreter.
SETUP_SAMPLES = 10
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import cl15.cli\n"
    "print(time.perf_counter() - t)\n"
)


# Operations

@dataclass
class Play:
    """What the oracle needs to judge a play: the goal in the program's
    text form, its level, and the interpretation."""

    goal: str
    formula_level: bool
    interp_seed: int | None = None
    interp_text: str | None = None


@dataclass
class Op:
    """One CLI command and the answer it must give."""

    kind: str
    argv: list[str]
    steps: int = 0
    fail_at: int | None = None          # check: the known first bad step
    proof_text: str = ""                # extract: what the file must hold
    desc: str = ""                      # extract/simulate: rendered goal
    adversary: str = ""
    budget: int = 0
    script: list[str] | None = None
    play: Play | None = None

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(self.argv)


@dataclass
class Workload:
    rounds: list[list[Op]]
    traced_rounds: int


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def _proof_ops(work: Path, name: str, b: gen.ProofBuilder, fail_at: int,
               levels=("cirquent",)) -> tuple[list[Op], dict[str, str]]:
    """check, check of a corrupted copy, and extract at each level."""
    text = b.text()
    proof = _write(work / f"{name}.proof", text + "\n")
    bad = _write(work / f"{name}-bad{fail_at}.proof", gen.corrupt(text, fail_at) + "\n")
    ops = [
        Op("check", ["check", proof], steps=b.steps),
        Op("check", ["check", bad], steps=b.steps, fail_at=fail_at),
    ]
    strategies = {}
    for level in levels:
        out = str((work / f"{name}-{level}.strategy").relative_to(ROOT))
        desc = gen.render(b.c.of[0]) if level == "formula" else b.c.text()
        ops.append(Op("extract", ["extract", proof, "--out", out, "--level", level],
                      steps=b.steps, proof_text=text, desc=desc))
        strategies[level] = out
    return ops, strategies


def trials(seed: int, work: Path, smoke: bool) -> Workload:
    """Criterion-5 traffic: p1 and p2 at both levels against the silent,
    random and scripted adversaries under the default random
    interpretation, budget 200.  Each round draws fresh play seeds; the
    rounds repeat with a period of `cycle`."""
    rng = random.Random(f"trials:{seed}")
    cycle = 2 if smoke else 100
    proofs = gen.fixture_proofs()
    rounds = []
    for _ in range(cycle):
        ops: list[Op] = []
        for name, b in proofs.items():
            proof_ops, strategies = _proof_ops(work, name, b, rng.randint(1, b.steps),
                                               levels=("cirquent", "formula"))
            ops += proof_ops
            for level, path in strategies.items():
                formula_level = level == "formula"
                desc = gen.render(b.c.of[0]) if formula_level else b.c.text()
                for adversary in ("silent", "random", "scripted"):
                    s = rng.randrange(1_000_000)
                    ops.append(Op(
                        "simulate",
                        ["simulate", path, "--adversary", adversary, "--seed", str(s),
                         "--budget", "200"],
                        desc=desc, adversary=adversary, budget=200,
                        play=Play(desc, formula_level, interp_seed=s)))
        rounds.append(ops)
    return Workload(rounds, traced_rounds=min(cycle, 10))


def _script_ops(work: Path, name: str, b: gen.ProofBuilder, interp: gen.Interp,
                script: list[str], budget: int, rng: random.Random,
                repeat: int = 1) -> list[Op]:
    """`repeat` times check, corrupted check and extract; then the scripted
    play under the interpretation file, and a silent play under the default
    random interpretation."""
    ops, strategies = _proof_ops(work, name, b, rng.randint(1, b.steps))
    ops *= repeat
    interp_path = _write(work / f"{name}.interp", interp.text())
    script_path = _write(work / f"{name}.script", "\n".join(script) + "\n")
    desc = b.c.text()
    s = rng.randrange(1_000_000)
    ops += [
        Op("simulate",
           ["simulate", strategies["cirquent"], "--adversary", f"script:{script_path}",
            "--interp", interp_path, "--budget", str(budget)],
           desc=desc, adversary="script", budget=budget, script=script,
           play=Play(desc, False, interp_text=interp.text())),
        Op("simulate", ["simulate", strategies["cirquent"], "--seed", str(s)],
           desc=desc, adversary="silent", budget=200, play=Play(desc, False, interp_seed=s)),
    ]
    return ops


def long_play(seed: int, work: Path, smoke: bool) -> Workload:
    """Three chain-game plays of 100-200 labmoves under 1, 2 and 3
    overgroups; game evaluation does almost all the work.  The proofs are
    tiny, so their check and extract commands run five times a round, which
    keeps the medians of those few-millisecond commands steady."""
    rng = random.Random(f"long-play:{seed}")
    shapes = [(1, 2, 100), (2, 2, 60), (3, 1, 50)]
    if smoke:
        shapes = [(1, 2, 6), (2, 2, 6), (3, 2, 4)]
    ops: list[Op] = []
    for i, (overgroups, cells, env_moves) in enumerate(shapes):
        lp = gen.long_play(rng, overgroups, cells, env_moves)
        ops += _script_ops(work, f"long{i}", lp.proof, lp.interp, lp.script, lp.budget, rng,
                           repeat=5)
    return Workload([ops], traced_rounds=1)


def deep_proof(seed: int, work: Path, smoke: bool) -> Workload:
    """Four proofs of 100-300 steps, one per size band, each checked,
    checked corrupted, extracted and played for a few tens of labmoves
    under one overgroup; parsing, verification and the translator chain do
    almost all the work."""
    rng = random.Random(f"deep-proof:{seed}")
    targets = [20, 30] if smoke else [100, 150, 200, 250]
    ops: list[Op] = []
    for i, target in enumerate(targets):
        b = gen.deep_proof(rng, target)
        interp = gen.Interp({n: gen.bushy_game(3, rng.choice("TB")) for n in gen.ATOMS})
        script = gen.deep_script(b.c, rng, 12)
        ops += _script_ops(work, f"deep{i}", b, interp, script, 2 * len(script) + 10, rng)
    return Workload([ops], traced_rounds=1)


WORKLOADS = {"trials": trials, "long-play": long_play, "deep-proof": deep_proof}


# Running and checking

_MOVE_RE = re.compile(r"\d+ (?:M:move (\S+)|E:(\S+))$")
_WINNER_RE = re.compile(r"winner: T grants:\d+$")


def final_run(out: str) -> list[tuple[str, str]]:
    """The labmoves of a simulate transcript, as (player, move)."""
    run = []
    for line in out.splitlines():
        m = _MOVE_RE.fullmatch(line)
        if m:
            run.append(("T", m.group(1)) if m.group(1) else ("B", m.group(2)))
    return run


def _normalize(text: str) -> list[str]:
    return [" ".join(line.split()) for line in text.splitlines() if line.strip()]


def check_output(op: Op, rc: int, out: str) -> str | None:
    """None if the command gave the known answer, else what was wrong."""
    if op.kind == "check":
        if op.fail_at is None:
            want = f"ok ({op.steps} steps)\n"
            return None if (rc, out) == (0, want) else f"want exit 0 and {want!r}"
        prefix = f"step {op.fail_at}: violation: "
        ok = rc == 1 and out.startswith(prefix) and out.count("\n") == 1
        return None if ok else f"want exit 1 and {prefix!r}"
    if op.kind == "extract":
        out_path, level = op.argv[3], op.argv[5]
        want = f"ok: {level}-level strategy for {op.desc} -> {out_path}\n"
        if (rc, out) != (0, want):
            return f"want exit 0 and {want!r}"
        written = (ROOT / out_path).read_text(encoding="utf-8")
        header, _, body = written.partition("\n")
        if header != f"strategy level={level}" or _normalize(body) != _normalize(op.proof_text):
            return "strategy file does not hold the input proof"
        return None
    lines = out.splitlines()
    if rc != 0 or len(lines) < 3 or not _WINNER_RE.fullmatch(lines[-1]):
        return "play not won by the machine"
    if lines[0] != f"game: {op.desc}" or lines[1] != f"adversary: {op.adversary} budget: {op.budget}":
        return "wrong play header"
    if any(line.startswith("note:") for line in lines):
        return "play ended on an illegal move"
    if op.script is not None and [m for p, m in final_run(out) if p == "B"] != op.script:
        return "the environment's script was not played in full"
    return None


def oracle_verdict(play: Play, run: list[tuple[str, str]]) -> str | None:
    """Judge the final run with the brute-force oracle of cl15.harness."""
    from cl15.cirquent import parse_cirquent
    from cl15.cli import parse_interpretation
    from cl15.formula import atoms, parse_formula
    from cl15.harness import brute_force_winner, random_finite_interpretation
    from cl15.runs import BOT, TOP, Labmove

    goal = parse_formula(play.goal) if play.formula_level else parse_cirquent(play.goal)
    if play.interp_text is not None:
        interp = parse_interpretation(play.interp_text)
    else:
        names = atoms(goal) if play.formula_level else frozenset().union(*map(atoms, goal.oformulas))
        interp = random_finite_interpretation(sorted(names), 2, 2, play.interp_seed)
    labmoves = tuple(Labmove(TOP if p == "T" else BOT, m) for p, m in run)
    winner = brute_force_winner(goal, interp, labmoves)
    return None if winner is TOP else f"oracle says {winner.value} wins"


class Speed:
    """The machine's speed through a run, from a fixed pure-Python loop
    timed between commands.  This virtual machine's speed drifts by 10-20 %
    over minutes, the same for the loop as for the program, so command times
    are scaled to the speed at which the loop takes REF_S seconds."""

    REF_S = 0.006
    EVERY_S = 0.2

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    @staticmethod
    def _loop() -> None:
        seen: dict[tuple[str, tuple[int, ...]], int] = {}
        for i in range(2000):
            move = f"{i % 13};{i % 7},{i % 5}.m{i}"
            cell, _, rest = move.partition(";")
            coords = tuple(int(x) for x in rest.partition(".")[0].split(","))
            seen[cell, coords] = seen.get((cell, coords), 0) + 1

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= self.EVERY_S:
            self._loop()
            self.at.append(now)
            self.took.append(time.perf_counter() - now)

    def factor(self, t: float) -> float:
        """REF_S over the median loop time of the samples around time t."""
        i = bisect.bisect(self.at, t)
        return self.REF_S / statistics.median(self.took[max(0, i - 2):i + 2])


@dataclass
class Totals:
    """Times of the commands that did not fail.  Every command counts with
    the median time of its repetitions in the run, so a stretch of run
    during which the machine is slow weighs no more than its share."""

    ops: int = 0
    failed: int = 0
    times: dict[tuple[str, ...], list[tuple[float, float]]] = field(default_factory=dict)
    work: dict[tuple[str, ...], tuple[str, int]] = field(default_factory=dict)

    def record(self, op: Op, start: float, elapsed: float, units: int) -> None:
        self.times.setdefault(op.key, []).append((start, elapsed))
        self.work[op.key] = (op.kind, units)

    def seconds(self, kind: str | None = None, speed: Speed | None = None) -> float:
        """Command time; with `speed`, scaled to the reference speed."""
        total = 0.0
        for key, runs in self.times.items():
            if kind in (None, self.work[key][0]):
                scaled = [e * speed.factor(t) if speed else e for t, e in runs]
                total += len(runs) * statistics.median(scaled)
        return total

    def units(self, kind: str | None = None) -> int:
        """Proof steps (check, extract) or final labmoves (simulate) of the
        commands run; with no kind, the number of commands."""
        return sum(len(self.times[key]) * (units if kind else 1)
                   for key, (k, units) in self.work.items() if kind in (None, k))


class Runner:
    """Runs operations, times `cl15.cli.main` alone, and checks outputs.
    A command that raises or exits with 2 has failed; a wrong answer from a
    command that did not fail makes the run incorrect."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.seen: dict[tuple[str, ...], str] = {}
        self.plays: dict[tuple[str, ...], tuple[Play, list]] = {}

    def run(self, op: Op, totals: Totals) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception as exc:  # a traceback from the program is a failed command
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        totals.ops += 1
        if rc is None or rc == 2:
            totals.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(op.argv)}: {err.getvalue().strip()[-200:]}")
            return
        text = out.getvalue()
        totals.record(op, start, elapsed,
                      len(final_run(text)) if op.kind == "simulate" else op.steps)
        previous = self.seen.get(op.key)
        if previous is None:
            self.seen[op.key] = text
            problem = check_output(op, rc, text)
            if problem:
                self._error(op, problem)
            elif op.play is not None:
                self.plays[op.key] = (op.play, final_run(text))
        elif text != previous:
            self._error(op, "output differs from the same command's earlier output")

    def judge_plays(self) -> None:
        for key, (play, run) in self.plays.items():
            try:
                verdict = oracle_verdict(play, run)
            except Exception as exc:  # the oracle's own limits, reported as a wrong answer
                verdict = f"oracle raised {type(exc).__name__}: {exc}"
            if verdict:
                self.errors.append(f"{' '.join(key)}: {verdict}")

    def _error(self, op: Op, problem: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{' '.join(op.argv)}: {problem}")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import `cl15.cli`: the work the
    program does before its first command."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def timed(runner: Runner, wl: Workload, seconds: float) -> tuple[Totals, Speed, float]:
    """Whole rounds, cycling, until `seconds` of wall time have passed.
    Between commands the machine's speed is sampled, and about every tenth
    of the run the set-up time, so that its median sees the same machine as
    the rates do."""
    totals, speed = Totals(), Speed()
    setup = [import_time()]
    speed.sample(force=True)
    start = time.perf_counter()
    next_setup = start + seconds / SETUP_SAMPLES
    i = 0
    while True:
        for op in wl.rounds[i % len(wl.rounds)]:
            runner.run(op, totals)
            speed.sample()
            if time.perf_counter() >= next_setup:
                setup.append(import_time())
                next_setup = time.perf_counter() + seconds / SETUP_SAMPLES
        i += 1
        if time.perf_counter() - start >= seconds:
            speed.sample(force=True)
            return totals, speed, statistics.median(setup)


def end_to_end(totals: Totals, speed: Speed, setup_s: float, peak_kb: int) -> dict[str, dict]:
    def rate(kind=None):
        seconds = totals.seconds(kind, speed)
        return totals.units(kind) / seconds if seconds > 0 else 0.0

    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate(), "1/s"),
        "check_steps_per_s": (rate("check"), "1/s"),
        "extract_steps_per_s": (rate("extract"), "1/s"),
        "labmoves_per_s": (rate("simulate"), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(runner: Runner, wl: Workload) -> tuple[Totals, dict[str, dict], list[str]]:
    """Each command of the workload's first rounds once untraced, then once
    traced; the per-layer figures are totals over the traced commands."""
    from tracing import Tracer

    plain, traced, tracer = Totals(), Totals(), Tracer()
    for op in (op for r in wl.rounds[:wl.traced_rounds] for op in r):
        runner.run(op, plain)
        tracer.install()
        try:
            runner.run(op, traced)
        finally:
            tracer.uninstall()
    spans = tracer.report()
    values: dict[str, tuple[float, str]] = {}
    for name in ("games.legal", "games.winner", "harness.on_grant", "strategy.machine_next",
                 "cl15.check_step", "cl15.verify_proof"):
        values[f"{name}.calls"] = (spans[name].calls, "count")
    for name in ("games.legal", "games.winner", "games.interpret", "harness.random_interp",
                 "harness.on_grant", "strategy.machine_next", "strategy.simulate",
                 "strategy.extract_solution", "cl15.check_step", "cl15.parse_proof",
                 "cl15.verify_proof", "cli.main"):
        values[f"{name}.self_s"] = (spans[name].self_s, "s")
    values["games.legal.labmoves"] = (tracer.legal_labmoves, "count")
    values["harness.probe_accept_ratio"] = (
        tracer.probes_accepted / tracer.probes if tracer.probes else 0.0, "ratio")
    values["trace.overhead_s"] = (traced.seconds() - plain.seconds(), "s")
    values["src.lines"] = (sum(len(p.read_text(encoding="utf-8").splitlines())
                               for p in SRC.rglob("*.py")), "count")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(values.items())}
    return traced, metrics, sorted(tracer.absent)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = parser.parse_args()

    # The random and scripted adversaries choose among moves in set order,
    # which follows the interpreter's string hash seed.  Fixing that seed
    # from --seed makes one seed give the same plays in every run.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})

    if not (SRC / "cl15" / "cli.py").is_file():
        print(f"error: no cl15 package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import cl15.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "cl15":
        print(f"error: imported cl15 from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, args.smoke)
        if args.trace:
            totals, metrics, absent = per_layer(runner, wl)
            if absent:
                print(f"absent spans (reported as 0): {', '.join(absent)}")
        else:
            totals, speed, setup_s = timed(runner, wl, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(totals, speed, setup_s, peak_kb)
        runner.judge_plays()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in runner.failures:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in runner.errors:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": totals.ops,
        "failed": totals.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
