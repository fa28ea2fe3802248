"""Input generators for the benchmark workloads.

Everything here is computed apart from the program under test: formulas,
cirquents and rule applications have their own small implementation, so a
proof that this module calls valid is valid by construction, and a corrupted
copy fails at the step this module knows.  The program sees only the text
files written from these objects.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# Formulas are tuples: ("atom", name, origin), ("neg", name, origin),
# ("or", l, r), ("and", l, r), ("pst", body), ("pcost", body).  `origin`
# marks the atoms of the axiom, the only ones whose moves the machine's
# mirror answers; it is not part of the formula's text.

ATOMS = ("P", "Q")


def atom(name: str, origin: bool = False):
    return ("atom", name, origin)


def negate(f):
    """Negation pushed to the atoms, by duality."""
    kind = f[0]
    if kind == "atom":
        return ("neg", *f[1:])
    if kind == "neg":
        return ("atom", *f[1:])
    if kind in ("or", "and"):
        return ("and" if kind == "or" else "or", negate(f[1]), negate(f[2]))
    return ("pcost" if kind == "pst" else "pst", negate(f[1]))


def _prec(f) -> int:
    return {"or": 1, "and": 2}.get(f[0], 3)


def render(f) -> str:
    """The program's canonical text: minimal parentheses, `\\/` loosest."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "neg":
        return "~" + f[1]
    if kind in ("pst", "pcost"):
        body = render(f[1])
        if _prec(f[1]) < 3:
            body = f"({body})"
        return ("!" if kind == "pst" else "?") + body
    p = _prec(f)
    left, right = render(f[1]), render(f[2])
    if _prec(f[1]) < p:
        left = f"({left})"
    if _prec(f[2]) <= p:
        right = f"({right})"
    sym = "\\/" if kind == "or" else "/\\"
    return f"{left} {sym} {right}"


def nodes(f) -> int:
    if f[0] in ("atom", "neg"):
        return 1
    return 1 + sum(nodes(x) for x in f[1:])


# Cirquents: oformula list plus positional undergroups and overgroups,
# 1-based indices.

@dataclass(frozen=True)
class Cirq:
    of: tuple
    un: tuple[frozenset, ...]
    ov: tuple[frozenset, ...]

    @property
    def size(self) -> int:
        return len(self.of)

    def text(self) -> str:
        def groups(gs):
            return "".join("{" + ",".join(str(i) for i in sorted(g)) + "}" for g in gs)

        return (f"oformulas: {' | '.join(render(f) for f in self.of)} ; "
                f"under: {groups(self.un)} ; over: {groups(self.ov)}")

    def valid(self) -> bool:
        everything = set(range(1, self.size + 1))
        return (
            self.size > 0 and bool(self.un) and bool(self.ov)
            and all(g and g <= everything for g in self.un + self.ov)
            and all(any(a in g for g in self.un) for a in everything)
            and all(any(a in g for g in self.ov) for a in everything)
        )

    def unders_of(self, a: int) -> list[int]:
        return [i for i, g in enumerate(self.un, start=1) if a in g]

    def overs_of(self, a: int) -> list[int]:
        return [j for j, g in enumerate(self.ov, start=1) if a in g]


def _remap(groups, fn):
    return tuple(frozenset(fn(i) for i in g) for g in groups)


def _swap(i: int):
    return lambda a: i + 1 if a == i else i if a == i + 1 else a


def _fold_into(a: int):
    """Index map for deleting oformula a+1 into a."""
    return lambda c: a if c == a + 1 else c - 1 if c > a + 1 else c


class ProofBuilder:
    """Applies rules forward from an axiom and records the proof text.  Each
    method computes the conclusion itself and asserts it is a valid cirquent;
    the preconditions of each rule are asserted too, so a generator bug
    surfaces here rather than as a program fault."""

    def __init__(self, formulas):
        of = []
        for f in formulas:
            of += [negate(f), f]
        pairs = tuple(frozenset({2 * i - 1, 2 * i}) for i in range(1, len(formulas) + 1))
        self.c = Cirq(tuple(of), pairs, pairs)
        self.lines: list[str] = []
        self.rules: list[str] = []
        self._emit("axiom", "")

    @property
    def steps(self) -> int:
        return len(self.rules)

    def text(self) -> str:
        return "\n".join(self.lines)

    def _emit(self, rule: str, params: str, c: Cirq | None = None) -> None:
        if c is not None:
            self.c = c
        assert self.c.valid(), (rule, self.c)
        self.rules.append(rule)
        self.lines.append(f"step {len(self.rules)}: rule={rule}{params}")
        self.lines.append(self.c.text())

    # Structural rules

    def exchange_oformulas(self, i: int) -> None:
        c = self.c
        assert 1 <= i < c.size
        of = list(c.of)
        of[i - 1], of[i] = of[i], of[i - 1]
        self._emit("exchange_oformulas", f" pos={i}",
                   Cirq(tuple(of), _remap(c.un, _swap(i)), _remap(c.ov, _swap(i))))

    def exchange_unders(self, i: int) -> None:
        c = self.c
        assert 1 <= i < len(c.un)
        un = list(c.un)
        un[i - 1], un[i] = un[i], un[i - 1]
        self._emit("exchange_unders", f" pos={i}", Cirq(c.of, tuple(un), c.ov))

    def exchange_overs(self, i: int) -> None:
        c = self.c
        assert 1 <= i < len(c.ov)
        ov = list(c.ov)
        ov[i - 1], ov[i] = ov[i], ov[i - 1]
        self._emit("exchange_overs", f" pos={i}", Cirq(c.of, c.un, tuple(ov)))

    def dup_under(self, i: int) -> None:
        c = self.c
        un = list(c.un)
        un.insert(i, un[i - 1])
        self._emit("dup_under", f" pos={i}", Cirq(c.of, tuple(un), c.ov))

    def dup_over(self, i: int) -> None:
        c = self.c
        ov = list(c.ov)
        ov.insert(i, ov[i - 1])
        self._emit("dup_over", f" pos={i}", Cirq(c.of, c.un, tuple(ov)))

    def merging(self, j: int) -> None:
        c = self.c
        assert 1 <= j < len(c.ov)
        ov = list(c.ov)
        ov[j - 1:j + 1] = [ov[j - 1] | ov[j]]
        self._emit("merging", f" over={j}", Cirq(c.of, c.un, tuple(ov)))

    # Weakening, forward: add an arc, or add a new oformula in one undergroup

    def weakening_arc(self, u: int, a: int) -> None:
        c = self.c
        assert a not in c.un[u - 1] and c.unders_of(a)
        un = list(c.un)
        un[u - 1] = un[u - 1] | {a}
        self._emit("weakening", f" under={u} oformula={a}", Cirq(c.of, tuple(un), c.ov))

    def weakening_new(self, d: int, f, u: int, overs, singleton_at: int | None = None) -> None:
        """New oformula f at position d, in undergroup u only and in the
        given existing overgroups; with `singleton_at`, also in a new
        overgroup {d} inserted at that position."""
        c = self.c
        assert 1 <= d <= c.size + 1 and (overs or singleton_at)
        shift = lambda x: x + 1 if x >= d else x  # noqa: E731
        of = list(c.of)
        of.insert(d - 1, f)
        un = list(_remap(c.un, shift))
        un[u - 1] = un[u - 1] | {d}
        ov = [g | {d} if j in overs else g for j, g in enumerate(_remap(c.ov, shift), start=1)]
        if singleton_at is not None:
            ov.insert(singleton_at - 1, frozenset({d}))
        self._emit("weakening", f" under={u} oformula={d}", Cirq(tuple(of), tuple(un), tuple(ov)))

    # Introduction rules and contraction

    def _same_membership(self, a: int) -> bool:
        return all((a in g) == (a + 1 in g) for g in self.c.un + self.c.ov)

    def or_intro(self, a: int) -> None:
        c = self.c
        assert self._same_membership(a)
        of = list(c.of)
        of[a - 1:a + 1] = [("or", of[a - 1], of[a])]
        self._emit("or", f" oformula={a}",
                   Cirq(tuple(of), _remap(c.un, _fold_into(a)), _remap(c.ov, _fold_into(a))))

    def contraction(self, a: int) -> None:
        c = self.c
        assert self._same_membership(a) and c.of[a - 1] == c.of[a] and c.of[a - 1][0] == "pcost"
        of = list(c.of)
        del of[a]
        self._emit("contraction", f" oformula={a}",
                   Cirq(tuple(of), _remap(c.un, _fold_into(a)), _remap(c.ov, _fold_into(a))))

    def and_intro(self, a: int) -> None:
        """Each undergroup holding a must be followed by its copy with a+1
        in place of a; no undergroup holds both."""
        c = self.c
        assert all((a in g) == (a + 1 in g) for g in c.ov)
        un: list[frozenset] = []
        i = 0
        while i < len(c.un):
            g = c.un[i]
            assert a + 1 not in g
            if a in g:
                assert i + 1 < len(c.un) and c.un[i + 1] == (g - {a}) | {a + 1}
                i += 1
            un.append(g)
            i += 1
        of = list(c.of)
        of[a - 1:a + 1] = [("and", of[a - 1], of[a])]
        self._emit("and", f" oformula={a}",
                   Cirq(tuple(of), _remap(un, _fold_into(a)), _remap(c.ov, _fold_into(a))))

    def pst(self, a: int) -> None:
        c = self.c
        single = [j for j, g in enumerate(c.ov, start=1) if g == {a}]
        assert single and len(c.overs_of(a)) > 1
        ov = list(c.ov)
        del ov[single[0] - 1]
        of = list(c.of)
        of[a - 1] = ("pst", of[a - 1])
        self._emit("pst", f" oformula={a}", Cirq(tuple(of), c.un, tuple(ov)))

    def pcost(self, a: int, add_over) -> None:
        c = self.c
        of = list(c.of)
        of[a - 1] = ("pcost", of[a - 1])
        ov = [g - {a} if j in add_over else g for j, g in enumerate(c.ov, start=1)]
        inner = ",".join(str(j) for j in sorted(add_over))
        self._emit("pcost", f" oformula={a} add_over={{{inner}}}", Cirq(tuple(of), c.un, tuple(ov)))


def corrupt(proof_text: str, k: int) -> str:
    """Copy of the proof whose step k repeats its last undergroup.  Every
    rule fixes the undergroup count of one side from the other, so step k
    fails while steps before it still hold: k is the first bad step."""
    lines = proof_text.split("\n")
    line = lines[2 * k - 1]
    head, sep, over = line.rpartition(" ; over:")
    last = head[head.rindex("{"):]
    lines[2 * k - 1] = head + last + sep + over
    return "\n".join(lines)


# The bundled fixture proofs, rebuilt: the criterion-5 subjects.

def fixture_proofs() -> dict[str, ProofBuilder]:
    p1 = ProofBuilder([atom("P")])
    p1.or_intro(1)
    p2 = ProofBuilder([atom("P")])
    p2.dup_over(1)
    p2.pcost(1, {2})
    p2.pst(2)
    p2.or_intro(1)
    return {"p1": p1, "p2": p2}


# Deep proofs: a seeded random walk over blocks of rule applications.

_CAP_SIZE, _CAP_UNDERS, _CAP_OVERS, _CAP_NODES = 6, 4, 4, 9


def _small(rng: random.Random, origin: bool = False):
    f = atom(rng.choice(ATOMS), origin)
    return negate(f) if rng.random() < 0.5 else f


def _block_or_new(b: ProofBuilder, rng: random.Random) -> bool:
    """Insert a new atom beside oformula a with a's membership, then `or`."""
    c = b.c
    cands = [a for a in range(1, c.size + 1) if nodes(c.of[a - 1]) < _CAP_NODES]
    if not cands:
        return False
    a = rng.choice(cands)
    unders = c.unders_of(a)
    b.weakening_new(a + 1, _small(rng), unders[0], set(c.overs_of(a)))
    for u in unders[1:]:
        b.weakening_arc(u, a + 1)
    b.or_intro(a)
    return True


def _block_contraction(b: ProofBuilder, rng: random.Random) -> bool:
    """Insert a copy of a `?` oformula beside it, then contract the pair."""
    c = b.c
    cands = [a for a in range(1, c.size + 1) if c.of[a - 1][0] == "pcost"]
    if not cands:
        return False
    a = rng.choice(cands)
    unders = c.unders_of(a)
    b.weakening_new(a + 1, c.of[a - 1], unders[0], set(c.overs_of(a)))
    for u in unders[1:]:
        b.weakening_arc(u, a + 1)
    b.contraction(a)
    return True


def _block_and_new(b: ProofBuilder, rng: random.Random) -> bool:
    """For a in exactly one undergroup g: insert a new atom at a+1 in
    another undergroup h, equalize the rest of g and h with arcs, move h
    right after g, then `and`."""
    c = b.c
    cands = [
        a for a in range(1, c.size + 1)
        if len(c.unders_of(a)) == 1 and len(c.un) > 1 and nodes(c.of[a - 1]) < _CAP_NODES
    ]
    if not cands:
        return False
    a = rng.choice(cands)
    g = c.unders_of(a)[0]
    h = rng.choice([i for i in range(1, len(c.un) + 1) if i != g])
    d = a + 1
    b.weakening_new(d, _small(rng), h, set(c.overs_of(a)))
    rest_g = b.c.un[g - 1] - {a}
    rest_h = b.c.un[h - 1] - {d}
    for x in sorted(rest_h - rest_g):
        b.weakening_arc(g, x)
    for x in sorted(rest_g - rest_h):
        b.weakening_arc(h, x)
    while h != g + 1:
        if h > g + 1:
            b.exchange_unders(h - 1)
            h -= 1
        else:
            b.exchange_unders(h)
            if h + 1 == g:
                g -= 1
            h += 1
    b.and_intro(a)
    return True


def _block_pcost(b: ProofBuilder, rng: random.Random) -> bool:
    c = b.c
    cands = [a for a in range(1, c.size + 1) if nodes(c.of[a - 1]) < _CAP_NODES]
    if not cands:
        return False
    a = rng.choice(cands)
    overs = c.overs_of(a)
    removable = [j for j in overs if len(c.ov[j - 1]) > 1]
    rng.shuffle(removable)
    take = rng.randint(0, min(len(removable), len(overs) - 1))
    b.pcost(a, set(removable[:take]))
    return True


def _block_pst_new(b: ProofBuilder, rng: random.Random) -> bool:
    """Insert a new atom with a singleton overgroup, then `pst` on it."""
    c = b.c
    if c.size >= _CAP_SIZE:
        return False
    d = rng.randint(1, c.size + 1)
    b.weakening_new(d, _small(rng), rng.randint(1, len(c.un)),
                    {rng.randint(1, len(c.ov))}, singleton_at=rng.randint(1, len(c.ov) + 1))
    b.pst(d)
    return True


def _block_shrink(b: ProofBuilder, rng: random.Random) -> bool:
    """Join two neighbours with `or`, merging overgroups until some pair has
    equal overgroup membership and adding arcs until the undergroups agree."""
    if b.c.size < 2:
        return False
    while True:
        c = b.c
        pairs = [a for a in range(1, c.size) if all((a in g) == (a + 1 in g) for g in c.ov)]
        if pairs:
            break
        b.merging(rng.randint(1, len(c.ov) - 1))
    a = rng.choice(pairs)
    for u in b.c.unders_of(a):
        if a + 1 not in b.c.un[u - 1]:
            b.weakening_arc(u, a + 1)
    for u in b.c.unders_of(a + 1):
        if a not in b.c.un[u - 1]:
            b.weakening_arc(u, a)
    b.or_intro(a)
    return True


def _one_step(kind: str):
    def block(b: ProofBuilder, rng: random.Random) -> bool:
        c = b.c
        if kind == "exchange_oformulas" and c.size > 1:
            b.exchange_oformulas(rng.randint(1, c.size - 1))
        elif kind == "exchange_unders" and len(c.un) > 1:
            b.exchange_unders(rng.randint(1, len(c.un) - 1))
        elif kind == "exchange_overs" and len(c.ov) > 1:
            b.exchange_overs(rng.randint(1, len(c.ov) - 1))
        elif kind == "dup_under" and len(c.un) < _CAP_UNDERS:
            b.dup_under(rng.randint(1, len(c.un)))
        elif kind == "dup_over" and len(c.ov) < _CAP_OVERS:
            b.dup_over(rng.randint(1, len(c.ov)))
        elif kind == "merging" and len(c.ov) > 1:
            b.merging(rng.randint(1, len(c.ov) - 1))
        elif kind == "weakening":
            arcs = [(u, a) for u in range(1, len(c.un) + 1)
                    for a in range(1, c.size + 1) if a not in c.un[u - 1]]
            if not arcs:
                return False
            b.weakening_arc(*rng.choice(arcs))
        else:
            return False
        return True

    return block


_BLOCKS = [
    (_one_step("exchange_oformulas"), 3.0),
    (_one_step("exchange_unders"), 2.0),
    (_one_step("exchange_overs"), 2.0),
    (_one_step("dup_under"), 1.0),
    (_one_step("dup_over"), 1.5),
    (_one_step("merging"), 1.5),
    (_one_step("weakening"), 1.0),
    (_block_or_new, 1.0),
    (_block_and_new, 1.0),
    (_block_pcost, 1.0),
    (_block_pst_new, 1.0),
    (_block_contraction, 1.0),
]


def deep_proof(rng: random.Random, target: int, final_size: int = 4) -> ProofBuilder:
    """A proof of about `target` steps (never more than target + 40) over
    cirquents of at most six oformulas, ending in a cirquent with one
    overgroup and at most `final_size` oformulas.  The walk opens with one
    block of each introduction kind so that every rule with a translator
    occurs."""
    b = ProofBuilder([_small(rng, True), _small(rng, True)])
    opening = [_block_and_new, _block_pcost, _block_contraction, _block_or_new, _block_pst_new]
    rng.shuffle(opening)
    for block in opening:
        block(b, rng)
    blocks, weights = zip(*_BLOCKS)
    while b.steps < target:
        if b.c.size >= _CAP_SIZE - 1 and rng.random() < 0.5:
            _block_shrink(b, rng)
            continue
        rng.choices(blocks, weights)[0](b, rng)
    while len(b.c.ov) > 1:
        b.merging(rng.randint(1, len(b.c.ov) - 1))
    while b.c.size > final_size:
        _block_shrink(b, rng)
    return b


# Interpretations and scripts

@dataclass
class Interp:
    """Finite atom games given as explicit position lists (the program's
    interpretation file format)."""

    games: dict[str, list[tuple[tuple[tuple[str, str], ...], str]]] = field(default_factory=dict)

    def text(self) -> str:
        out = ["interpretation"]
        for name, positions in self.games.items():
            out.append(f"atom {name}")
            for run, label in positions:
                moves = "; ".join(f"{p} {m}" for p, m in run) if run else "()"
                out.append(f"{moves} => {label}")
        return "\n".join(out) + "\n"


def chain_game(players: list[str], moves: list[str], first_label: str):
    """One path: the k-th labmove is (players[k], moves[k]); labels
    alternate along it, so stopping one move short flips the winner."""
    other = {"T": "B", "B": "T"}
    out, label = [], first_label
    for k in range(len(moves) + 1):
        out.append((tuple(zip(players[:k], moves[:k])), label))
        label = other[label]
    return out


def bushy_game(depth: int, first_label: str):
    """Every run of length <= depth over the labmoves `T 1` and `B 1`,
    labels alternating with length."""
    other = {"T": "B", "B": "T"}
    out, level, label = [], [()], first_label
    for _ in range(depth + 1):
        out += [(run, label) for run in level]
        level = [run + (lm,) for run in level for lm in (("T", "1"), ("B", "1"))]
        label = other[label]
    return out


@dataclass
class LongPlay:
    """A proof whose final cirquent keeps the axiom's mirror pairs, played
    by a script that drives chain games cell by cell."""

    proof: ProofBuilder
    interp: Interp
    script: list[str]
    budget: int


def long_play(rng: random.Random, overgroups: int, cells: int, env_moves: int) -> LongPlay:
    """Axiom on one atom, `dup_over` up to the overgroup count, plus seeded
    exchanges and an undergroup duplication, padded to 40 steps with seeded
    exchanges and `dup_over`/`merging` pairs that leave the cirquent as it
    was, so that checking the proof takes long enough to time steadily;
    with one overgroup the pair is closed under `or`.  The script opens
    `cells` coordinate vectors and, in each, walks the atom's chain game: a
    B-move of the chain goes to the positive oformula, a T-move to the
    negated one (where the environment's move reads as the machine's), and
    the machine's mirror completes it."""
    name = rng.choice(ATOMS)
    b = ProofBuilder([atom(name)])
    for _ in range(overgroups - 1):
        b.dup_over(rng.randint(1, len(b.c.ov)))
    extras = ["exchange_oformulas", "dup_under", "exchange_unders"]
    if overgroups > 1:
        extras.append("exchange_overs")
    rng.shuffle(extras)
    for kind in extras:
        _one_step(kind)(b, rng)
    while b.steps < 40:
        kind = rng.choice(["exchange_oformulas", "exchange_unders", "exchange_overs", "dup_over"])
        if kind == "dup_over":
            j = rng.randint(1, len(b.c.ov))
            b.dup_over(j)
            b.merging(j)
        else:
            _one_step(kind)(b, rng)
    if overgroups == 1:
        b.or_intro(1)
    per_cell = -(-env_moves // cells)
    players = [rng.choice("TB") for _ in range(per_cell)]
    moves = [f"m{rng.randrange(1000)}x{k}" for k in range(per_cell)]
    interp = Interp({name: chain_game(players, moves, rng.choice("TB"))})
    c = b.c
    coords = [rng.sample(range(1, cells + 2), cells) for _ in c.ov]
    schedule = [cell for cell in range(cells) for _ in range(per_cell)][:env_moves]
    rng.shuffle(schedule)
    pos = [0] * cells
    script = []
    for cell in schedule:
        k = pos[cell]
        pos[cell] += 1
        positive = players[k] == "B"
        vector = ",".join(str(coords[j][cell]) for j in range(len(c.ov)))
        if c.size == 1:
            side = next(i for i, f in enumerate(c.of[0][1:], start=1)
                        if (f[0] == "atom") == positive)
            script.append(f"1;{vector}.{side}.{moves[k]}")
        else:
            a = next(i for i, f in enumerate(c.of, start=1) if (f[0] == "atom") == positive)
            script.append(f"{a};{vector}.{moves[k]}")
    return LongPlay(b, interp, script, budget=2 * len(script) + 8)


def _leaves(f, path: str = ""):
    """(move path, origin) for every atom of f: `1.`/`2.` into a side of
    `\/` and `/\`, copy `1.` under `!` and `?`, and move 1 at the atom."""
    kind = f[0]
    if kind in ("atom", "neg"):
        return [(path + "1", f[2])]
    if kind in ("or", "and"):
        return _leaves(f[1], path + "1.") + _leaves(f[2], path + "2.")
    return _leaves(f[1], path + "1.")


def deep_script(c: Cirq, rng: random.Random, others: int) -> list[str]:
    """Environment moves for a one-overgroup cirquent: one into each of the
    four axiom atoms, which the machine's mirror answers with a move that
    crosses every translator, and `others` into other atoms, which some
    translator drops.  No atom position is addressed twice, so each sees at
    most the environment's move and the machine's mirror of another one.
    Coordinates and copies are all 1: the translators pair and unpair
    coordinates, and only 1 maps to 1, so the machine's answers stay small
    enough for the brute-force oracle, which enumerates every copy up to the
    largest one used."""
    assert len(c.ov) == 1
    moves = [(f"{a};1.{path}", origin)
             for a, f in enumerate(c.of, start=1) for path, origin in _leaves(f)]
    axiom = [m for m, origin in moves if origin]
    rest = [m for m, origin in moves if not origin]
    script = axiom + rng.sample(rest, min(others, len(rest)))
    rng.shuffle(script)
    return script
