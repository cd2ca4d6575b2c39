"""Seeded task streams for the four benchmark workloads.

A task is one game solved or one probe. Each workload owns a fixed
corpus of strategic forms (drawn once from ``CORPUS_SEED``, one stream
per shape) and hands the runner *rounds*: the whole corpus in an order
drawn from the run's seed. The runner times whole rounds only, so every
run does the same mix of work whatever its length.

The run seed also adds to each payoff tensor an offset that is constant
along the player's own axis (uniform[-1,1] for float games, integers in
-4..4 for the tied integer games). Such an offset changes every payoff
value but no payoff difference between a player's own strategies, so no
best reply, no equilibrium and no support system: each seed poses
different games that need the same solver work.

Why a fixed strategic corpus rather than fresh random games per seed:
the cost of one random game varies up to 40x within a shape
(multistart Newton spends its whole iteration budget on supports
without roots; tied games hit the LP witness a varying number of
times), and no run short enough for the benchmark holds enough games to
average that out. With fresh games, the quartile spread of tasks per
second between seeds was 11-13% on the 2-player workloads (five seeds
each) and an estimated 30-80% on the Newton and probe workloads
(resampling measured per-game times), wider than any usable bound.

The program only ever receives the generated games (or game files).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from nashatlas import cli, equilibrium, genericity, good_family, make_game

import verify

CORPUS_SEED = 20241217


@dataclass
class Task:
    """One unit of timed work and what is needed to check its output."""

    kind: str                      # "solve", "cli" or "probe"
    item: int                      # index of the corpus item it was made from
    shape: tuple[int, ...]
    utilities: list[np.ndarray]    # the payoff tensors, for the verifier
    game: object = None            # FiniteGame ("solve", "probe")
    lib_seed: int = 0              # seed passed to the library call
    path: Path | None = None       # game file ("cli")
    family: object = None          # GoodFamily ("probe")
    pairs: tuple = ()              # per player own-strategy pairs ("probe")
    labels: tuple = ()             # per player coordinate labels ("probe")
    chart: tuple[int, ...] = ()

    @property
    def supports(self) -> int:
        """Support profiles a solve visits: prod over players of 2^c - 1."""
        if self.kind == "probe":
            return 0
        return int(np.prod([2 ** c - 1 for c in self.shape]))


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    parity_ok: bool = True       # not a finite even count without a warning


def _shape_label(shape) -> str:
    return "x".join(map(str, shape))


def _corpus_rng(shape) -> np.random.Generator:
    """The fixed corpus stream of one shape: a corpus with more games of a
    shape extends the one with fewer, it does not redraw it."""
    return np.random.default_rng([CORPUS_SEED, *shape])


def _with_offsets(base: np.ndarray, rng: np.random.Generator,
                  integer: bool) -> list[np.ndarray]:
    """Add to each player's payoff tensor an offset that does not depend
    on that player's own strategy (best replies unchanged): uniform[-1,1]
    floats, or integers in -4..4."""
    out = []
    for i, u in enumerate(base):
        shape = list(u.shape)
        shape[i] = 1
        offset = (rng.integers(-4, 5, size=shape) if integer
                  else rng.uniform(-1.0, 1.0, size=shape))
        out.append(u + offset)
    return out


# -- running a task ---------------------------------------------------------
# Library entry points are looked up on their modules at call time, so the
# tracer's patches on those modules see the calls.


def run_task(task: Task):
    if task.kind == "solve":
        return equilibrium.enumerate_nash(task.game, seed=task.lib_seed)
    if task.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", str(task.path), "--exact", "--json"])
        return code, buf.getvalue()
    return genericity.regular_value_probe(
        task.game, task.family, task.chart, seed=task.lib_seed
    )


def check_task(task: Task, output) -> Outcome:
    """Verify a task's output with the independent verifier."""
    if task.kind == "solve":
        res = output
        flagged = bool(res.warnings) or res.continuum or any(
            c.jacobian_verdict == "singular" or c.boundary_degenerate
            for c in res.equilibria
        )
        return Outcome(verify.check_enumeration(task.utilities, res),
                       flagged or res.count % 2 == 1)
    if task.kind == "cli":
        code, text = output
        if code not in (0, 2):
            return Outcome([f"exit code {code}"])
        try:
            report = json.loads(text)
        except ValueError as e:
            return Outcome([f"output is not JSON: {e}"])
        problems = verify.check_solve_json(task.utilities, report, code)
        if problems:
            return Outcome(problems)
        return Outcome([], code == 2 or report["results"]["count"] % 2 == 1)
    rep = output
    problems = []
    if rep.dimension != rep.num_equations or rep.empty_face:
        problems.append(f"probe not square: {rep.dimension} unknowns, "
                        f"{rep.num_equations} equations, empty face {rep.empty_face}")
    for k, root in enumerate(rep.roots):
        if tuple(root.point.chart) != task.chart:
            problems.append(f"root {k}: chart {root.point.chart}")
            continue
        tilde = [np.insert(np.asarray(c, dtype=float), l, 1.0)
                 for c, l in zip(root.point.coords, task.chart)]
        problems += [f"root {k}: " + p for p in
                     verify.check_probe_root(task.utilities, task.pairs, task.labels, tilde)]
    return Outcome(problems)


def lp_warmup():
    """Solve a fixed all-zero 2x2 game: every mixed support is a continuum,
    so the LP witness path (and its lazy scipy.optimize import) runs."""
    equilibrium.enumerate_nash(make_game((2, 2), [np.zeros((2, 2))] * 2))


# -- workloads --------------------------------------------------------------


def _shape(label: str) -> tuple[int, ...]:
    return tuple(int(c) for c in label.split("x"))


class Workload:
    """A fixed corpus of (shape, base payoffs, extra) items; a round is
    the whole corpus in seeded order, each item with seeded offsets."""

    name: str
    why: str
    mix: dict[str, int]          # shape label -> corpus draws of that shape
    payoffs = ("corpus of i.i.d. uniform[-1,1] float64 games plus seeded uniform[-1,1] "
               "offsets constant along each player's own axis")
    integer_offsets = False
    #: Seconds one round took at the seed commit on the reference machine
    #: (2-core Intel Xeon, Python 3.11, one BLAS thread); sets the round count.
    round_s: float

    def __init__(self):
        self.corpus = []
        for label, count in self.mix.items():
            shape = _shape(label)
            self.corpus += self.draw(shape, count, _corpus_rng(shape))

    def draw(self, shape, count, crng) -> list[tuple]:
        return [(shape, crng.uniform(-1.0, 1.0, size=(len(shape), *shape)), None)
                for _ in range(count)]

    def task(self, k: int, utilities, tmp: Path) -> Task:
        shape = self.corpus[k][0]
        return Task("solve", k, shape, utilities, game=make_game(shape, utilities), lib_seed=k)

    def round(self, rng: np.random.Generator, tmp: Path) -> list[Task]:
        return [self.task(int(k), _with_offsets(self.corpus[k][1], rng, self.integer_offsets),
                          tmp)
                for k in rng.permutation(len(self.corpus))]

    def warmup_task(self, tmp: Path) -> Task:
        """The first corpus item of the smallest shape, without offsets."""
        k = min(range(len(self.corpus)), key=lambda k: np.prod(self.corpus[k][0]))
        return self.task(k, list(self.corpus[k][1]), tmp)

    def spec(self) -> dict:
        shapes = dict.fromkeys(item[0] for item in self.corpus)
        return {"corpus": self.mix, "tasks_per_round": len(self.corpus),
                "corpus_seed": CORPUS_SEED, "payoffs": self.payoffs,
                "supports": {_shape_label(s): int(np.prod([2 ** c - 1 for c in s]))
                             for s in shapes}}


class PairGeneric(Workload):
    name = "pair-generic"
    why = ("2-player float games, corpus 3x3:4 4x4:4 5x5:3 6x6:1 (49/225/961/3969 supports), "
           "U[-1,1] + seeded offsets, certified: exact rref route does the work, Newton none")
    mix = {"3x3": 4, "4x4": 4, "5x5": 3, "6x6": 1}
    round_s = 4.0


class MultiNewton(Workload):
    name = "multi-newton"
    why = ("3-player float games, corpus 2x2x2:8 (27 supports), U[-1,1] + seeded offsets: "
           "the Newton route of solve_support does ~all the work, exact none")
    mix = {"2x2x2": 8}
    round_s = 6.0


class TiedCli(Workload):
    name = "tied-cli"
    why = ("2-player integer games, corpus 3x3:20 4x4:40 in -4..4 + seeded offsets, as game "
           "files through `solve --exact --json`: ties, continua, LP witness, parsing, JSON")
    mix = {"3x3": 20, "4x4": 40}
    round_s = 3.6
    low, high = -4, 4
    payoffs = (f"corpus of i.i.d. uniform integers in [{low}, {high}] plus seeded integer "
               f"offsets in [{low}, {high}] constant along each player's own axis")
    integer_offsets = True

    def __init__(self):
        super().__init__()
        self.files = 0

    def draw(self, shape, count, crng):
        return [(shape, crng.integers(self.low, self.high + 1, size=(2, *shape)), None)
                for _ in range(count)]

    def task(self, k, utilities, tmp):
        shape = self.corpus[k][0]
        lines = ["players 2", "strategies " + " ".join(map(str, shape))]
        for i, u in enumerate(utilities):
            lines.append(f"payoff {i + 1}")
            lines += [" ".join(map(str, row)) for row in u.tolist()]
        self.files += 1
        path = tmp / f"tied-{self.files}.game"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        exact = [np.asarray(u.tolist(), dtype=object) for u in utilities]
        return Task("cli", k, shape, exact, path=path)


def _forests(c: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets on strategies 0..c-1 without a cycle."""
    out = []
    edges = list(itertools.combinations(range(c), 2))
    for size in range(c):
        for sub in itertools.combinations(edges, size):
            root = list(range(c))

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            ok = True
            for j, k in sub:
                a, b = find(j), find(k)
                if a == b:
                    ok = False
                    break
                root[a] = b
            if ok:
                out.append(sub)
    return out


def square_families(shape) -> list[tuple[tuple, tuple]]:
    """All (T, R) with, per player, coordinate labels T_i in {0..n_i}
    (at most n_i of them, so the face is not empty) and a forest R_i of own-strategy pairs,
    such that the pair count equals the face dimension sum(n_i - |T_i|)."""
    per_player = []
    for c in shape:
        n = c - 1
        per_player.append([
            (labels, pairs)
            for size in range(n + 1)
            for labels in itertools.combinations(range(n + 1), size)
            for pairs in _forests(c)
        ])
    fams = []
    for combo in itertools.product(*per_player):
        dim = sum(c - 1 - len(t) for c, (t, _) in zip(shape, combo))
        if dim >= 1 and sum(len(r) for _, r in combo) == dim:
            fams.append((tuple(t for t, _ in combo), tuple(r for _, r in combo)))
    return fams


class AtlasProbe(Workload):
    name = "atlas-probe"
    why = ("regular_value_probe of fixed square good families in every chart of 2x2x2, "
           "2x3x2, 3x3 games plus seeded offsets: the only workload where forms.eval/grad, "
           "genericity and atlas dominate")
    mix = {"2x2x2": 8, "2x3x2": 6, "3x3": 6}   # square families per shape; every chart
    round_s = 3.9

    def draw(self, shape, count, crng):
        base = crng.uniform(-1.0, 1.0, size=(len(shape), *shape))
        fams = square_families(shape)
        items = []
        for k in crng.permutation(len(fams))[:count]:
            labels, pairs = fams[k]
            for chart in itertools.product(*(range(c) for c in shape)):
                # chart l excludes the hyperplane weight_l = 0 (l >= 1)
                if all(l == 0 or l not in t for l, t in zip(chart, labels)):
                    items.append((shape, base, (labels, pairs, chart)))
        return items

    def task(self, k, utilities, tmp):
        shape, _, (labels, pairs, chart) = self.corpus[k]
        game = make_game(shape, utilities)
        return Task("probe", k, shape, utilities, game=game, lib_seed=k,
                    family=good_family(game, labels, pairs),
                    pairs=pairs, labels=labels, chart=chart)

    def spec(self):
        probes = {}
        for shape, *_ in self.corpus:
            probes[_shape_label(shape)] = probes.get(_shape_label(shape), 0) + 1
        spec = super().spec()
        del spec["supports"]
        return spec | {
            "probes_per_round": probes,
            "families": "square good families: per player coordinate labels in 0..n_i "
                        "(at most n_i) and a forest of own-strategy pairs, pair count = "
                        "face dimension; each in every chart that does not exclude it"}


WORKLOADS = {w.name: w for w in (PairGeneric, MultiNewton, TiedCli, AtlasProbe)}
