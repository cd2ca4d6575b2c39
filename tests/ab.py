"""Parent and change in one process: every answer compared, every run timed.

    python tests/ab.py PARENT_DIR [--only SECTION ...] [--rounds N]

PARENT_DIR is the root of the parent's tree (exported with ``git archive``
or ``git clone``); the change is the tree holding this script. Each side's
``src/nashatlas`` is copied into a temporary directory under its own
package name (``nashatlas_parent``, ``nashatlas_change``) and imported
into this one process, so both sides share one interpreter, one heap and
one moment of the machine's load.

Sections, in this order (``--only`` picks some of them):

- ``fixture``: the 600 games of tests/test_acceptance.py's oddness
  fixture, ``random_game(shape, seed)`` for 2x2, 3x3 and 2x2x2 and seeds
  40000-40199, each through ``enumerate_nash(game, seed=seed)``;
- ``pair-generic``, ``multi-newton``, ``tied-cli``, ``atlas-probe``: the
  rounds of seeds 1..N (default 3) of this tree's benchmark workloads
  (bench/workloads.py; a round's order and offsets come from
  ``default_rng(seed)``, as in ``bench/run.py``), each task as the
  benchmark runs it;
- ``tied``: 50 2x2x2, then 10 2x3x2, then 10 5x5 games from
  ``default_rng(11)``, every player's payoffs ``rng.integers(-2, 3,
  shape)``, each solved in float and in rational mode (the 5x5 games,
  drawn last, leave the others' indices as they were; they bring
  positive-dimensional two-player blocks and max-min witnesses), and in
  each mode every player's ``homogeneous_decomposition`` and
  ``lambda_decomposition`` as one more record; each two-player game is
  also probed in each mode by its largest-face family (no labels, each
  player's pairs the star (0, j)) in every chart, chart k with seed k,
  so that changed witness counts and verdicts on degenerate games show;
- ``shapes``: ``random_game`` solves of 8 2x3x2, 8 3x3x2 and 8 2x2x2x2
  games (seeds 40000+), and per shape the square good family of the
  largest face (bench/workloads.py's ``square_families``) of the seed
  40000 game, probed in every chart; then 4 2x2x2 and 4 3x3 games
  (seeds 500-503) whose payoffs, ``1.875 * random_game(shape,
  seed).utilities`` times 2**1023, are floats whose differences are
  not, each solved, each equilibrium's canonical family checked by
  ``transversal_at`` at its point (the active set detected by
  membership), and the family probed as above;
- ``cli``: the fixture's first 40 2x2, 40 3x3 and 20 2x2x2 games, written
  as game files and solved by ``nashatlas solve --seed SEED --json``
  (``solve``); the first LAMBDA_GAMES (10) games of each shape print each
  player's decomposition (``nashatlas lambda FILE --player P --json``); every equilibrium k of that side's report is certified in
  every chart l (``nashatlas certify FILE --from-json REPORT --index k
  --chart l --json``), and given as ``--point`` with 5e-10 and then 2e-9
  added to every player's first weight, in the default chart
  (``certify``);
- ``errors``: every entry path of a number from outside (``parse_game``,
  ``nashatlas solve``, ``make_game``, ``profile_from_weights``,
  ``chart_point``, ``payoff_slice_values``, ``best_reply_check``,
  ``transversal_at``, ``on_hypersurface``, ``nashatlas certify --point``,
  ``read_chart``'s vector entries) in both modes, each given one malformed value in turn (BAD: None,
  +-inf, nan, "x", 1j, a nested block, 10**400 and the token
  1e10000000); then every public entry path of an index or a sequence of
  indices (INDEX_ENTRIES, on a 2x2 game), each given one malformed index
  in turn (BAD_INDICES: None, "x", 1.5, -1 and a nested sequence; the
  index one past the entry's range; a scalar where its sequence of
  indices goes); then every public entry path of a sequence that holds
  no indices (SEQUENCE_ENTRIES: ``read_chart``'s vectors, one player's
  vector, ``MultilinearForm``'s pinned slots), each given one malformed
  sequence in turn (BAD_SEQUENCES: None, 0, "x" and the empty tuple); an
  answer is the call's repr (an error, as always, its exception type and
  message).

Each item's inputs are built by each side's own library (``random_game``,
``make_game``, ``good_family``, ``serialize_game``). The item then runs on
both sides back to back, the side that goes first alternating from item
to item, and each run is timed in process CPU time (a CLI run's time
includes reading its JSON). An error is that side's answer. The two answers are compared as trees (``canon``): every
field of every dataclass (a dataclass of one field stands for its
value), arrays with their dtype, numbers (int, float, Fraction) as
values, and a CLI run as its exit code, its standard output read as JSON
(as text when it is not JSON) and its standard error, each side's file
directory masked.

The script prints each side's CPU seconds and the ratio change/parent
per section; a workload section starts with every functools cache of
both sides emptied and also prints its first round (every per-key cache
cold) apart from its later rounds, so that work moved into a cache
shows. Then it prints how many records differ, and how many of those differ
apart from their numbers (each listed with the field where it first
does). For each field name it prints how many of its numbers differ, in
which kinds of record (a label's first word), and the largest move,
absolute and in ulps of its record's scale ("-" when a Fraction or an
integer moved). A record's scale is the largest finite magnitude of any
number in either answer, so a rounding move of a number near 0 reads as
small as it is. A number belongs to the innermost field name or JSON key
that holds it. Last it prints each tree's src code lines and their
difference, in all and per module: the lines of src/nashatlas that its
statements span (``ast``), docstrings, comments and blank lines left
out. The exit code is 1 when any
record differs. The script is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import shutil
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
LAMBDA_GAMES = 10  # per shape, the first cli games whose decompositions are printed
# the errors section's malformed values, by label
BAD = {"None": None, "inf": math.inf, "-inf": -math.inf, "nan": math.nan, "x": "x", "1j": 1j,
       "nested": [0, 1], "10**400": 10**400, "1e10000000": "1e10000000"}
# the errors section's malformed indices, by label, besides each index
# entry's index one past its range ("past") and a scalar in place of its
# sequence of indices ("scalar")
BAD_INDICES = {"None": None, "x": "x", "1.5": 1.5, "-1": -1, "nested": (0, 1)}
# the errors section's malformed sequences (of numbers or of slots), by label
BAD_SEQUENCES = {"None": None, "0": 0, "x": "x", "empty": ()}
NUMBERS = (int, float, Fraction)


def load_side(root: Path, side: str, tmp: Path):
    """The package src/nashatlas of the tree at root, copied to tmp and
    imported as ``nashatlas_<side>`` (its imports are relative)."""
    package = f"nashatlas_{side}"
    shutil.copytree(root / "src" / "nashatlas", tmp / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lib = importlib.import_module(package)
    importlib.import_module(f"{package}.cli")  # lib.cli, which __init__ does not import
    lib.side, lib.home = side, tmp / f"{side}-files"  # home: its game files and reports
    lib.home.mkdir()
    return lib


def canon(x):
    """The answer x as a tree to compare: a dataclass as (type name, its
    fields as a dict, or the value of its one field), an array as (dtype,
    list), lists and tuples as lists, and dicts, numbers, strings, bools
    and None as themselves."""
    if dataclasses.is_dataclass(x):
        fields = {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return type(x).__name__, fields if len(fields) > 1 else fields.popitem()[1]
    if isinstance(x, np.ndarray):
        return x.dtype.str, canon(x.tolist())
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if x is None or isinstance(x, (str, *NUMBERS)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _number(x) -> bool:
    return isinstance(x, NUMBERS) and not isinstance(x, bool)


def magnitudes(x):
    """The magnitude of every number in tree x (canon's), as a float: inf
    for one beyond the float range."""
    if _number(x):
        try:
            yield abs(float(x))
        except OverflowError:
            yield math.inf
    elif isinstance(x, (dict, list, tuple)):
        for v in x.values() if isinstance(x, dict) else x:
            yield from magnitudes(v)


def walk(x, y, field: str, moves: list) -> str | None:
    """Append (field, u, v) to moves for every number u of tree x that is
    v != u at its place in tree y, under the innermost field name or key
    holding it; the field where x and y differ apart from their numbers,
    or None."""
    if _number(x) and _number(y):
        if type(x) is not type(y) or x != y and (x == x or y == y):  # nan equals nan here
            moves.append((field, x, y))
        return None
    if type(x) is not type(y):
        return field
    if isinstance(x, dict):
        if x.keys() != y.keys():
            return field
        pairs = [(x[k], y[k], k) for k in x]
    elif isinstance(x, (list, tuple)):
        if len(x) != len(y):
            return field
        pairs = [(u, v, field) for u, v in zip(x, y)]
    else:
        return None if x == y else field
    for u, v, name in pairs:
        bad = walk(u, v, name, moves)
        if bad:
            return bad
    return None


class AB:
    """Runs items on both sides and keeps the CPU seconds per section and
    side, and what the summary needs of the records that differ."""

    def __init__(self, libs: dict):
        self.libs, self.records, self.differ = libs, 0, 0
        self.cpu = dict.fromkeys(SIDES, 0.0)
        self.moved = {}      # field -> [count, largest move, ulps or "-", Counter of kinds]
        self.structure = []  # (label, field) of records that differ apart from numbers

    def __call__(self, label: str, prepare) -> dict:
        """Run prepare(lib)'s call on both sides, the first side alternating,
        and compare the answers; {side: answer}."""
        answers = {}
        for side in SIDES if self.records % 2 == 0 else SIDES[::-1]:
            answers[side], seconds = answer(prepare, self.libs[side])
            self.cpu[side] += seconds
        self.records += 1
        moves = []
        trees = [canon(answers[side]) for side in SIDES]
        bad = walk(*trees, "answer", moves)
        self.differ += bool(bad or moves)
        if bad:  # its numbers are not counted
            self.structure.append((label, bad))
            return answers
        if moves:
            scale = max((m for m in magnitudes(trees) if m < math.inf), default=0.0)
        for field, u, v in moves:
            count, largest, ulps, kinds = self.moved.setdefault(field, [0, 0.0, 0.0, Counter()])
            move = abs(float(u) - float(v))
            if isinstance(u, float) and isinstance(v, float) and ulps != "-":
                ulps = max(ulps, move / math.ulp(scale))
            else:
                ulps = "-"
            kinds[label.split()[0]] += 1
            self.moved[field] = [count + 1, max(largest, move), ulps, kinds]
        return answers

    def summary(self) -> None:
        print(f"{self.differ} of {self.records} records differ; "
              f"{len(self.structure)} apart from their numbers")
        for field, (count, largest, ulps, kinds) in sorted(self.moved.items()):
            where = ", ".join(f"{k} {n}" for k, n in kinds.items())
            ulps = ulps if ulps == "-" else f"{ulps:.3g}"
            print(f"  {field}: {count} values differ ({where}), largest move {largest:.3g}, "
                  f"{ulps} ulps of the record's scale")
        for label, field in self.structure:
            print(f"  differs apart from its numbers: {label} (at {field})")


def answer(prepare, lib) -> tuple:
    """(answer, CPU seconds) of prepare(lib)'s call."""
    start = time.process_time()
    try:
        call = prepare(lib)
        start = time.process_time()
        out = call()
    except Exception as exc:  # an error is an answer too
        out = ("error", f"{type(exc).__name__}: {exc}")
    return out, time.process_time() - start


def cli(lib, *args) -> tuple:
    """lib's ``nashatlas`` CLI run: exit code, standard output (as JSON
    where it is JSON) and standard error, lib.home masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main([str(a) for a in args])
    out, err = (buf.getvalue().replace(str(lib.home), "<home>") for buf in (out, err))
    with contextlib.suppress(ValueError):
        out = json.loads(out)
    return code, out, err


# -- sections: each runs its items through ab(label, prepare) --------------


def fixture(ab, rounds):
    for shape in [(2, 2), (3, 3), (2, 2, 2)]:
        for seed in range(40_000, 40_200):
            ab(f"fixture {shape} {seed}", lambda lib: partial(
                lib.enumerate_nash, lib.random_game(shape, seed=seed), seed=seed))


def task_call(lib, task):
    """The benchmark task on lib, its game (and family) built by lib."""
    if task.kind == "cli":
        return partial(cli, lib, "solve", task.path, "--exact", "--json")
    game = lib.make_game(task.shape, task.utilities)
    if task.kind == "solve":
        return partial(lib.enumerate_nash, game, seed=task.lib_seed)
    return partial(lib.regular_value_probe, game, lib.good_family(game, task.labels, task.pairs),
                   task.chart, seed=task.lib_seed)


def clear_caches(lib) -> None:
    """Empty every functools cache of lib's modules."""
    for name, module in list(sys.modules.items()):
        if name == lib.__name__ or name.startswith(f"{lib.__name__}."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def workload(kind, ab, rounds):
    wl = kind()
    for lib in ab.libs.values():
        clear_caches(lib)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(1, rounds + 1):
            for n, task in enumerate(wl.round(np.random.default_rng(seed), Path(tmp))):
                ab(f"{wl.name} {seed} {n} item {task.item}", partial(task_call, task=task))
            if seed == 1:
                first = dict(ab.cpu)
    later = {side: ab.cpu[side] - first[side] for side in SIDES}
    print(f"{wl.name}: round 1 (caches cold) {_cpu_ratio(first)}"
          + (f"; rounds 2-{rounds} {_cpu_ratio(later)}" if rounds > 1 else ""))


def _cpu_ratio(cpu: dict) -> str:
    return (f"parent {cpu['parent']:.3f} s, change {cpu['change']:.3f} s, "
            f"change/parent {cpu['change'] / cpu['parent']:.3f}")


def tied(ab, rounds):
    rng = np.random.default_rng(11)
    for k, shape in enumerate([(2, 2, 2)] * 50 + [(2, 3, 2)] * 10 + [(5, 5)] * 10):
        payoffs = [rng.integers(-2, 3, shape) for _ in shape]
        for mode in ("float", "rational"):
            ab(f"tied {k} {shape} {mode}", lambda lib: partial(
                lib.enumerate_nash, lib.make_game(shape, payoffs, mode=mode)))
            ab(f"tied {k} {shape} {mode} decompositions", lambda lib: partial(
                decompositions, lib, lib.make_game(shape, payoffs, mode=mode)))
            if len(shape) == 2:
                stars = tuple(tuple((0, j) for j in range(1, c)) for c in shape)
                probe_charts(ab, (((),) * 2, stars), shape, f"tied {k} {shape} {mode}",
                             lambda lib: lib.make_game(shape, payoffs, mode=mode))


def decompositions(lib, game):
    """Every player's homogeneous and lambda decompositions."""
    return [(lib.homogeneous_decomposition(game, i), lib.lambda_decomposition(game, i))
            for i in range(game.num_players)]


def shapes(square_families, ab, rounds):
    for shape in [(2, 3, 2), (3, 3, 2), (2, 2, 2, 2)]:
        for seed in range(40_000, 40_008):
            ab(f"shapes {shape} {seed}", lambda lib: partial(
                lib.enumerate_nash, lib.random_game(shape, seed=seed), seed=seed))
        probe_charts(ab, largest_face(square_families, shape), shape, f"shapes {shape}",
                     lambda lib: lib.random_game(shape, seed=40_000))
    # payoffs up to 1.875 * 2**1023 are floats, but their differences are not
    for shape in [(2, 2, 2), (3, 3)]:
        for seed in range(500, 504):
            def near_max(lib):
                return lib.make_game(shape, [1.875 * u * 2.0 ** 1023
                                             for u in lib.random_game(shape, seed=seed).utilities])
            ab(f"shapes {shape} {seed} near max", lambda lib: partial(
                lib.enumerate_nash, near_max(lib), seed=seed))
            ab(f"shapes {shape} {seed} near max transversal", lambda lib: partial(
                transversal_reports, lib, near_max(lib), seed))
            probe_charts(ab, largest_face(square_families, shape), shape,
                         f"shapes {shape} {seed} near max", near_max)


def transversal_reports(lib, game, seed):
    """transversal_at of each equilibrium's canonical family at its point in
    chart (0, ..., 0), its active set detected by membership."""
    return [lib.transversal_at(game, lib.canonical_equilibrium_family(game, c.support),
                               lib.chart_zero_point(c.point))
            for c in lib.enumerate_nash(game, seed=seed).equilibria]


def largest_face(square_families, shape) -> tuple:
    """The square good family (labels, pairs) of the largest face of the
    shape (square_families)."""
    return max(square_families(shape), key=lambda f: sum(map(len, f[1])))


def probe_charts(ab, family, shape, label, make):
    """The family (labels, pairs) on lib's game make(lib), probed in every
    chart that poses it, chart k with seed k."""
    labels, pairs = family
    for k, chart in enumerate(itertools.product(*map(range, shape))):
        if all(l == 0 or l not in t for l, t in zip(chart, labels)):
            def probe(lib):
                game = make(lib)
                return partial(lib.regular_value_probe, game,
                               lib.good_family(game, labels, pairs), chart, seed=k)
            ab(f"{label} probe {labels} {pairs} chart {chart}", probe)


def cli_runs(ab, rounds):
    for shape, count in [((2, 2), 40), ((3, 3), 40), ((2, 2, 2), 20)]:
        for seed in range(40_000, 40_000 + count):
            def solve(lib):
                game = lib.random_game(shape, seed=seed)
                (lib.home / "game.txt").write_text(lib.serialize_game(game), encoding="utf-8")
                return partial(cli, lib, "solve", lib.home / "game.txt", "--seed", seed, "--json")
            solved = ab(f"solve {shape} {seed}", solve)
            for player in range(1, len(shape) + 1) if seed < 40_000 + LAMBDA_GAMES else ():
                ab(f"lambda {shape} {seed} player {player}", lambda lib: partial(
                    cli, lib, "lambda", lib.home / "game.txt", "--player", player, "--json"))
            points = {}
            for side, (_, report, *_) in solved.items():  # an error's report is its message
                (ab.libs[side].home / "solve.json").write_text(json.dumps(report),
                                                               encoding="utf-8")
                with contextlib.suppress(LookupError, TypeError):
                    points[side] = [eq["point"] for eq in report["results"]["equilibria"]]
            for k in range(max(map(len, points.values()), default=0)):
                for chart in itertools.product(*map(range, shape)):
                    l = ",".join(map(str, chart))
                    ab(f"certify {shape} {seed} {k} chart {l}", lambda lib: partial(
                        cli, lib, "certify", lib.home / "game.txt", "--from-json",
                        lib.home / "solve.json", "--index", k, "--chart", l, "--json"))
                for miss in (5e-10, 2e-9):
                    def certify(lib):
                        point = points[lib.side][k]
                        spec = ";".join(",".join(repr(x + miss * (j == 0)) for j, x in enumerate(w))
                                        for w in point)
                        return partial(cli, lib, "certify", lib.home / "game.txt", "--point",
                                       spec, "--json")
                    ab(f"certify {shape} {seed} {k} point {miss}", certify)


def errors(ab, rounds):
    for mode in ("float", "rational"):
        for label, x in BAD.items():
            for entry, call in ENTRIES.items():
                ab(f"errors {entry} {mode} {label}",
                   lambda lib: partial(shown, partial(call, lib, x, mode)))
    for entry, (call, past, sequence) in INDEX_ENTRIES.items():
        cases = [(label, call, x) for label, x in BAD_INDICES.items()]
        cases += [("past", call, past)] * (past is not None)
        cases += [("scalar", sequence, 0)] * (sequence is not None)
        for label, run, x in cases:
            ab(f"errors {entry} {label}", lambda lib: partial(shown, partial(run, lib, x)))
    for entry, call in SEQUENCE_ENTRIES.items():
        for label, s in BAD_SEQUENCES.items():
            ab(f"errors {entry} {label}", lambda lib: partial(shown, partial(call, lib, s)))


def shown(call) -> str:
    """call()'s repr, or its type's name where an int in it is too long for
    Python to print."""
    out = call()
    try:
        return repr(out)
    except ValueError:
        return f"{type(out).__name__} holding an int beyond the int-string limit"


def bad_file(lib, x) -> Path:
    """A one-player game file in lib.home whose second payoff token is x."""
    path = lib.home / "bad.txt"
    path.write_text(f"players 1\nstrategies 2\npayoff 1\n0 {str(x).replace(' ', '')}\n",
                    encoding="utf-8")
    return path


def game_3x3(lib, mode):
    return lib.make_game((3, 3), lib.random_game((3, 3), seed=1).utilities, mode)


def game_file(lib, mode) -> Path:
    """game_3x3 as a game file in lib.home."""
    path = lib.home / "game3.txt"
    path.write_text(lib.serialize_game(game_3x3(lib, mode)), encoding="utf-8")
    return path


def block(x, mode) -> np.ndarray:
    """A block of three of the mode's numbers: x, 1/4 and 1/4."""
    quarter = Fraction(1, 4) if mode == "rational" else 0.25
    return np.array([x, quarter, quarter], dtype=object)


def half(mode):
    return Fraction(1, 2) if mode == "rational" else 0.5


def chart_coords(x, mode) -> tuple:
    """Chart (0, 0) coordinates of a 3x3 game, x player 2's first."""
    return block(half(mode), mode)[1:], block(x, mode)[:2]


ENTRIES = {
    "parse_game": lambda lib, x, mode: lib.parse_game(bad_file(lib, x).read_text(), mode),
    "solve": lambda lib, x, mode: cli(lib, "solve", bad_file(lib, x), "--json",
                                      *["--exact"] * (mode == "rational")),
    "make_game": lambda lib, x, mode: lib.make_game((2, 2), [[x, 0, 0, 0], [0] * 4], mode),
    "profile_from_weights": lambda lib, x, mode: lib.profile_from_weights(
        [block(half(mode), mode), block(x, mode)], mode),
    "chart_point": lambda lib, x, mode: lib.chart_point(
        game_3x3(lib, mode), (0, 0), chart_coords(x, mode), mode),
    "payoff_slice_values": lambda lib, x, mode: lib.payoff_slice_values(
        game_3x3(lib, mode), 0, [block(half(mode), mode), block(x, mode)]),
    "best_reply_check": lambda lib, x, mode: lib.best_reply_check(
        game_3x3(lib, mode), lib.MixedProfile((block(half(mode), mode), block(x, mode)))),
    "transversal_at": lambda lib, x, mode: lib.transversal_at(
        game_3x3(lib, mode), lib.good_family(game_3x3(lib, mode), R=[[(0, 1)], [(0, 1)]]),
        lib.ChartPoint((0, 0), chart_coords(x, mode))),
    "on_hypersurface": lambda lib, x, mode: lib.on_hypersurface(
        game_3x3(lib, mode), lib.PayoffDiff(0, (0, 1)),
        lib.ChartPoint((0, 0), chart_coords(x, mode))),
    "certify": lambda lib, x, mode: cli(
        lib, "certify", game_file(lib, mode), "--point",
        ";".join(",".join(map(str, b)) for b in (block(half(mode), mode), block(x, mode))),
        *["--exact"] * (mode == "rational")),
    "read_chart": lambda lib, x, mode: lib.read_chart(
        [block(half(mode), mode), block(x, mode)], (0, 1)),
}


def game_2x2(lib):
    return lib.random_game((2, 2), seed=1)


def half_point(lib):
    """Every weight 1/2 in chart (0, 0) of a 2x2 game."""
    return lib.chart_zero_point(lib.profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))


def probe_family(lib):
    return lib.good_family(game_2x2(lib), R=[[(0, 1)], [(0, 1)]])


def counts_file(x) -> str:
    """A 2x2 game file whose second strategy count is the token x."""
    return f"players 2\nstrategies 2 {x}\npayoff 1\n0 0 0 0\npayoff 2\n0 0 0 0\n"


# every public entry path of an index or a sequence of indices: the call
# with x where one index goes, the index one past the range (None: there is
# no range without a game), and the call with s in place of the sequence of
# indices (None: the entry takes one index)
INDEX_ENTRIES = {
    "Coordinate-index": (lambda lib, x: lib.defining_map(
        game_2x2(lib), lib.Coordinate(0, x), (0, 0)), 2, None),
    "Coordinate-player": (lambda lib, x: lib.defining_map(
        game_2x2(lib), lib.Coordinate(x, 1), (0, 0)), 2, None),
    "PayoffDiff-pair": (lambda lib, x: lib.defining_map(
        game_2x2(lib), lib.PayoffDiff(0, (0, x)), (0, 0)), 2,
        lambda lib, s: lib.defining_map(game_2x2(lib), lib.PayoffDiff(0, s), (0, 0))),
    "PayoffDiff-player": (lambda lib, x: lib.defining_map(
        game_2x2(lib), lib.PayoffDiff(x, (0, 1)), (0, 0)), 2, None),
    "GoodFamily": (lambda lib, x: lib.transversal_at(
        game_2x2(lib), lib.GoodFamily(((), (x,)), ((), ())), half_point(lib)), 2,
        lambda lib, s: lib.GoodFamily(((), s), ((), ()))),
    "good_family-T": (lambda lib, x: lib.good_family(game_2x2(lib), T=[[], [x]]), 2,
                      lambda lib, s: lib.good_family(game_2x2(lib), T=[[], s])),
    "good_family-R": (lambda lib, x: lib.good_family(game_2x2(lib), R=[[], [(0, x)]]), 2,
                      lambda lib, s: lib.good_family(game_2x2(lib), R=[[], [s]])),
    "SupportProfile": (lambda lib, x: lib.SupportProfile(((0,), (x,))), None,
                       lambda lib, s: lib.SupportProfile(((0,), s))),
    "solve_support": (lambda lib, x: lib.solve_support(
        game_2x2(lib), lib.SupportProfile(((0,), (x,)))), 2,
        lambda lib, s: lib.solve_support(game_2x2(lib), lib.SupportProfile(((0,), s)))),
    "canonical_equilibrium_family": (lambda lib, x: lib.canonical_equilibrium_family(
        game_2x2(lib), lib.SupportProfile(((0,), (x,)))), 2,
        lambda lib, s: lib.canonical_equilibrium_family(
            game_2x2(lib), lib.SupportProfile(((0,), s)))),
    "chart_point": (lambda lib, x: lib.chart_point(game_2x2(lib), (0, x), [[0.5], [0.5]]), 2,
                    lambda lib, s: lib.chart_point(game_2x2(lib), s, [[0.5], [0.5]])),
    "read_chart": (lambda lib, x: lib.read_chart(half_point(lib).full_vectors(), (0, x)), 2,
                   lambda lib, s: lib.read_chart(half_point(lib).full_vectors(), s)),
    "transition": (lambda lib, x: lib.transition(half_point(lib), (0, x)), 2,
                   lambda lib, s: lib.transition(half_point(lib), s)),
    "excluded_hypersurfaces": (
        lambda lib, x: lib.excluded_hypersurfaces(game_2x2(lib), (0, x)), 2,
        lambda lib, s: lib.excluded_hypersurfaces(game_2x2(lib), s)),
    "regular_value_probe": (
        lambda lib, x: lib.regular_value_probe(game_2x2(lib), probe_family(lib), (0, x)), 2,
        lambda lib, s: lib.regular_value_probe(game_2x2(lib), probe_family(lib), s)),
    "transversal_at": (lambda lib, x: lib.transversal_at(
        game_2x2(lib), probe_family(lib), lib.ChartPoint((0, x), half_point(lib).coords)), 2,
        lambda lib, s: lib.transversal_at(game_2x2(lib), probe_family(lib),
                                          lib.ChartPoint(s, half_point(lib).coords))),
    "make_game": (lambda lib, x: lib.make_game((2, x), [np.zeros(4)] * 2), 1,
                  lambda lib, s: lib.make_game(s, [np.zeros(4)] * 2)),
    "random_game": (lambda lib, x: lib.random_game((2, x), 0), 1,
                    lambda lib, s: lib.random_game(s, 0)),
    "payoff_form": (lambda lib, x: lib.payoff_form(game_2x2(lib), x), 2, None),
    "homogeneous_decomposition": (
        lambda lib, x: lib.homogeneous_decomposition(game_2x2(lib), x), 2, None),
    "lambda_decomposition": (lambda lib, x: lib.lambda_decomposition(game_2x2(lib), x), 2, None),
    "full_vector": (lambda lib, x: half_point(lib).full_vector(x), 2, None),
    "input_length": (lambda lib, x: lib.payoff_form(game_2x2(lib), 0).input_length(x), 2, None),
    "lift_input": (lambda lib, x: lib.payoff_form(game_2x2(lib), 0).lift_input(x, [0.5, 0.5]),
                   2, None),
    "format_chart": (lambda lib, x: lib.format_chart((0, x)), None,
                     lambda lib, s: lib.format_chart(s)),
    "MultilinearForm-blocks": (lambda lib, x: lib.MultilinearForm((0, x), np.ones((2, 2))), None,
                               lambda lib, s: lib.MultilinearForm(s, np.ones((2, 2)))),
    "MultilinearForm-pinned": (lambda lib, x: lib.MultilinearForm(
        (0, 1), np.ones((2, 2)), (None, x)), 2, None),
    "parse_game-counts": (lambda lib, x: lib.parse_game(counts_file(x)), 1, None),
}


# every public entry path of a sequence that holds no indices: the call
# with s in place of the sequence
SEQUENCE_ENTRIES = {
    "read_chart-vectors": lambda lib, s: lib.read_chart(s, (0, 0)),
    "read_chart-vector": lambda lib, s: lib.read_chart([s, [1, 2]], (0, 0)),
    "MultilinearForm-pinned-slots": lambda lib, s: lib.MultilinearForm((0,), np.ones(2), s),
}


def code_lines(root: Path) -> dict[str, int]:
    """Per module of root's src/nashatlas, the lines that its statements
    span: a simple statement's every line, a compound one's first line and
    the lines of its expressions and parameters (decorators, tests,
    arguments), docstrings, comments and blank lines left out."""
    out = {}
    for path in sorted((root / "src" / "nashatlas").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        docstrings = {id(node.body[0]) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        lines, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if id(node) in docstrings:
                continue
            if isinstance(node, ast.stmt):
                compound = hasattr(node, "body")
                lines.update(range(node.lineno, (node.lineno if compound else node.end_lineno) + 1))
            elif isinstance(node, (ast.expr, ast.arg)):
                lines.update(range(node.lineno, node.end_lineno + 1))
            stack.extend(ast.iter_child_nodes(node))
        source = text.splitlines()
        out[path.name] = sum(1 for n in lines if source[n - 1].strip()
                             and not source[n - 1].lstrip().startswith("#"))
    return out


def main(argv=None) -> int:
    # bench/workloads.py builds the workloads' tasks with this tree's nashatlas
    sys.path[:0] = [str(HERE / "src"), str(HERE / "bench")]
    import workloads

    sections = {"fixture": fixture,
                **{name: partial(workload, kind) for name, kind in workloads.WORKLOADS.items()},
                "tied": tied, "shapes": partial(shapes, workloads.square_families),
                "cli": cli_runs, "errors": errors}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent's tree")
    parser.add_argument("--only", nargs="+", choices=sections, help="sections (default: all)")
    parser.add_argument("--rounds", type=int, default=3, help="rounds per workload")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        libs = {side: load_side(root.resolve(), side, Path(tmp))
                for side, root in zip(SIDES, (args.parent, HERE))}
        for lib in libs.values():  # the continuum witness path, once before any timing
            lib.enumerate_nash(lib.make_game((2, 2), [np.zeros((2, 2))] * 2))
        ab = AB(libs)
        for name in args.only or sections:
            ab.cpu = dict.fromkeys(SIDES, 0.0)
            records = ab.records
            sections[name](ab, args.rounds)
            print(f"{name}: {ab.records - records} records, {_cpu_ratio(ab.cpu)}", flush=True)
        ab.summary()
    parent, change = (code_lines(root.resolve()) for root in (args.parent, HERE))
    rows = [("src code lines", sum(parent.values()), sum(change.values()))]
    rows += [(f"  {name}", parent.get(name, 0), change.get(name, 0))
             for name in sorted(parent.keys() | change.keys())]
    for name, p, c in rows:
        print(f"{name}: parent {p}, change {c}, change - parent {c - p}")
    print(f"wall time {time.perf_counter() - start:.1f} s")
    return int(bool(ab.differ))


if __name__ == "__main__":
    sys.exit(main())
