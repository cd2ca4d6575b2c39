"""Canonical records of the library's answers, one line per item, so that
two versions of the library can be compared with one ``diff``.

    python tests/parity_records.py [CHECKOUT] > records.txt

CHECKOUT is the root of the tree whose ``src/nashatlas`` is imported
(default: the tree holding this script); the workload corpora always
come from this script's own ``bench/workloads.py``. To compare a change
with its parent, export the parent to a directory, then

    python tests/parity_records.py PARENT_DIR > parent.txt
    python tests/parity_records.py > change.txt
    diff parent.txt change.txt

Items, in this order:

- ``fixture``: the 600 games of tests/test_acceptance.py's oddness
  fixture, ``random_game(shape, seed)`` for 2x2, 3x3 and 2x2x2 and seeds
  40000-40199, each through ``enumerate_nash(game, seed=seed)``;
- ``<workload>``: the rounds of seeds 1-3 of the four benchmark workloads
  (bench/workloads.py; a round's order and offsets come from
  ``default_rng(seed)``, as in ``bench/run.py``), each task as the
  benchmark runs it;
- ``tied``: 50 2x2x2 then 10 2x3x2 games from ``default_rng(11)``, every
  player's payoffs ``rng.integers(-2, 3, shape)``, each solved in float
  and in rational mode;
- ``certify``: the fixture's first 40 2x2, 40 3x3 and 20 2x2x2 games,
  written as game files and solved by ``nashatlas solve --seed SEED
  --json``; every equilibrium k of the report is certified in every
  chart l (``nashatlas certify FILE --from-json REPORT --index k --chart
  l --json``), and given as ``--point`` with 5e-10 and then 2e-9 added
  to every player's first weight, so that its sums miss 1 by about that
  much, in the default chart.

A record is the whole answer: every field of every dataclass in it
(equilibria with their certificates, warnings, continuum flag and
witness; probe reports with their roots), floats as hex, ``Fraction`` as
num/den, arrays with their dtype, and errors as type and message. CLI
tasks record the exit code and the JSON report, with the game file's
temporary path masked; ``certify`` runs record the exit code, standard
output and standard error, with the temporary directory masked. The
script is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]


def canon(x) -> str:
    """One canonical string for an answer, exact to the last bit."""
    if dataclasses.is_dataclass(x):
        parts = (f"{f.name}={canon(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({', '.join(parts)})"
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{canon(x.tolist())}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(canon, x)) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{canon(k)}: {canon(v)}" for k, v in x.items()) + "}"
    if x is None or isinstance(x, str):
        return repr(x)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def record(label: str, call) -> None:
    try:
        out = canon(call())
    except Exception as exc:  # an error is an answer too
        out = f"error {type(exc).__name__}: {exc}"
    print(label, out, flush=True)


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else HERE
    sys.path[:0] = [str(root / "src"), str(HERE / "bench")]
    import nashatlas
    from nashatlas import (FLOAT, RATIONAL, all_charts, cli, enumerate_nash, make_game,
                           random_game, serialize_game)
    if Path(nashatlas.__file__).parent != root / "src" / "nashatlas":
        raise SystemExit(f"imported nashatlas from {nashatlas.__file__}, not {root / 'src'}")
    from workloads import WORKLOADS, run_task

    for shape in [(2, 2), (3, 3), (2, 2, 2)]:
        for seed in range(40_000, 40_200):
            record(f"fixture {shape} {seed}",
                   lambda: enumerate_nash(random_game(shape, seed=seed), seed=seed))

    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            wl = workload()
            for seed in (1, 2, 3):
                for n, task in enumerate(wl.round(np.random.default_rng(seed), Path(tmp))):
                    def run(task=task):
                        out = run_task(task)
                        if task.kind == "cli":
                            code, text = out
                            return code, text.replace(str(task.path), "<game file>")
                        return out
                    record(f"{name} {seed} {n} item {task.item}", run)

    rng = np.random.default_rng(11)
    shapes = [(2, 2, 2)] * 50 + [(2, 3, 2)] * 10
    for k, shape in enumerate(shapes):
        payoffs = [rng.integers(-2, 3, shape) for _ in shape]
        for mode in (FLOAT, RATIONAL):
            record(f"tied {k} {shape} {mode}",
                   lambda: enumerate_nash(make_game(shape, payoffs, mode=mode)))

    with tempfile.TemporaryDirectory() as tmp:
        game_file, report = Path(tmp, "game.txt"), Path(tmp, "solve.json")

        def nashatlas_cli(*args):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in args])
            return code, *(buf.getvalue().replace(tmp, "<tmp>") for buf in (out, err))

        for shape, count in [((2, 2), 40), ((3, 3), 40), ((2, 2, 2), 20)]:
            for seed in range(40_000, 40_000 + count):
                game = random_game(shape, seed=seed)
                game_file.write_text(serialize_game(game), encoding="utf-8")
                text = nashatlas_cli("solve", game_file, "--seed", seed, "--json")[1]
                report.write_text(text, encoding="utf-8")
                points = [eq["point"] for eq in json.loads(text)["results"]["equilibria"]]
                for k, point in enumerate(points):
                    for chart in all_charts(game):
                        l = ",".join(map(str, chart))
                        record(f"certify {shape} {seed} {k} chart {l}",
                               lambda: nashatlas_cli("certify", game_file, "--from-json", report,
                                                     "--index", k, "--chart", l, "--json"))
                    for miss in (5e-10, 2e-9):
                        spec = ";".join(",".join(repr(x + miss * (j == 0)) for j, x in enumerate(w))
                                        for w in point)
                        record(f"certify {shape} {seed} {k} point {miss}", lambda: nashatlas_cli(
                            "certify", game_file, "--point", spec, "--json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
