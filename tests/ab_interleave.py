"""Parent and change in one process, task by task, timed in CPU time.

    python tests/ab_interleave.py PARENT_DIR [--workload NAME ...] [--rounds N]
                                  [--seed S]

PARENT_DIR is the root of the parent's tree (exported with ``git archive``
or ``git clone``); the change is the tree holding this script. Each
side's ``src/nashatlas`` is copied into a temporary directory under its
own package name (``nashatlas_parent``, ``nashatlas_change``), and both
are imported into this one process, so that both sides share one
interpreter, one heap and one moment of the machine's load.

For every workload (default: all four of this tree's
``bench/workloads.py``) the script draws N rounds (default 5) from
``default_rng(S)`` (default S = 1), as ``bench/run.py`` does. Each task is
built by each side's own ``make_game`` (and ``good_family``) before it is
timed, then run on both sides back to back; the side that goes first
alternates from task to task. Each run is timed with
``time.process_time``. The script prints each side's CPU seconds per
workload and the ratio change/parent, and the largest move between the
sides of a coordinate of an equilibrium point (solves and CLI solves) or
of a probe root, over the tasks whose answers agree: 0.0 when the points
are bitwise equal, so a performance change shows its parity in the run
that times it. It exits 1 if the two sides differ in any task's
equilibrium count or continuum flag (solves and CLI solves; and the exit
code of a CLI solve) or root count (probes). It is not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_side(root: Path, name: str, tmp: Path):
    """The package src/nashatlas of the tree at root, copied to tmp and
    imported as ``nashatlas_<name>`` (its imports are relative)."""
    package = f"nashatlas_{name}"
    shutil.copytree(root / "src" / "nashatlas", tmp / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lib = importlib.import_module(package)
    importlib.import_module(f"{package}.cli")  # lib.cli, which __init__ does not import
    return lib


def prepare(lib, task):
    """A call that runs task on the library lib, with its game (and
    family) already built, and a digest of its output: what both sides
    must agree on, and the coordinates of its equilibrium points or probe
    roots as one list of floats."""
    if task.kind == "solve":
        game = lib.make_game(task.shape, task.utilities)

        def run():
            return lib.enumerate_nash(game, seed=task.lib_seed)

        def digest(result):
            return (result.count, result.continuum), [
                float(x) for cert in result.equilibria for w in cert.point.weights for x in w]
    elif task.kind == "cli":
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(["solve", str(task.path), "--exact", "--json"])
            return code, buf.getvalue()

        def digest(out):
            code, text = out
            results = json.loads(text)["results"]
            # a weight is a float or, when exact, a "p/q" string
            return (code, results["count"], results["continuum"]), [
                float(Fraction(x)) for eq in results["equilibria"] for w in eq["point"] for x in w]
    else:
        game = lib.make_game(task.shape, task.utilities)
        family = lib.good_family(game, task.labels, task.pairs)

        def run():
            return lib.regular_value_probe(game, family, task.chart, seed=task.lib_seed)

        def digest(report):
            return len(report.roots), [
                float(x) for root in report.roots for c in root.point.coords for x in c]
    return run, digest


def interleave(libs: dict, wl, rounds: int, seed: int, tmp: Path) -> tuple[dict, dict, list[str]]:
    """CPU seconds per side over the workload's rounds, the largest move
    between the sides of a coordinate of an equilibrium point or a probe
    root (over the tasks whose answers agree; 0.0 when bitwise equal),
    and the tasks whose answers differ."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cpu = dict.fromkeys(SIDES, 0.0)
    moves = {}
    mismatches = []
    n = 0
    warm = wl.warmup_task(tmp)
    for lib in libs.values():
        run, _ = prepare(lib, warm)
        run()
    for r in range(rounds):
        for task in wl.round(rng, tmp):
            calls = {side: prepare(lib, task) for side, lib in libs.items()}
            outputs = {}
            for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                t0 = time.process_time()
                outputs[side] = calls[side][0]()
                cpu[side] += time.process_time() - t0
            (parent, parent_points), (change, change_points) = (
                calls[side][1](outputs[side]) for side in SIDES)
            if parent != change:
                mismatches.append(f"round {r} item {task.item}: parent {parent}, change {change}")
            else:
                kind = "probe roots" if task.kind == "probe" else "equilibrium points"
                moves[kind] = max([moves.get(kind, 0.0)] + [
                    abs(a - b) for a, b in zip(parent_points, change_points) if a != b])
            n += 1
    return cpu, moves, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent's tree")
    parser.add_argument("--workload", nargs="+", help="workload names (default: all)")
    parser.add_argument("--rounds", type=int, default=5, help="rounds per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the rounds' order")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    # bench/workloads.py builds the tasks with this tree's nashatlas
    sys.path[:0] = [str(HERE / "src"), str(HERE / "bench")]
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    bad = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        libs = {side: load_side(root.resolve(), side, tmp)
                for side, root in zip(SIDES, (args.parent, HERE))}
        for name in names:
            cpu, moves, mismatches = interleave(libs, WORKLOADS[name](), args.rounds,
                                                args.seed, tmp)
            print(f"{name}: parent {cpu['parent']:.3f} s, change {cpu['change']:.3f} s, "
                  f"change/parent {cpu['change'] / cpu['parent']:.3f}"
                  + "".join(f", largest move of {kind} {move}" for kind, move in moves.items()))
            for line in mismatches:
                print(f"  answers differ: {line}")
            bad = bad or bool(mismatches)
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
