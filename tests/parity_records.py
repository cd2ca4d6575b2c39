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
    python tests/parity_records.py --compare parent.txt change.txt

``--compare A B`` reads two record files written by the same version of
this script and summarises how they differ, field by field: for each field
name, how many of its numbers differ, in which kinds of record (a label's
first word), and the largest move, absolute and in ulps: units in the last
place of the larger of the two floats ("-" when a Fraction or an integer
moved). A number belongs to the innermost field name or JSON key that
holds it. Records whose text differs apart from its numbers are counted
as such and listed.

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
  --json``, each report recorded (``solve``); every equilibrium k of the
  report is certified in every chart l (``nashatlas certify FILE
  --from-json REPORT --index k --chart l --json``), and given as
  ``--point`` with 5e-10 and then 2e-9 added to every player's first
  weight, so that its sums miss 1 by about that much, in the default
  chart.

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
import math
import re
import sys
import tempfile
from collections import Counter
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


# one number of a record: a float as hex (or inf, nan), a Fraction, or a
# decimal (the CLI's JSON); and a field name (name=) or a JSON key ("name": )
_TOKEN = re.compile(
    r"(?P<num>-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+|(?<![\w.])-?(?:inf|nan)(?!\w)"
    r"|(?<![\w.])-?\d+(?:/\d+|(?:\.\d+)?(?:e[+-]?\d+)?)(?![\w.]))"
    r"|(?P<field>\w+)=|\\?\"(?P<key>\w+)\\?\": |(?P<open>[\[({])|(?P<close>[\])}])",
    re.IGNORECASE)


def _number(text: str):
    if text.lower().lstrip("-").startswith("0x"):
        return float.fromhex(text)
    if "/" in text:
        return Fraction(text)
    return float(text) if any(c in text.lower() for c in ".ein") else int(text)


def _numbers(line: str) -> tuple[str, list]:
    """The line with every number blanked out, and its (field, number)
    pairs, each number under the innermost field name or key holding it."""
    skeleton, values, names, last = [], [], [None], 0
    for m in _TOKEN.finditer(line):
        if m["num"] is not None:
            skeleton.append(line[last:m.start()] + "#")
            last = m.end()
            values.append((names[-1], _number(m["num"])))
        elif m["open"]:
            names.append(names[-1])
        elif m["close"] and len(names) > 1:
            names.pop()
        else:
            names[-1] = m["field"] or m["key"]
    return "".join(skeleton) + line[last:], values


def compare(path_a: str, path_b: str) -> int:
    """Print the field-by-field summary of two record files (see the
    module docstring); 0 when they agree, 1 when they differ."""
    a, b = (Path(p).read_text(encoding="utf-8").splitlines() for p in (path_a, path_b))
    if len(a) != len(b):
        raise SystemExit(f"{len(a)} records against {len(b)}: not one script's output")
    moved, kinds, structure, records = {}, {}, [], 0
    for x, y in zip(a, b):
        if x == y:
            continue
        records += 1
        (sx, vx), (sy, vy) = _numbers(x), _numbers(y)
        if sx != sy:
            structure.append(x[:100])
            continue
        for (field, u), (_, v) in zip(vx, vy):
            if u == v or u != u and v != v:
                continue
            count, absolute, ulps = moved.get(field, (0, 0.0, 0))
            move = abs(float(u) - float(v))
            if isinstance(u, float) and isinstance(v, float) and ulps != "-":
                ulps = max(ulps, move / math.ulp(max(abs(u), abs(v))))
            else:
                ulps = "-"
            moved[field] = (count + 1, max(absolute, move), ulps)
            kinds.setdefault(field, Counter())[x.split()[0]] += 1
    print(f"{records} of {len(a)} records differ; {len(structure)} apart from their numbers")
    for field, (count, absolute, ulps) in sorted(moved.items(), key=lambda kv: str(kv[0])):
        where = ", ".join(f"{k} {n}" for k, n in kinds[field].items())
        ulps = ulps if ulps == "-" else f"{ulps:.3g}"
        print(f"  {field}: {count} values differ ({where}), largest move {absolute:.3g}, "
              f"{ulps} ulps of the larger")
    for line in structure:
        print(f"  text differs: {line}")
    return int(bool(records))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: parity_records.py --compare A B")
        return compare(argv[1], argv[2])
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
                solved = nashatlas_cli("solve", game_file, "--seed", seed, "--json")
                record(f"solve {shape} {seed}", lambda: solved)
                text = solved[1]
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
