"""tests/ab.py, the in-process A/B run of two trees, on its tied and errors sections."""

import dataclasses
import importlib.util
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

AB = Path(__file__).with_name("ab.py")
ROOT = AB.parents[1]
MODULES = sorted(p.name for p in (ROOT / "src" / "nashatlas").glob("*.py"))

# appended to a copy's equilibrium.py: its enumerate_nash lists the same
# equilibria in reverse order
REVERSED = """

_enumerate_nash = enumerate_nash


def enumerate_nash(game, seed=0):
    result = _enumerate_nash(game, seed)
    result.equilibria.reverse()
    return result
"""


def _ab(parent, *args):
    return subprocess.run([sys.executable, str(AB), str(parent),
                           *(args or ("--only", "tied", "errors"))],
                          capture_output=True, text=True, timeout=60)


def test_ab_reads_no_difference_on_one_tree_and_names_a_moved_point(tmp_path):
    same = _ab(ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    # 70 games in two modes: each solve and each game's decompositions,
    # and the 10 5x5 games' probes in their 25 charts (500); 11 number
    # entry paths in two modes, each given 9 malformed values
    # (198), 28 index entry paths, each given 5 to 7 malformed indices
    # (182), and 3 sequence entry paths, each given 4 malformed sequences
    # (12)
    assert "0 of 1172 records differ; 0 apart from their numbers" in same.stdout
    assert re.search(r"^tied: 780 records, parent [\d.]+ s, change [\d.]+ s", same.stdout, re.M)
    assert re.search(r"^errors: 392 records, parent [\d.]+ s, change [\d.]+ s", same.stdout, re.M)
    # one tree has as many code lines as itself, in all and per module
    assert re.search(r"^src code lines: parent (\d+), change \1, change - parent 0$",
                     same.stdout, re.M), same.stdout
    per_module = re.findall(r"^  (\S+): parent (\d+), change \2, change - parent 0$",
                            same.stdout, re.M)
    assert [name for name, _ in per_module] == MODULES, same.stdout

    shutil.copytree(ROOT / "src" / "nashatlas", tmp_path / "src" / "nashatlas",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "nashatlas" / "equilibrium.py", "a", encoding="utf-8") as f:
        f.write(REVERSED)
    moved = _ab(tmp_path)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    assert re.search(r"^\d+ of 1172 records differ", moved.stdout, re.M)
    assert re.search(r"^  point: \d+ values differ \(tied \d+\)", moved.stdout, re.M)
    # the parent side is the copy, REVERSED's five statement lines longer,
    # all of them in equilibrium.py
    assert re.search(r"^src code lines: parent \d+, change \d+, change - parent -5$",
                     moved.stdout, re.M), moved.stdout
    assert re.search(r"^  equilibrium.py: parent \d+, change \d+, change - parent -5$",
                     moved.stdout, re.M), moved.stdout
    assert len(re.findall(r"change - parent 0$", moved.stdout, re.M)) == len(MODULES) - 1


def test_ab_prints_a_workloads_cold_round_apart_from_the_others():
    # a workload section empties both sides' caches, then prints its first
    # round's CPU times and ratio apart from those of its later rounds
    run = _ab(ROOT, "--only", "atlas-probe", "--rounds", "2")
    assert run.returncode == 0, run.stdout + run.stderr
    cpu = r"parent [\d.]+ s, change [\d.]+ s, change/parent [\d.]+"
    assert re.search(rf"^atlas-probe: round 1 \(caches cold\) {cpu}; rounds 2-2 {cpu}$",
                     run.stdout, re.M), run.stdout
    assert re.search(rf"^atlas-probe: 210 records, {cpu}$", run.stdout, re.M), run.stdout


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


CODE = '''"""A module docstring
of two lines."""

# a comment
import math


@staticmethod
def f(
    x,
    y,
):
    """A function docstring."""

    # another comment
    if x:  # a trailing comment
        return math.hypot(
            x,
            y)
    return 0
'''


def test_code_lines_count_statements_without_docstrings_or_comments(tmp_path):
    # import; decorator; def, x, y; if; the return of three lines; return 0
    (tmp_path / "src" / "nashatlas").mkdir(parents=True)
    (tmp_path / "src" / "nashatlas" / "m.py").write_text(CODE, encoding="utf-8")
    assert _load_ab().code_lines(tmp_path) == {"m.py": 10}


@dataclasses.dataclass
class Root:
    residual: float
    value: float


def test_a_move_is_measured_in_ulps_of_its_records_scale(capsys):
    # two fake sides whose answers differ by rounding: a residual near 0
    # moves by 2e-17, a fifth of an ulp of the record's largest finite
    # number (inf and an integer beyond the float range do not set it),
    # where in ulps of the residual itself it would read about 3e15; a
    # value of 0.75 moves by one ulp (both inside a dataclass)
    ab = _load_ab()
    answers = {"parent": {"root": Root(1e-17, 0.75), "margin": math.inf, "big": 10**400},
               "change": {"root": Root(3e-17, math.nextafter(0.75, 1)), "margin": math.inf,
                          "big": 10**400}}
    run = ab.AB({side: side for side in ab.SIDES})
    run("probe 1", lambda side: lambda: answers[side])
    run.summary()
    out = capsys.readouterr().out
    assert out.startswith("1 of 1 records differ; 0 apart from their numbers\n"), out
    assert "  residual: 1 values differ (probe 1), largest move 2e-17, 0.18 ulps of " in out, out
    assert re.search(r"^  value: 1 values differ \(probe 1\), largest move 1.11e-16, 1 ulps of "
                     r"the record's scale$", out, re.M), out
