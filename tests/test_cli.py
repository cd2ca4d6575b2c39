"""Command-line interface: subcommands, exit codes, and report shapes."""

import json
from fractions import Fraction

import numpy as np
import pytest

from nashatlas import (
    FLOAT,
    RATIONAL,
    ChartExcludesHypersurface,
    Coordinate,
    defining_map,
    enumerate_nash,
    good_family,
    make_game,
    parse_game,
    random_game,
    regular_value_probe,
    serialize_game,
)
from nashatlas.cli import main

from conftest import fresh_python

MP_TEXT = """players 2
strategies 2 2
payoff 1
1 -1
-1 1
payoff 2
-1 1
1 -1
"""

BOS_TEXT = """players 2
strategies 2 2
payoff 1
2 0
0 1
payoff 2
1 0
0 2
"""

ZERO_TEXT = """players 2
strategies 2 2
payoff 1
0 0
0 0
payoff 2
0 0
0 0
"""

DUP_ROW_TEXT = """players 2
strategies 2 2
payoff 1
1 2
1 2
payoff 2
3 4
5 6
"""

NEAR_TIE_TEXT = """players 2
strategies 2 2
payoff 1
1 0
0 4999999999/5000000000
payoff 2
1 -1
-1 1
"""

EPS_DOMINANCE_TEXT = """players 2
strategies 2 2
payoff 1
0 0
1/10000000000 1/10000000000
payoff 2
1 0
1 0
"""


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.game"
    path.write_text(MP_TEXT)
    return str(path)


@pytest.fixture
def bos_file(tmp_path):
    path = tmp_path / "bos.game"
    path.write_text(BOS_TEXT)
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_text(mp_file, capsys):
    assert main(["solve", mp_file]) == 0
    out = capsys.readouterr().out
    assert "equilibria: 1" in out
    assert "0.5" in out
    assert "regular" in out


def test_solve_json_shape(mp_file, capsys):
    assert main(["solve", mp_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"meta", "results", "warnings"}
    assert report["meta"]["command"] == "solve"
    assert report["results"]["count"] == 1
    eq = report["results"]["equilibria"][0]
    assert eq["point"] == [[0.5, 0.5], [0.5, 0.5]]
    # infinite margins serialize as null
    assert eq["margins"] == [None, None]
    assert eq["jacobian_verdict"] == "regular"
    assert report["warnings"] == []


def test_solve_exact_json_uses_fraction_strings(bos_file, capsys):
    assert main(["solve", bos_file, "--exact", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    points = [eq["point"] for eq in report["results"]["equilibria"]]
    assert [["2/3", "1/3"], ["1/3", "2/3"]] in points
    assert all(eq["exact"] for eq in report["results"]["equilibria"])


def test_solve_degenerate_exit_code(tmp_path, capsys):
    zero = _write(tmp_path, "zero.game", ZERO_TEXT)
    assert main(["solve", zero]) == 2
    out = capsys.readouterr().out
    assert "continuum" in out
    dup = _write(tmp_path, "dup.game", DUP_ROW_TEXT)
    assert main(["solve", dup, "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["continuum"] is True
    assert report["results"]["continuum_witness"] is not None
    assert report["warnings"]


def _integer_game_text(shape, seed):
    """A seeded game file with integer payoffs in -9..9."""
    rng = np.random.default_rng(seed)
    lines = [f"players {len(shape)}", "strategies " + " ".join(map(str, shape))]
    for i in range(len(shape)):
        lines += [f"payoff {i + 1}", " ".join(map(str, rng.integers(-9, 10, np.prod(shape))))]
    return "\n".join(lines) + "\n"


def test_solve_exact_three_players(tmp_path, capsys):
    # --exact takes any number of players: the report is the library's
    # answer on the rational game, exact where at most two players mix and
    # from Newton in floats on the full support, and certify accepts each
    text = _integer_game_text((2, 2, 2), seed=27)
    path = _write(tmp_path, "three.game", text)
    assert main(["solve", path, "--exact", "--json"]) == 0
    out = capsys.readouterr().out
    got = json.loads(out)["results"]["equilibria"]
    want = enumerate_nash(parse_game(text, RATIONAL)).equilibria
    assert [e["point"] for e in got] == [
        [[str(x) if isinstance(x, Fraction) else float(x) for x in w] for w in c.point.weights]
        for c in want
    ]
    assert [e["exact"] for e in got] == [c.exact for c in want] == [True, False, True]
    report = _write(tmp_path, "solve.json", out)
    for index in range(len(want)):
        argv = ["certify", path, "--exact", "--from-json", report, "--index", str(index)]
        assert main(argv) == 0
        assert "verdict: transversal" in capsys.readouterr().out


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/game.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_bad_file(tmp_path, capsys):
    path = _write(tmp_path, "bad.game", "players 2\nstrategies 2 2\npayoff 1\n1 x\n")
    assert main(["solve", path]) == 1
    assert "error" in capsys.readouterr().err


def test_lambda_output(mp_file, capsys):
    assert main(["lambda", mp_file, "--player", "1"]) == 0
    out = capsys.readouterr().out
    assert "kappa^1: const = 1, g2_1 = -2" in out
    assert "lambda^1_1: const = -2, g2_1 = 4" in out


def test_lambda_bad_player(mp_file, capsys):
    assert main(["lambda", mp_file, "--player", "3"]) == 1


def test_goodcheck_good(capsys):
    assert main(["goodcheck", "--shape", "3x3", "--r", "1:0-1,1-2"]) == 0
    assert "good" in capsys.readouterr().out


def test_goodcheck_cycle(capsys):
    assert main(["goodcheck", "--shape", "3x3", "--r", "1:0-1,1-2,0-2"]) == 0
    out = capsys.readouterr().out
    assert "not good" in out
    assert "cycle" in out


def test_goodcheck_json(capsys):
    code = main(
        ["goodcheck", "--shape", "2x2", "--t", "1:0", "--r", "2:0-1", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["good"] is True
    assert report["results"]["cycle"] is None


def test_goodcheck_bad_shape(capsys):
    assert main(["goodcheck", "--shape", "1x2"]) == 1
    assert main(["goodcheck", "--shape", "2x"]) == 1


def test_goodcheck_bad_spec(capsys):
    assert main(["goodcheck", "--shape", "2x2", "--r", "1:01"]) == 1
    assert main(["goodcheck", "--shape", "2x2", "--r", "5:0-1"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["goodcheck", "--shape", "2x2", "--t", "1:a"], "bad --t spec '1:a': expected i:j[,j...]"),
    (["goodcheck", "--shape", "2x2", "--r", "1:0-a"],
     "bad --r spec '1:0-a': expected i:j-k[,j-k...]"),
    (["goodcheck", "--shape", "2x2", "--r", "1:01"],
     "bad --r spec '1:01': expected i:j-k[,j-k...]"),
    (["goodcheck", "--shape", "", "--t", "1:0"], "bad shape '': expected like 2x3x2"),
    (["goodcheck", "--shape", "2x2", "--t", "1:5"], "C:1:5: coordinate index 5 out of range"),
    (["goodcheck", "--shape", "2x2", "--r", "1:1-0"], "D:1:1:0: pair must satisfy 0 <= j < k"),
    (["goodcheck", "--shape", "2x3", "--r", "1:0-2"], "D:1:0:2: pair index 2 out of range"),
    (["certify", "{mp}", "--point", "1/0,1;1,0"], "player 1: bad weight '1/0'"),
    (["certify", "{mp}", "--point", "0.5,0.5;x,0.5"], "player 2: bad weight 'x'"),
])
def test_input_errors_name_the_bad_input(mp_file, capsys, argv, message):
    assert main([a.format(mp=mp_file) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_deterministic(capsys):
    args = ["sample", "2x2", "--count", "4", "--seed", "9", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert len(report["results"]["games"]) == 4
    assert report["results"]["games"][0]["seed"] == 9
    assert 0 <= report["results"]["oddness_rate"] <= 1


def test_sample_text(capsys):
    assert main(["sample", "2x2", "--count", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "oddness rate" in out
    assert "degeneracy-witness rate" in out


def test_sample_bad_shape(capsys):
    assert main(["sample", "1x2", "--count", "1"]) == 1


def test_certify_point(mp_file, capsys):
    assert main(["certify", mp_file, "--point", "0.5,0.5;0.5,0.5"]) == 0
    out = capsys.readouterr().out
    assert "verdict: transversal" in out
    assert "D:1:0:1" in out


def test_certify_json_round_trip(bos_file, tmp_path, capsys):
    assert main(["solve", bos_file, "--exact", "--json"]) == 0
    solve_out = capsys.readouterr().out
    report_path = tmp_path / "solve.json"
    report_path.write_text(solve_out)
    code = main(
        ["certify", bos_file, "--from-json", str(report_path), "--index", "1"]
    )
    assert code == 0
    assert "transversal" in capsys.readouterr().out


def test_solve_json_pure_singular_value_is_null(bos_file, capsys):
    # a pure equilibrium has no free weights: its smallest singular value
    # is inf, serialized as null like an infinite margin
    assert main(["solve", bos_file, "--exact", "--json"]) == 0
    eqs = json.loads(capsys.readouterr().out)["results"]["equilibria"]
    pure = [eq for eq in eqs if all(len(s) == 1 for s in eq["support"])]
    assert len(pure) == 2
    assert all(eq["smallest_singular_value"] is None for eq in pure)


def test_solve_and_certify_at_huge_payoff_scale(tmp_path, capsys):
    # a generic game times 2**40: both certificates rank their Jacobians
    # in payoff units, so no verdict reads singular or degenerate
    base = random_game((3, 3), seed=0)
    game = _write(tmp_path, "big.game", serialize_game(
        make_game((3, 3), [u * 2.0 ** 40 for u in base.utilities])))
    assert main(["solve", game, "--json"]) == 0
    out = capsys.readouterr().out
    eqs = json.loads(out)["results"]["equilibria"]
    assert len(eqs) == 3
    assert all(eq["jacobian_verdict"] == "regular" for eq in eqs)
    report = _write(tmp_path, "solve.json", out)
    assert main(["certify", game, "--from-json", report, "--index", "1"]) == 0
    assert "verdict: transversal" in capsys.readouterr().out


def test_certify_from_json_bad_index(bos_file, tmp_path, capsys):
    assert main(["solve", bos_file, "--json"]) == 0
    report_path = tmp_path / "solve.json"
    report_path.write_text(capsys.readouterr().out)
    code = main(
        ["certify", bos_file, "--from-json", str(report_path), "--index", "9"]
    )
    assert code == 1


def test_certify_from_json_negative_index(bos_file, tmp_path, capsys):
    # -1 would otherwise count from the end of the report
    assert main(["solve", bos_file, "--json"]) == 0
    report_path = tmp_path / "solve.json"
    report_path.write_text(capsys.readouterr().out)
    for index in ("-1", "-4"):
        code = main(["certify", bos_file, "--from-json", str(report_path), "--index", index])
        assert code == 1
        assert capsys.readouterr().err == "error: --index must be >= 0\n"


def test_certify_exact_point_on_exact_form(tmp_path, capsys):
    # D:1:0:1 is 1/10**10 at the centre: off the hypersurface, however
    # close to 0, when an exact form is evaluated at an exact point
    near = _write(tmp_path, "near.game", NEAR_TIE_TEXT)
    code = main(["certify", near, "--exact", "--point", "1/2,1/2;1/2,1/2",
                 "--r", "1:0-1", "--r", "2:0-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "active: D:2:0:1\n" in out
    assert "rank: 1 of 1" in out


def test_solve_exact_tiny_dominance_is_not_degenerate(tmp_path, capsys):
    # player 1's row 1 beats row 0 by exactly 1/10**10: one strict equilibrium
    game = _write(tmp_path, "eps.game", EPS_DOMINANCE_TEXT)
    assert main(["solve", game, "--exact", "--json"]) == 0
    eqs = json.loads(capsys.readouterr().out)["results"]["equilibria"]
    assert [e["point"] for e in eqs] == [[["0", "1"], ["1", "0"]]]
    assert not eqs[0]["boundary_degenerate"]


def test_certify_requires_point(mp_file, capsys):
    assert main(["certify", mp_file]) == 1


def test_certify_takes_one_point_source(mp_file, tmp_path, capsys):
    # --point and --from-json together, or --index without --from-json,
    # is a usage error, not a silently ignored option: (1,0;1,0) is no
    # equilibrium of matching pennies, the report's one point is
    assert main(["solve", mp_file, "--json"]) == 0
    report = tmp_path / "solve.json"
    report.write_text(capsys.readouterr().out)
    both = ["certify", mp_file, "--point", "1,0;1,0", "--from-json", str(report)]
    assert main(both) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    for argv in (["--point", "1,0;1,0", "--index", "7"], ["--point", "1,0;1,0", "--index", "0"]):
        assert main(["certify", mp_file, *argv]) == 1
        assert capsys.readouterr().err == "error: --index needs --from-json\n"
    assert main(["certify", mp_file, "--from-json", str(report)]) == 0
    assert "verdict: transversal" in capsys.readouterr().out


def test_certify_excluded_family(mp_file, capsys):
    # chart 1,1 misses C:1:1: certify, defining_map and the probe give one
    # message, naming the hypersurface and the chart
    code = main(
        [
            "certify", mp_file,
            "--point", "0.5,0.5;0.5,0.5",
            "--chart", "1,1",
            "--t", "1:1",
            "--r", "2:0-1",
        ]
    )
    assert code == 1
    game = parse_game(MP_TEXT, FLOAT)
    with pytest.raises(ChartExcludesHypersurface) as direct:
        defining_map(game, Coordinate(0, 1), (1, 1))
    with pytest.raises(ChartExcludesHypersurface) as probe:
        regular_value_probe(game, good_family(game, [[1], []], [[], [(0, 1)]]), (1, 1))
    message = str(direct.value)
    assert "C:1:1" in message and "chart 1,1" in message
    assert str(probe.value) == message
    assert capsys.readouterr().err == f"error: {message}\n"


def test_certify_degenerate_exit(tmp_path, capsys):
    zero = _write(tmp_path, "zero.game", ZERO_TEXT)
    code = main(["certify", zero, "--point", "0.5,0.5;0.5,0.5"])
    assert code == 2
    assert "degenerate" in capsys.readouterr().out


def test_certify_bad_point(mp_file, capsys):
    assert main(["certify", mp_file, "--point", "0.5,0.6;0.5,0.5"]) == 1
    assert main(["certify", mp_file, "--point", "0.5,0.5"]) == 1


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("chart, raw", [("0,0", 4), ("0,1", 2), ("1,0", 2), ("1,1", 2)])
def test_certify_in_every_chart(mp_file, capsys, chart, raw, exact):
    # the point moves into the chart by transition; with --exact the
    # membership test scales a rational form. `raw` is the smallest
    # singular value on the payoffs as given: rows in matching pennies'
    # payoff unit, 2, halve it exactly
    argv = ["certify", mp_file, "--point", "1/2,1/2;1/2,1/2", "--chart", chart]
    assert main(argv + ["--exact"] * exact) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"chart: {chart}",
        "active: D:1:0:1, D:2:0:1",
        "rank: 2 of 2",
        f"smallest singular value: {raw // 2}",
        "verdict: transversal",
    ]


def test_certify_point_sums(mp_file, capsys):
    # a p/q point must sum to exactly 1; a float point may be off by rounding
    off = ["--point", "1/2,1000000001/2000000000;1/2,1/2"]
    assert main(["certify", mp_file, "--exact", *off]) == 1
    assert "sum to 1" in capsys.readouterr().err
    assert main(["certify", mp_file, "--point", "0.5,0.5000000001;0.5,0.5"]) == 0


def test_charts_output(capsys):
    assert main(["charts", "--shape", "2x3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert any("C:1:inf" in line for line in out)
    assert any("C:2:2" in line for line in out)


def test_usage_errors_exit_one(capsys):
    assert main(["nosuchcommand"]) == 1
    assert main([]) == 1
    assert main(["solve"]) == 1


def _argv(command, path):
    return {
        "solve": ["solve", path],
        "lambda": ["lambda", path, "--player", "1"],
        "goodcheck": ["goodcheck", "--shape", "2x2"],
        "sample": ["sample", "2x2"],
        "certify": ["certify", path, "--point", "0.5,0.5;0.5,0.5"],
        "charts": ["charts", "--shape", "2x2"],
    }[command]


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--seed") for c in ("lambda", "goodcheck", "charts", "certify")]
    + [(c, f) for c in ("solve", "lambda", "goodcheck", "sample", "certify", "charts")
       for f in ("--tol", "--rank-tol")],
)
def test_options_only_where_they_act(mp_file, capsys, command, flag):
    assert main(_argv(command, mp_file) + [flag, "3"]) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sample"])
def test_seed_accepted(mp_file, capsys, command):
    assert main(_argv(command, mp_file) + ["--seed", "5"]) == 0


@pytest.mark.parametrize("command, keys", [
    ("solve", ["seed", "exact", "file", "command", "mode"]),
    ("lambda", ["exact", "file", "command", "mode", "player"]),
    ("goodcheck", ["command", "shape"]),
    ("sample", ["seed", "command", "shape", "count", "distribution"]),
    ("certify", ["exact", "file", "command", "mode"]),
    ("charts", ["command", "shape"]),
])
def test_meta_lists_the_subcommand_options(mp_file, capsys, command, keys):
    assert main(_argv(command, mp_file) + ["--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["meta"]) == keys


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_main_calls_in_one_process_match_fresh_calls(bos_file, capsys, monkeypatch):
    # main builds its parser once per process; a usage error in between
    # must leave it as a fresh interpreter would find it
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
    calls = [["solve", bos_file, "--exact", "--json"], ["solve"],
             ["charts", "--shape", "2x3"]]
    runs = []
    for argv in calls:
        code = main(argv)
        got = capsys.readouterr()
        fresh = fresh_python(
            "-c", "import sys; from nashatlas.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        runs.append((code, got.out, got.err))
    assert [code for code, _, _ in runs] == [0, 1, 0]
    assert json.loads(runs[0][1])["results"] and not runs[0][2]
    assert not runs[1][1] and runs[1][2].startswith("usage: nashatlas solve")
    assert runs[2][1] and not runs[2][2]


def test_runs_without_scipy(tmp_path):
    # continuum witnesses come from an exact simplex: neither a library
    # solve nor the CLI on a tied game imports scipy
    dup = _write(tmp_path, "dup.game", DUP_ROW_TEXT)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from nashatlas import enumerate_nash, make_game\n"
        "from nashatlas.cli import main\n"
        "assert enumerate_nash(make_game((2, 2), [np.zeros((2, 2))] * 2)).continuum\n"
        f"assert main(['solve', {dup!r}, '--exact', '--json']) == 2\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    run = fresh_python("-c", script)
    assert run.returncode == 0, run.stderr
