"""Game construction, parsing, serialization, and profile helpers."""

import contextlib
import io
import itertools
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    FLOAT,
    RATIONAL,
    ChartPoint,
    Coordinate,
    GameFormatError,
    GoodFamily,
    MixedProfile,
    MultilinearForm,
    PayoffDiff,
    SupportProfile,
    best_reply_check,
    canonical_equilibrium_family,
    chart_point,
    chart_zero_point,
    defining_map,
    enumerate_nash,
    excluded_hypersurfaces,
    format_chart,
    good_family,
    homogeneous_decomposition,
    lambda_decomposition,
    make_game,
    on_hypersurface,
    parse_game,
    payoff_form,
    payoff_slice_values,
    profile_from_weights,
    random_game,
    read_chart,
    regular_value_probe,
    serialize_game,
    solve_support,
    support_of,
    transition,
    transversal_at,
)
from nashatlas import game as game_module
from nashatlas.cli import main
from nashatlas.game import _face_table


# a row whose message changed keeps the id it had (its old message), so
# that it stays one row under one name
@pytest.mark.parametrize("call, error, message", [
    (lambda: game_module.SupportProfile(((),)), ValueError, "supports must be nonempty"),
    (lambda: game_module.SupportProfile(((1, 0),)), ValueError,
     "supports must be sorted and duplicate-free"),
    (lambda: make_game((), []), ValueError, "need at least one player"),
    (lambda: make_game((2, 2), [np.zeros((2, 2))] * 2, mode="exact"), ValueError,
     "unknown mode 'exact'"),
    pytest.param(lambda: make_game((2, 2), [np.array([[np.inf, 0], [0, 0]]), np.zeros((2, 2))]),
                 ValueError, "utility tensor 0 entry inf is not a number",
                 id="<lambda>-ValueError-utility tensor 0 contains non-finite entries"),
    # rational mode: the float mode's ValueError, not a TypeError
    (lambda: make_game((2, 2), [np.array([[None, 0], [0, 0]]), np.zeros((2, 2))], mode=RATIONAL),
     ValueError, "utility tensor 0 entry None is not a number"),
    # rational mode: the float mode's message, not float.as_integer_ratio's error
    pytest.param(lambda: make_game((2, 2), [[0] * 4, [np.inf, 0, 0, 0]], mode=RATIONAL),
                 ValueError, "utility tensor 1 entry inf is not a number",
                 id="<lambda>-ValueError-utility tensor 1 contains non-finite entries0"),
    pytest.param(lambda: make_game((2, 2), [[0] * 4, [0, np.nan, 0, 0]], mode=RATIONAL),
                 ValueError, "utility tensor 1 entry nan is not a number",
                 id="<lambda>-ValueError-utility tensor 1 contains non-finite entries1"),
    pytest.param(lambda: profile_from_weights([[np.inf, 0], [1, 0]], RATIONAL), ValueError,
                 "player 1 weight inf is not a number",
                 id="<lambda>-ValueError-cannot convert inf to Fraction"),
    pytest.param(lambda: chart_point(random_game((2, 2), seed=1), (0, 0), [[np.nan], [0]],
                                     mode=RATIONAL),
                 ValueError, "player 1 chart coordinate nan is not a number",
                 id="<lambda>-ValueError-cannot convert nan to Fraction"),
    (lambda: support_of(profile_from_weights([[0.0, 0.0], [1.0, 0.0]])), ValueError,
     "profile has an all-zero weight vector"),
    (lambda: random_game((2, 2), seed=1, distribution="cauchy"), ValueError,
     "unknown distribution 'cauchy'"),
])
def test_input_errors_name_the_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


THREE = random_game((2, 2, 2), seed=1)


@pytest.mark.parametrize("call, seed", [
    (lambda s: enumerate_nash(THREE, seed=s), -1),
    (lambda s: enumerate_nash(random_game((2, 2), seed=1), seed=s), -1),
    (lambda s: solve_support(THREE, SupportProfile(((0, 1),) * 3), seed=s), -1),
    (lambda s: solve_support(THREE, SupportProfile(((0,), (0, 1), (0, 1))), seed=s), -1),
    (lambda s: solve_support(random_game((2, 2), seed=1), SupportProfile(((0, 1),) * 2),
                             seed=s), -1),
    (lambda s: solve_support(random_game((2, 2), seed=1), SupportProfile(((0, 1),) * 2),
                             seed=s), None),
    (lambda s: regular_value_probe(THREE, good_family(THREE, None, [[(0, 1)], [], []]),
                                   (0, 0, 0), seed=s), -2),
    (lambda s: random_game((2, 2), seed=s), -1),
    (lambda s: enumerate_nash(THREE, seed=s), 1.5),
    (lambda s: random_game((2, 2), seed=s), 1.5),
    (lambda s: enumerate_nash(THREE, seed=s), None),
    (lambda s: enumerate_nash(random_game((2, 2), seed=1), seed=s), None),
    (lambda s: random_game((2, 2), seed=s), None),
], ids=["enumerate_nash", "enumerate_nash-2p", "solve_support", "solve_support-two-mixed",
        "solve_support-2p", "solve_support-2p-none", "regular_value_probe", "random_game",
        "enumerate_nash-fraction", "random_game-fraction", "enumerate_nash-none",
        "enumerate_nash-2p-none", "random_game-none"])
def test_library_seeds_are_non_negative_integers(call, seed):
    # the rule of the CLI's --seed, checked on entry, whatever route a
    # support takes; None is not fresh entropy
    if isinstance(seed, int) and seed < 0:
        message = f"seed {seed} must be >= 0"
    else:
        message = f"seed {seed} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(seed)


@pytest.mark.parametrize("seed", [2.0, np.int64(2)])
def test_library_seeds_that_are_integral_act_as_ints(seed):
    # an integral seed of another type is converted, not refused: the
    # Newton starts are seed 2's
    def answer(s):
        result = enumerate_nash(THREE, seed=s)
        return [(c.support, [w.tobytes() for w in c.point.as_floats()])
                for c in result.equilibria], result.warnings

    assert answer(seed) == answer(2)


def test_readme_lists_the_tolerance_table():
    # README repeats the table at the top of nashatlas/game.py: the same
    # names in the same order, each with the constant's value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| constant | value | relative to | used for |\n")[1].split("\n\n")[0]
    listed = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+?) \|", rows, re.M)
    source = Path(game_module.__file__).read_text(encoding="utf-8")
    table = source.split("# Tolerances, the one table.")[1].split("\n\n")[0]
    assert [name for name, _ in listed] == re.findall(r"^([A-Z_]+) = ", table, re.M)
    assert len(listed) == 9
    for name, value in listed:
        constant = getattr(game_module, name)
        assert type(constant)(value) == constant, name


def test_make_game_basic(mp_float):
    assert mp_float.num_players == 2
    assert mp_float.strategy_counts == (2, 2)
    assert mp_float.mode == FLOAT
    assert mp_float.utilities[0].shape == (2, 2)


def test_make_game_rejects_single_strategy():
    with pytest.raises(ValueError):
        make_game((1, 2), [np.zeros((1, 2)), np.zeros((1, 2))])


def test_make_game_rejects_fractional_strategy_count():
    # 2.5 strategies is an error, not a 2x2 game; integral counts of any
    # numeric type are accepted
    with pytest.raises(ValueError, match="^player 1 strategy count 2.5 is not an integer$"):
        make_game((2.5, 2), [np.zeros(4), np.zeros(4)])
    assert make_game((2.0, np.int64(2)), [np.zeros(4), np.zeros(4)]).strategy_counts == (2, 2)


_PROBED = random_game((2, 2), seed=1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, None, "x", "2", 2.5])
@pytest.mark.parametrize("what, call", [
    ("seed", lambda x: enumerate_nash(_PROBED, seed=x)),
    ("player 2 chart index", lambda x: regular_value_probe(
        _PROBED, good_family(_PROBED, R=[[(0, 1)], []]), (0, x))),
    # a member whose pair is not one of indices is named by its repr
    ("PayoffDiff(player=0, pair=(0, {value!r})): pair entry",
     lambda x: good_family(_PROBED, R=[[(0, x)], []])),
    ("player 2 strategy count", lambda x: make_game((2, x), [np.zeros(4), np.zeros(4)])),
], ids=["seed", "chart-index", "pair-entry", "strategy-count"])
def test_non_integral_inputs_are_value_errors_naming_them(what, call, value):
    # what int() refuses (None, inf, nan, a string) is the same ValueError,
    # naming the input and its value, as a fraction; no OverflowError or
    # TypeError, and no message of Python's own
    what = what.format(value=value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {value} is not an integer')}$"):
        call(value)


_GAMES = {FLOAT: random_game((3, 3), seed=1)}
_GAMES[RATIONAL] = make_game((3, 3), _GAMES[FLOAT].utilities, RATIONAL)
_QUARTER = {FLOAT: 0.25, RATIONAL: Fraction(1, 4)}


def _block(x, mode):
    """Player 2's block of three numbers of the mode, x first."""
    return np.array([x, _QUARTER[mode], _QUARTER[mode]], dtype=object)


def _point(x, mode):
    """A chart (0, 0) point of the 3x3 games, x player 2's first coordinate."""
    return ChartPoint((0, 0), (np.array([_QUARTER[mode]] * 2, dtype=object), _block(x, mode)[:2]))


def _certify(x, mode, tmp):
    """nashatlas certify at a point read from a solve report whose player 2
    weights are x, 1/4 and 1/4 (p/q strings for RATIONAL, JSON numbers
    otherwise; inf and nan as JSON's Infinity and NaN, 1j as "1j"); the
    CLI's error line raised as the ValueError it reports."""
    (tmp / "game.txt").write_text(serialize_game(_GAMES[mode]), encoding="utf-8")
    quarter = "1/4" if mode == RATIONAL else 0.25
    point = [[quarter, quarter, "1/2" if mode == RATIONAL else 0.5], [x, quarter, quarter]]
    report = {"results": {"equilibria": [{"point": point}]}}
    (tmp / "solve.json").write_text(json.dumps(report, default=str), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["certify", str(tmp / "game.txt"), "--from-json", str(tmp / "solve.json")]
                    + ["--exact"] * (mode == RATIONAL))
    if code == 1:
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))


_ENTRIES = {
    "make_game": ("utility tensor 1 entry", lambda x, mode, tmp: make_game(
        (3, 3), [np.zeros(9), [0] * 4 + [x] + [0] * 4], mode)),
    "profile_from_weights": ("player 2 weight", lambda x, mode, tmp: profile_from_weights(
        [[_QUARTER[mode]] * 3, _block(x, mode)], mode)),
    "chart_point": ("player 2 chart coordinate", lambda x, mode, tmp: chart_point(
        _GAMES[mode], (0, 0), [[0.25, 0.25], [x, 0.25]], mode)),
    "payoff_slice_values": ("player 2 weight", lambda x, mode, tmp: payoff_slice_values(
        _GAMES[mode], 0, [[_QUARTER[mode]] * 3, _block(x, mode)])),
    "best_reply_check": ("player 2 weight", lambda x, mode, tmp: best_reply_check(
        _GAMES[mode], MixedProfile((_block(0, mode), _block(x, mode))))),
    "transversal_at": ("player 2 chart coordinate", lambda x, mode, tmp: transversal_at(
        _GAMES[mode], good_family(_GAMES[mode], R=[[(0, 1)], [(0, 1)]]), _point(x, mode))),
    "on_hypersurface": ("player 2 chart coordinate", lambda x, mode, tmp: on_hypersurface(
        _GAMES[mode], PayoffDiff(0, (0, 1)), _point(x, mode))),
    "certify": ("player 2 weight", _certify),
    # a point's full tilde vectors: player 2's x, 1/4 and 1/4
    "read_chart": ("player 2 tilde coordinate", lambda x, mode, tmp: read_chart(
        [[_QUARTER[mode]] * 3, _block(x, mode)], (0, 0))),
    "transition": ("player 2 tilde coordinate", lambda x, mode, tmp: transition(
        _point(x, mode), (1, 1))),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, None, "x", 1j, [0, 1]],
                         ids=["inf", "-inf", "nan", "None", "x", "1j", "nested"])
@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_a_value_that_is_no_number_is_one_value_error_naming_it(entry, mode, value, tmp_path):
    # one rule (game._number) for every number from outside, in both
    # modes: a ValueError naming the input and the value, never a
    # TypeError, AttributeError or OverflowError, and never a profile or
    # point holding a non-finite number
    what, call = _ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {value} is not a number')}$"):
        call(value, mode, tmp_path)


_G22 = random_game((2, 2), seed=1)
_HALF = chart_zero_point(profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))

# every public entry that takes an index or a sequence of indices, on a 2x2
# game: the name its message gives the input, the call with x where one
# index goes, the index one past the range (None: no range without a game),
# and the call with s in place of the sequence of indices (None: one index)
_INDEX_ENTRIES = {
    "Coordinate index": ("coordinate index", lambda x: defining_map(_G22, Coordinate(0, x), (0, 0)),
                         2, None),
    "Coordinate player": ("player index", lambda x: defining_map(_G22, Coordinate(x, 1), (0, 0)),
                          2, None),
    "PayoffDiff pair": ("pair", lambda x: defining_map(_G22, PayoffDiff(0, (0, x)), (0, 0)), 2,
                        lambda s: defining_map(_G22, PayoffDiff(0, s), (0, 0))),
    "PayoffDiff player": ("player index",
                          lambda x: defining_map(_G22, PayoffDiff(x, (0, 1)), (0, 0)), 2, None),
    "GoodFamily": ("coordinate", lambda x: transversal_at(
        _G22, GoodFamily(((), (x,)), ((), ())), _HALF), 2,
        lambda s: GoodFamily(((), s), ((), ()))),
    "good_family T": ("coordinate", lambda x: good_family(_G22, T=[[], [x]]), 2,
                      lambda s: good_family(_G22, T=[[], s])),
    "good_family R": ("pair", lambda x: good_family(_G22, R=[[], [(0, x)]]), 2,
                      lambda s: good_family(_G22, R=[[], [s]])),
    "SupportProfile": ("support", lambda x: SupportProfile(((0,), (x,))), None,
                       lambda s: SupportProfile(((0,), s))),
    "solve_support": ("support", lambda x: solve_support(_G22, SupportProfile(((0,), (x,)))), 2,
                      lambda s: solve_support(_G22, SupportProfile(((0,), s)))),
    "canonical_equilibrium_family": (
        "support", lambda x: canonical_equilibrium_family(_G22, SupportProfile(((0,), (x,)))), 2,
        lambda s: canonical_equilibrium_family(_G22, SupportProfile(((0,), s)))),
    "chart_point": ("chart", lambda x: chart_point(_G22, (0, x), [[0.5], [0.5]]), 2,
                    lambda s: chart_point(_G22, s, [[0.5], [0.5]])),
    "read_chart": ("chart", lambda x: read_chart(_HALF.full_vectors(), (0, x)), 2,
                   lambda s: read_chart(_HALF.full_vectors(), s)),
    "transition": ("chart", lambda x: transition(_HALF, (0, x)), 2,
                   lambda s: transition(_HALF, s)),
    "excluded_hypersurfaces": ("chart", lambda x: excluded_hypersurfaces(_G22, (0, x)), 2,
                               lambda s: excluded_hypersurfaces(_G22, s)),
    "regular_value_probe": ("chart", lambda x: regular_value_probe(
        _G22, good_family(_G22, R=[[(0, 1)], [(0, 1)]]), (0, x)), 2,
        lambda s: regular_value_probe(_G22, good_family(_G22, R=[[(0, 1)], [(0, 1)]]), s)),
    "transversal_at": ("chart", lambda x: transversal_at(
        _G22, good_family(_G22, R=[[(0, 1)], [(0, 1)]]), ChartPoint((0, x), _HALF.coords)), 2,
        lambda s: transversal_at(_G22, good_family(_G22, R=[[(0, 1)], [(0, 1)]]),
                                 ChartPoint(s, _HALF.coords))),
    "make_game": ("strategy count", lambda x: make_game((2, x), [np.zeros(4)] * 2), 1,
                  lambda s: make_game(s, [np.zeros(4)] * 2)),
    "random_game": ("strategy count", lambda x: random_game((2, x), 0), 1,
                    lambda s: random_game(s, 0)),
    "payoff_form": ("player index", lambda x: payoff_form(_G22, x), 2, None),
    "homogeneous_decomposition": ("player index", lambda x: homogeneous_decomposition(_G22, x), 2,
                                  None),
    "lambda_decomposition": ("player index", lambda x: lambda_decomposition(_G22, x), 2, None),
    "ChartPoint.full_vector": ("player index", lambda x: _HALF.full_vector(x), 2, None),
    "MultilinearForm.input_length": ("block position",
                                     lambda x: payoff_form(_G22, 0).input_length(x), 2, None),
    "MultilinearForm.lift_input": ("block position",
                                   lambda x: payoff_form(_G22, 0).lift_input(x, [0.5, 0.5]), 2,
                                   None),
    "MultilinearForm blocks": ("form block", lambda x: MultilinearForm((0, x), np.ones((2, 2))),
                               None, lambda s: MultilinearForm(s, np.ones((2, 2)))),
    "format_chart": ("chart", lambda x: format_chart((0, x)), None, format_chart),
}
_BAD_INDICES = {"None": None, "x": "x", "1.5": 1.5, "-1": -1, "nested": (0, 1)}


def _index_cases():
    for entry, (_, _, past, sequence) in _INDEX_ENTRIES.items():
        labels = [*_BAD_INDICES] + ["past"] * (past is not None) + ["scalar"] * (sequence is not None)
        for label in labels:
            yield pytest.param(entry, label, id=f"{entry}-{label}")


@pytest.mark.parametrize("entry, label", _index_cases())
def test_a_malformed_index_is_one_value_error_naming_it(entry, label):
    # one rule (game._index, with game._sequence and game._indices) for
    # every index from outside: None, a string, a fraction, a negative
    # index, one past the range, a scalar where a sequence of indices
    # belongs and a nested sequence are each one ValueError, not a
    # TypeError, AttributeError or IndexError, and none is an answer
    name, call, past, sequence = _INDEX_ENTRIES[entry]
    if label == "scalar":
        value, run = 0, sequence
    else:
        value, run = (past if label == "past" else _BAD_INDICES[label]), call
    with pytest.raises(Exception) as info:
        run(value)
    message = str(info.value)
    assert type(info.value) is ValueError, f"{type(info.value).__name__}: {message}"
    assert name in message and str(value) in message, message


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "x", "1j", "1/0", "1e10000000"])
def test_parse_game_names_a_bad_number_in_both_modes(token, mode):
    # the 10-byte token 1e10000000 is refused in rational mode before its
    # 33-million-bit integer is built
    text = f"players 1\nstrategies 2\npayoff 1\n1\n{token}\n"
    start = time.process_time()
    with pytest.raises(GameFormatError, match=f"^line 5: bad number {re.escape(repr(token))}$"):
        parse_game(text, mode)
    assert time.process_time() - start < 0.1


def test_a_big_exponent_is_refused_in_time_and_a_moderate_one_read_exactly(tmp_path):
    # 1e400 is an exact payoff in rational mode; 1e10000000, beyond the
    # exponent bound, is a bad number at its line through solve --exact
    exact = parse_game("players 1\nstrategies 2\npayoff 1\n1e400 -1e-400\n", RATIONAL)
    assert exact.utilities[0].tolist() == [10 ** 400, Fraction(-1, 10 ** 400)]
    big = tmp_path / "big.txt"
    big.write_text("players 1\nstrategies 2\npayoff 1\n0\n1e10000000\n", encoding="utf-8")
    err = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stderr(err):
        assert main(["solve", str(big), "--exact"]) == 1
    assert time.process_time() - start < 0.1
    assert err.getvalue() == "error: line 5: bad number '1e10000000'\n"


def test_make_game_rejects_shape_mismatch():
    for mode in (FLOAT, RATIONAL):
        with pytest.raises(ValueError, match=r"^utility tensor 0 has 6 entries, expected 4$"):
            make_game((2, 2), [np.zeros((2, 3)), np.zeros((2, 2))], mode=mode)


def test_make_game_rejects_wrong_table_count():
    with pytest.raises(ValueError):
        make_game((2, 2), [np.zeros((2, 2))])


def test_rational_mode_uses_fractions(mp_exact):
    assert mp_exact.mode == RATIONAL
    assert isinstance(mp_exact.utilities[0][0, 0], Fraction)


def test_integer_utilities_are_exact():
    floats = make_game((2, 2), [[[0.5, -3.0], [0.1, 5e-324]], [[1.0, 2.0], [3.0, 4.0]]])
    rationals = make_game(
        (2, 2), [[["1/3", "2/5"], ["-1/7", 0]], [[1, 2], [3, 4]]], mode=RATIONAL
    )
    assert [s for _, s in floats.integer_utilities] == [2 ** 1074, 1]
    assert [s for _, s in rationals.integer_utilities] == [105, 1]
    for game in (floats, rationals):
        for u, (ints, scale) in zip(game.utilities, game.integer_utilities):
            assert all(type(n) is int for n in ints.reshape(-1))
            assert [Fraction(n, scale) for n in ints.reshape(-1)] == [
                Fraction(x) for x in u.reshape(-1)
            ]
    assert floats.integer_utilities is floats.integer_utilities


def test_payoff_exponents_are_exact():
    # floor(log2) of the largest range along the own axis, decided on the
    # integer payoffs: exact just below a power of two and beyond the float
    # range; the second player's range is 1
    for spread, e in [(1, 0), (Fraction(1, 3), -2), (Fraction(2**60 - 1, 2**60), -1),
                      (2**1100, 1100), (Fraction(3, 2**1101), -1100)]:
        game = make_game((2, 2), [[[0, 0], [spread, -spread]], [[5, 4], [0, 1]]], mode=RATIONAL)
        assert game.payoff_exponents == (e, 0), spread
    # one player: its range along its own axis is one number
    assert make_game((3,), [[3, -1, Fraction(1, 2)]], mode=RATIONAL).payoff_exponents == (2,)
    assert make_game((3,), [np.array([0.0, 0.75, 0.25])]).payoff_exponents == (-1,)
    # three players, each range the largest over the others' profiles: 10,
    # 1/3 and 2**70
    u = [np.empty((2, 2, 2), dtype=object) for _ in range(3)]
    for a, b, c in itertools.product(range(2), repeat=3):
        u[0][a, b, c] = Fraction(a * (1 + 9 * b) + 100 * c)
        u[1][a, b, c] = Fraction(b, 3) + 7 * a
        u[2][a, b, c] = c * 2**70 - Fraction(a * b, 5)
    assert make_game((2, 2, 2), u, mode=RATIONAL).payoff_exponents == (3, -2, 70)
    # on float games, the float range's exponent
    for seed in range(20):
        game = random_game((2, 3, 2), seed)
        assert game.payoff_exponents == tuple(
            math.frexp(np.ptp(u, axis=i).max())[1] - 1 for i, u in enumerate(game.utilities))


def test_integer_rows_index_own_then_opponents_in_c_order():
    game = make_game((2, 3), [np.arange(6.0).reshape(2, 3) / 4, -np.arange(6.0).reshape(2, 3)])
    own, opp = game.integer_rows
    # two players: [own strategy][partner strategy], the partner's transposed
    assert own == [[0, 1, 2], [3, 4, 5]]
    assert opp == [[0, -3], [-1, -4], [-2, -5]]
    assert all(type(n) is int for row in own + opp for n in row)
    assert game.integer_rows is game.integer_rows
    # three players: per own strategy, the other players' pure profiles in
    # C order, the last other player's strategy varying fastest
    u = [np.arange(12.0).reshape(2, 3, 2) * (k + 1) for k in range(3)]
    triple = make_game((2, 3, 2), u)
    for k, rows in enumerate(triple.integer_rows):
        others = [b for b in range(3) if b != k]
        assert rows == [[int(u[k][(*pure[:k], own, *pure[k:])])
                         for pure in itertools.product(*(range(triple.strategy_counts[b])
                                                          for b in others))]
                        for own in range(triple.strategy_counts[k])]
    # the exact solve's face tables, of this game and of a 2x3x2x2 one:
    # one key per pair and held profile, in C order, each pair player's
    # table the _face_table of its [own][partner] slice of the payoffs,
    # every player outside the pair at its held strategy
    quad = make_game((2, 3, 2, 2), [np.arange(24.0).reshape(2, 3, 2, 2) * (k + 1) - 5 * k
                                    for k in range(4)])
    for g in (triple, quad):
        m, counts = g.num_players, g.strategy_counts
        keys = list(g._face_rows)
        for pair in itertools.combinations(range(m), 2):
            held = [b for b in range(m) if b not in pair]
            profiles = list(itertools.product(*(range(counts[b]) for b in held)))
            assert [key for key in keys if key[:2] == pair] == [(*pair, h) for h in profiles]
            for h in profiles:
                index = [slice(None)] * m
                for b, x in zip(held, h):
                    index[b] = x
                slices = [g.utilities[k][tuple(index)].astype(int) for k in pair]
                # the solving player's table from its partner's payoffs
                want = (_face_table(slices[1].T.tolist()), _face_table(slices[0].tolist()))
                assert g._face_rows[(*pair, h)] == want


def test_parse_game_float():
    text = """
    # a comment
    players 2
    strategies 2 2
    payoff 1
    1 -1
    -1 1   # trailing comment
    payoff 2
    -1 1
    1 -1
    """
    g = parse_game(text)
    assert g.mode == FLOAT
    assert g.strategy_counts == (2, 2)
    np.testing.assert_array_equal(g.utilities[0], [[1, -1], [-1, 1]])


def test_parse_game_infers_rational_from_fractions():
    text = "players 2\nstrategies 2 2\npayoff 1\n1/2 0 0 1\npayoff 2\n1 0 0 1/3\n"
    g = parse_game(text)
    assert g.mode == RATIONAL
    assert g.utilities[0][0, 0] == Fraction(1, 2)


def test_parse_game_forced_float_accepts_fractions():
    text = "players 2\nstrategies 2 2\npayoff 1\n1/2 0 0 1\npayoff 2\n1 0 0 1\n"
    g = parse_game(text, FLOAT)
    assert g.mode == FLOAT
    assert g.utilities[0][0, 0] == 0.5


def test_parse_game_three_players():
    text = (
        "players 3\nstrategies 2 2 2\n"
        "payoff 1\n1 2 3 4 5 6 7 8\n"
        "payoff 2\n0 0 0 0 0 0 0 0\n"
        "payoff 3\n0 0 0 0 0 0 0 0\n"
    )
    g = parse_game(text)
    # row-major: the last player's index varies fastest
    assert g.utilities[0][0, 1, 0] == 3
    assert g.utilities[0][1, 0, 1] == 6


# each malformed file with its message, as str(GameFormatError): the
# 1-based line of the offending token leads, where there is one
PARSE_ERRORS = {
    "strategies 2 2\npayoff 1\n1 1 1 1\npayoff 2\n1 1 1 1\n":
        "line 1: expected 'players', got 'strategies'",
    "players 2\nstrategies 2\npayoff 1\n1 1\npayoff 2\n1 1\n":
        "line 3: bad strategy count 'payoff'",
    "players 2\nstrategies 2 2\npayoff 1\n1 1 1\npayoff 2\n1 1 1 1\n":
        "line 5: bad number 'payoff'",
    "players 2\nstrategies 2 2\npayoff 1\n1 1 1 1\n":
        "line 4: unexpected end of file, expected 'payoff'",
    # a strategy count is an index of at least 2, refused at its line
    "players 2\nstrategies 1 2\npayoff 1\n1 1\npayoff 2\n1 1\n":
        "line 2: player 1 strategy count 1 must be >= 2",
    "players 2\nstrategies 2 -1\npayoff 1\n1 1\npayoff 2\n1 1\n":
        "line 2: player 2 strategy count -1 must be >= 2",
    "players 2\nstrategies 2 2\nbogus\npayoff 1\n1 1 1 1\npayoff 2\n1 1 1 1\n":
        "line 3: expected 'payoff', got 'bogus'",
    "players 2\nstrategies 2 2\npayoff 1\n1 x 1 1\npayoff 2\n1 1 1 1\n":
        "line 4: bad number 'x'",
    "# empty\n": "line 1: unexpected end of file, expected 'players'",
    "players\n": "line 1: unexpected end of file, expected player count",
    "players two\nstrategies 2 2\n": "line 1: bad player count 'two'",
    "players 0\nstrategies\n": "line 1: player count must be >= 1",
    "players 2\nstrats 2 2\n": "line 2: expected 'strategies', got 'strats'",
    "players 2\nstrategies 2 2.5\n": "line 2: bad strategy count '2.5'",
    "players 2\nstrategies 2 2\npayoff 2\n1 1 1 1\npayoff 1\n1 1 1 1\n":
        "line 3: expected payoff block for player 1, got '2'",
    "players 1\nstrategies 2\npayoff 1\n1 1/0\n": "line 4: bad number '1/0'",
    "players 1\nstrategies 2\npayoff 1\n1 2\n\n3 # extra\n": "line 6: trailing content '3'",
    # a float-mode payoff that is no finite float: inf, nan, beyond the float range
    **{f"players 2\nstrategies 2 2\npayoff 1\n1 0 0 1\npayoff 2\n0 1\n{tok} 0\n":
       f"line 7: bad number '{tok}'" for tok in ("inf", "-inf", "nan", "1e400")},
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_game_errors(text):
    with pytest.raises(GameFormatError) as exc:
        parse_game(text)
    assert str(exc.value) == PARSE_ERRORS[text]


def test_parse_error_reports_line_number():
    text = "players 2\nstrategies 2 2\npayoff 1\n1 x 1 1\npayoff 2\n1 1 1 1\n"
    with pytest.raises(GameFormatError) as exc:
        parse_game(text)
    assert exc.value.line == 4


def test_serialize_parse_round_trip_float():
    g = random_game((2, 3), seed=5)
    g2 = parse_game(serialize_game(g))
    assert g2.mode == FLOAT
    for a, b in zip(g.utilities, g2.utilities):
        np.testing.assert_array_equal(a, b)


def test_serialize_parse_round_trip_rational():
    tables = [
        np.array([[Fraction(1, 3), Fraction(2)], [Fraction(0), Fraction(-1, 7)]],
                 dtype=object),
        np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],
                 dtype=object),
    ]
    g = make_game((2, 2), tables, mode=RATIONAL)
    g2 = parse_game(serialize_game(g))
    assert g2.mode == RATIONAL
    for a, b in zip(g.utilities, g2.utilities):
        assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]),
    seed=st.integers(0, 10**6),
)
def test_round_trip_property(shape, seed):
    g = random_game(shape, seed=seed)
    g2 = parse_game(serialize_game(g))
    for a, b in zip(g.utilities, g2.utilities):
        np.testing.assert_array_equal(a, b)


def test_random_game_deterministic():
    a = random_game((3, 3), seed=42)
    b = random_game((3, 3), seed=42)
    for u, v in zip(a.utilities, b.utilities):
        np.testing.assert_array_equal(u, v)
    c = random_game((3, 3), seed=43)
    assert any(not np.array_equal(u, v) for u, v in zip(a.utilities, c.utilities))


def test_random_game_uniform_range():
    g = random_game((4, 4), seed=0)
    for u in g.utilities:
        assert np.all(u >= -1) and np.all(u <= 1)


def test_random_game_normal():
    g = random_game((3, 3), seed=0, distribution="normal")
    assert any(np.any(np.abs(u) > 1) for u in g.utilities)


def test_profile_membership():
    p = profile_from_weights([[0.5, 0.5], [0.25, 0.75]])
    assert p.in_A()
    assert p.in_G()
    q = profile_from_weights([[0.5, 0.6], [0.25, 0.75]])
    assert not q.in_A()
    r = profile_from_weights([[1.5, -0.5], [0.25, 0.75]])
    assert r.in_A()
    assert not r.in_G()


def test_profile_exact_membership():
    p = profile_from_weights(
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]],
        mode=RATIONAL,
    )
    assert p.in_A()
    assert p.in_G()
    # exact weights are compared exactly: 10^-15 off is off
    off = profile_from_weights(
        [[Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**15)], [Fraction(1), Fraction(0)]],
        mode=RATIONAL,
    )
    assert not off.in_A()
    assert not off.in_G()
    # float weights get WEIGHT_TOL: 1e-10 off is in A
    near = profile_from_weights([[0.5, 0.5 + 1e-10], [1.0, 0.0]])
    assert near.in_A()
    assert near.in_G()


def test_support_of():
    p = profile_from_weights([[0.5, 0.5], [1.0, 0.0]])
    s = support_of(p)
    assert s.supports == ((0, 1), (0,))
    q = profile_from_weights([[0.5, 0.5], [1.0 - 1e-12, 1e-12]])
    assert support_of(q).supports == ((0, 1), (0,))
    # exact weights are compared exactly: the 1e-12 weight counts
    exact = profile_from_weights([[Fraction(1, 2)] * 2, [1 - Fraction(1e-12), Fraction(1e-12)]],
                                 RATIONAL)
    assert support_of(exact).supports == ((0, 1), (0, 1))


@pytest.mark.parametrize("factor, inside", [(0.9, True), (1.1, False)])
def test_weight_tolerance_boundary(factor, inside):
    # float weights take one tolerance: a weight, a sum or a bound off by
    # 0.9 WEIGHT_TOL counts as on it, and off by 1.1 WEIGHT_TOL does not
    off = factor * game_module.WEIGHT_TOL
    # support_of: a weight that far from 0 is zero
    p = profile_from_weights([[1.0 - off, off], [1.0, 0.0]])
    assert support_of(p).supports == ((0,) if inside else (0, 1), (0,))
    # in_A and in_G: a sum that far from 1
    p = profile_from_weights([[0.5, 0.5 + off], [1.0, 0.0]])
    assert p.in_A() is inside and p.in_G() is inside
    # in_G: weights that far outside [0, 1], summing to 1
    p = profile_from_weights([[-off, 1.0 + off], [1.0, 0.0]])
    assert p.in_A() and p.in_G() is inside


@pytest.mark.parametrize("weights, exact", [
    ([[1, 0], [Fraction(1, 3), Fraction(2, 3)]], True),
    ([[1.0, 0.0], [0.5, 0.5]], False),
    # NumPy integers are not exact numbers
    ([[np.int64(1), np.int64(0)], [np.int64(0), np.int64(1)]], False),
])
def test_profile_exact_names_the_branch(bos_exact, weights, exact):
    dtype = float if isinstance(weights[0][0], float) else object
    p = MixedProfile(tuple(np.array(w, dtype=dtype) for w in weights))
    assert p.exact is exact
    assert p.in_A() and p.in_G()
    # exact weights are checked in integers and reported as Fractions
    report = best_reply_check(bos_exact, p)
    assert all(isinstance(r, Fraction) is exact for r in report.equality_residuals)


def test_support_and_membership_read_the_exact_flag():
    # the sum is 1 + 10^-12 and the second weight 2 * 10^-12: exact
    # weights count both, the float tolerances neither
    tiny = Fraction(1, 10**12)
    weights = (np.array([1 - tiny, 2 * tiny], dtype=object),
               np.array([Fraction(1), Fraction(0)], dtype=object))
    exact = MixedProfile(weights)
    assert exact.exact
    assert support_of(exact).supports == ((0, 1), (0,))
    assert not exact.in_A() and not exact.in_G()
    as_float = MixedProfile(weights)
    as_float.__dict__["exact"] = False  # the same numbers, read as floats
    assert support_of(as_float).supports == ((0,), (0,))
    assert as_float.in_A() and as_float.in_G()


def test_profile_decides_exactness_once(monkeypatch, bos_exact):
    calls = []
    scan = game_module._exact
    monkeypatch.setattr(game_module, "_exact", lambda w: calls.append(w) or scan(w))
    p = profile_from_weights([[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
                             RATIONAL)
    support_of(p)
    p.in_A()
    p.in_G()
    best_reply_check(bos_exact, p)
    assert len(calls) == 1
