"""Game construction, parsing, serialization, and profile helpers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    FLOAT,
    RATIONAL,
    GameFormatError,
    MixedProfile,
    best_reply_check,
    make_game,
    parse_game,
    profile_from_weights,
    random_game,
    serialize_game,
    support_of,
)
from nashatlas import game as game_module


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
    with pytest.raises(ValueError, match="^strategy count 2.5 is not an integer$"):
        make_game((2.5, 2), [np.zeros(4), np.zeros(4)])
    assert make_game((2.0, np.int64(2)), [np.zeros(4), np.zeros(4)]).strategy_counts == (2, 2)


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


def test_integer_pair_tables_index_own_then_opponent():
    game = make_game((2, 3), [np.arange(6.0).reshape(2, 3) / 4, -np.arange(6.0).reshape(2, 3)])
    own, opp = game.integer_pair_tables()
    assert own == [[0, 1, 2], [3, 4, 5]]
    assert opp == [[0, -3], [-1, -4], [-2, -5]]
    assert all(type(n) is int for row in own + opp for n in row)
    assert game.integer_pair_tables() is game.integer_pair_tables()
    # three players: the pair's tables sliced at the held player's strategy,
    # each still indexed [own strategy][partner strategy]
    u = [np.arange(12.0).reshape(2, 3, 2) * (k + 1) for k in range(3)]
    triple = make_game((2, 3, 2), u)
    for pair, at, index in [((0, 1), (1,), np.s_[:, :, 1]), ((0, 2), (2,), np.s_[:, 2, :]),
                            ((1, 2), (0,), np.s_[0, :, :])]:
        i, j = pair
        own, opp = triple.integer_pair_tables(pair, at)
        assert own == u[i][index].astype(int).tolist()
        assert opp == u[j][index].T.astype(int).tolist()
        assert triple.integer_pair_tables(pair, at) is triple.integer_pair_tables(pair, at)
    assert triple.integer_pair_tables((0, 1), (0,)) != triple.integer_pair_tables((0, 1), (1,))


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


@pytest.mark.parametrize(
    "text",
    [
        "strategies 2 2\npayoff 1\n1 1 1 1\npayoff 2\n1 1 1 1\n",
        "players 2\nstrategies 2\npayoff 1\n1 1\npayoff 2\n1 1\n",
        "players 2\nstrategies 2 2\npayoff 1\n1 1 1\npayoff 2\n1 1 1 1\n",
        "players 2\nstrategies 2 2\npayoff 1\n1 1 1 1\n",
        "players 2\nstrategies 1 2\npayoff 1\n1 1\npayoff 2\n1 1\n",
        "players 2\nstrategies 2 2\nbogus\npayoff 1\n1 1 1 1\npayoff 2\n1 1 1 1\n",
        "players 2\nstrategies 2 2\npayoff 1\n1 x 1 1\npayoff 2\n1 1 1 1\n",
    ],
)
def test_parse_game_errors(text):
    with pytest.raises(GameFormatError):
        parse_game(text)


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
    # float weights get SIMPLEX_TOL: 1e-10 off is in A
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
