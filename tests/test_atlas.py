"""Charts, transitions, hypersurfaces, and membership."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    INF,
    RATIONAL,
    ChartExcludesHypersurface,
    ChartPoint,
    Coordinate,
    GoodFamily,
    PayoffDiff,
    all_charts,
    chart_point,
    chart_zero_point,
    defining_map,
    excluded_hypersurfaces,
    format_chart,
    make_game,
    on_hypersurface,
    parse_chart,
    parse_hypersurface,
    profile_from_weights,
    random_game,
    read_chart,
    transition,
    transversal_at,
)
from nashatlas.atlas import chart_excludes

from conftest import fd_gradient


def test_all_charts_counts(mp_float):
    charts = list(all_charts(mp_float))
    assert len(charts) == 4
    assert (0, 0) in charts and (1, 1) in charts
    g = random_game((2, 3), seed=1)
    assert len(list(all_charts(g))) == 6


def test_chart_point_validation(mp_float):
    with pytest.raises(ValueError):
        chart_point(mp_float, (0, 2), [[0.5], [0.5]])
    with pytest.raises(ValueError):
        chart_point(mp_float, (0, 0), [[0.5, 0.5], [0.5]])
    # a chart index is never truncated: (1.9, 0) is no chart (1, 0)
    with pytest.raises(ValueError, match="^player 1 chart index 1.9 is not an integer$"):
        chart_point(mp_float, (1.9, 0), [[0.5], [0.5]])
    assert chart_point(mp_float, (np.int64(1), 0.0), [[0.5], [0.5]]).chart == (1, 0)


@pytest.mark.parametrize("call, message", [
    # the id of the row's old message
    pytest.param(lambda g: chart_point(g, (0, 0), [[np.inf], [0.5]]),
                 "player 1 chart coordinate inf is not a number",
                 id="<lambda>-non-finite coordinate for player 1"),
    (lambda g: parse_chart("a,b", g), "bad chart spec 'a,b': expected l1,l2,..."),
])
def test_input_errors_name_the_bad_input(mp_float, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(mp_float)


def test_lift_inserts_unit(mp_float):
    p = chart_point(mp_float, (1, 0), [[0.25], [4.0]])
    vs = p.full_vectors()
    np.testing.assert_array_equal(vs[0], [0.25, 1.0])
    np.testing.assert_array_equal(vs[1], [1.0, 4.0])


def test_read_chart_rescales(mp_float):
    vectors = [np.array([2.0, 4.0]), np.array([1.0, 3.0])]
    p = read_chart(vectors, (0, 1))
    assert p.coords[0][0] == pytest.approx(2.0)
    assert p.coords[1][0] == pytest.approx(1.0 / 3.0)


def test_read_chart_zero_pivot_raises(mp_float):
    with pytest.raises(ZeroDivisionError):
        read_chart([np.array([0.0, 1.0]), np.array([1.0, 1.0])], (0, 0))


@pytest.mark.parametrize("vector, chart, message", [
    ([1, math.nan], (0, 0), "player 1 tilde coordinate nan is not a number"),
    ([1, math.inf], (1, 0), "player 1 tilde coordinate inf is not a number"),
    ([1.0, 10**400], (0, 0), f"player 1 tilde coordinate {10**400} is not a number"),
    (["x", 1], (1, 0), "player 1 tilde coordinate x is not a number"),
    ([None, 1], (1, 0), "player 1 tilde coordinate None is not a number"),
], ids=["nan", "inf", "10**400", "x", "None"])
def test_read_chart_reads_vector_entries_by_the_number_rule(vector, chart, message):
    # a vector entry that is no number, or no float in a float vector, is
    # one ValueError naming the player and the value, never a nan or 0.
    # coordinate, a NumPy warning or a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_chart([vector, [1, 2]], chart)


@pytest.mark.parametrize("vectors, message", [
    ([1, [1, 2]], "player 1 tilde vector 1 is not a sequence"),
    ([[1, 2], None], "player 2 tilde vector None is not a sequence"),
    ([[1, 2], "ab"], "player 2 tilde vector ab is not a sequence"),
    (None, "tilde vectors None is not a sequence"),
    (3, "tilde vectors 3 is not a sequence"),
    ([iter([1, None]), [1, 2]], "player 1 tilde coordinate None is not a number"),
], ids=["scalar", "None-vector", "string", "None", "int", "iterator"])
def test_read_chart_reads_its_vectors_by_the_sequence_rule(vectors, message):
    # the vectors and each player's vector are sequences, checked before
    # any length is taken: one ValueError naming the player, never a
    # TypeError; a one-shot iterator is read once, and its entries are
    # what the later checks see
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_chart(vectors, (0, 0))


def test_read_chart_reads_one_shot_iterators_once():
    p = read_chart(iter([iter([2, 1]), iter([1, 3])]), (0, 1))
    assert [c.tolist() for c in p.coords] == [[Fraction(1, 2)], [Fraction(1, 3)]]


def test_read_chart_keeps_exact_vectors_exact_and_a_zero_slot_divides_by_zero():
    p = read_chart([[2, 1], [Fraction(1, 3), 1]], (0, 1))
    assert [c.tolist() for c in p.coords] == [[Fraction(1, 2)], [Fraction(1, 3)]]
    assert all(c.dtype == object for c in p.coords)
    assert read_chart([[2**1100, 1], [1, 1]], (1, 0)).coords[0].tolist() == [2**1100]
    for vector in ([0, 1], [0.0, 1.0]):
        with pytest.raises(ZeroDivisionError):
            read_chart([vector, [1, 1]], (0, 0))


def test_transition_frozen_example(mp_float):
    p = chart_point(
        mp_float, (0, 0), [[Fraction(2)], [Fraction(3)]], mode=RATIONAL
    )
    q = transition(p, (1, 1))
    assert q.coords[0][0] == Fraction(1, 2)
    assert q.coords[1][0] == Fraction(1, 3)


def test_transition_undefined_raises(mp_float):
    p = chart_point(mp_float, (0, 0), [[0.0], [0.5]])
    with pytest.raises(ZeroDivisionError):
        transition(p, (1, 0))


# each row keeps the id of its old message
@pytest.mark.parametrize("chart, message", [
    pytest.param((-1, 0), "player 1 chart index -1 must be >= 0",
                 id="chart0-chart index -1 out of range for player 1"),
    pytest.param((0, 3), "player 2 chart index 3 out of range",
                 id="chart1-chart index 3 out of range for player 2"),
    pytest.param((5, 0), "player 1 chart index 5 out of range",
                 id="chart2-chart index 5 out of range for player 1"),
    pytest.param((0.5, 0), "player 1 chart index 0.5 is not an integer",
                 id="chart3-chart index 0.5 is not an integer"),
    pytest.param((0,), "chart (0,) has length 1, expected 2", id="chart4-chart needs 2 indices"),
])
def test_transition_and_read_chart_check_the_chart(chart, message):
    # a negative index must not wrap around to another slot of the point
    p = chart_point(random_game((3, 3), seed=0), (0, 0), [[0.25, 0.5], [0.5, 0.25]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        transition(p, chart)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_chart(p.full_vectors(), chart)


@settings(max_examples=40, deadline=None)
@given(
    coords=st.tuples(
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    ),
    target=st.tuples(st.integers(0, 1), st.integers(0, 2)),
)
def test_transition_round_trip(coords, target):
    """Where defined, moving to another chart and back is exact."""
    g = random_game((2, 3), seed=2)
    p = chart_point(g, (0, 0), [coords[:1], coords[1:]], mode=RATIONAL)
    try:
        q = transition(p, target)
        back = transition(q, (0, 0))
    except ZeroDivisionError:
        return
    for a, b in zip(back.coords, p.coords):
        assert np.array_equal(a, b)


def test_chart_zero_point():
    prof = profile_from_weights([[0.4, 0.6], [0.1, 0.2, 0.7]])
    p = chart_zero_point(prof)
    assert p.chart == (0, 0)
    np.testing.assert_allclose(p.coords[0], [0.6])
    np.testing.assert_allclose(p.coords[1], [0.2, 0.7])


def test_excluded_hypersurfaces(mp_float):
    assert excluded_hypersurfaces(mp_float, (0, 0)) == [
        Coordinate(0, INF),
        Coordinate(1, INF),
    ]
    assert excluded_hypersurfaces(mp_float, (1, 0)) == [
        Coordinate(0, 1),
        Coordinate(1, INF),
    ]
    # the complement is exactly what chart_excludes rejects
    g = random_game((3, 2), seed=0)
    surfaces = [Coordinate(i, j) for i, c in enumerate(g.strategy_counts)
                for j in [*range(c), INF]] + [PayoffDiff(0, (0, 2)), PayoffDiff(1, (0, 1))]
    for chart in all_charts(g):
        excluded = excluded_hypersurfaces(g, chart)
        assert [h for h in surfaces if chart_excludes(chart, h)] == excluded


def test_defining_map_coordinate_forms(mp_float):
    f_inf = defining_map(mp_float, Coordinate(0, INF), (1, 0))
    np.testing.assert_array_equal(f_inf.coeffs, [1.0, 0.0])
    assert f_inf.blocks == (0,)
    assert f_inf.pinned == (1,)

    f0 = defining_map(mp_float, Coordinate(0, 0), (0, 0))
    np.testing.assert_array_equal(f0.coeffs, [1.0, -1.0])

    f1 = defining_map(mp_float, Coordinate(0, 1), (0, 0))
    np.testing.assert_array_equal(f1.coeffs, [0.0, 1.0])
    assert f1.pinned == (0,)


def test_defining_map_coordinate_values():
    g = random_game((3, 2), seed=3)
    pt = chart_point(g, (0, 0), [[0.25, 0.35], [0.5]])
    f0 = defining_map(g, Coordinate(0, 0), (0, 0))
    # gamma_0 = tilde_0 - tilde_1 - tilde_2 with tilde_0 pinned to 1
    assert f0.eval([pt.coords[0]]) == pytest.approx(1 - 0.25 - 0.35)
    f2 = defining_map(g, Coordinate(0, 2), (0, 0))
    assert f2.eval([pt.coords[0]]) == pytest.approx(0.35)


def test_defining_map_payoff_diff_frozen(mp_float):
    d1 = defining_map(mp_float, PayoffDiff(0, (0, 1)), (0, 0))
    assert d1.blocks == (1,)
    np.testing.assert_allclose(d1.coeffs, [2.0, -4.0])
    d2 = defining_map(mp_float, PayoffDiff(1, (0, 1)), (0, 0))
    np.testing.assert_allclose(d2.coeffs, [-2.0, 4.0])
    assert d1.eval([[0.5]]) == pytest.approx(0.0)
    assert d1.grad([[0.5]], 1) == pytest.approx([-4.0])


def test_defining_map_chart_excluded(mp_float):
    with pytest.raises(ChartExcludesHypersurface):
        defining_map(mp_float, Coordinate(0, 1), (1, 0))
    with pytest.raises(ChartExcludesHypersurface):
        defining_map(mp_float, Coordinate(0, INF), (0, 0))
    # the sum hyperplane is never excluded
    for chart in all_charts(mp_float):
        defining_map(mp_float, Coordinate(0, 0), chart)


def test_defining_map_validates_inputs(mp_float):
    with pytest.raises(ValueError):
        defining_map(mp_float, Coordinate(2, 0), (0, 0))
    with pytest.raises(ValueError):
        defining_map(mp_float, PayoffDiff(0, (0, 3)), (0, 0))
    with pytest.raises(ValueError):
        defining_map(mp_float, Coordinate(0, 5), (0, 0))


def test_defining_map_gradients_match_fd():
    g = random_game((2, 3, 2), seed=19)
    rng = np.random.default_rng(4)
    surfaces = [Coordinate(1, 0), Coordinate(1, 2), Coordinate(2, INF)]
    surfaces += [PayoffDiff(0, (0, 1)), PayoffDiff(1, (0, 2)), PayoffDiff(2, (0, 1))]
    for chart in [(0, 0, 0), (1, 2, 0)]:
        for h in surfaces:
            try:
                form = defining_map(g, h, chart)
            except ChartExcludesHypersurface:
                continue
            points = [
                rng.normal(size=form.input_length(t))
                for t in range(len(form.blocks))
            ]
            for block in form.blocks:
                np.testing.assert_allclose(
                    form.grad(points, block),
                    fd_gradient(form, points, block),
                    rtol=1e-6,
                    atol=1e-7,
                )


def test_on_hypersurface_membership(mp_float):
    on = chart_point(mp_float, (0, 0), [[0.5], [0.5]])
    off = chart_point(mp_float, (0, 0), [[0.5], [0.0]])
    h = PayoffDiff(0, (0, 1))
    assert on_hypersurface(mp_float, h, on)
    assert not on_hypersurface(mp_float, h, off)
    assert on_hypersurface(mp_float, Coordinate(1, 1), off)
    assert not on_hypersurface(mp_float, Coordinate(1, 1), on)


def test_on_hypersurface_zero_form_matches_everything(zero_game):
    pt = chart_point(zero_game, (0, 0), [[0.3], [0.9]])
    assert on_hypersurface(zero_game, PayoffDiff(0, (0, 1)), pt)


def test_membership_tolerance_is_the_points(mp_float, mp_exact):
    # D:1:0:1 is 2 - 4y in chart (0, 0): a point 10**-10 off it is off when
    # exact (tolerance 0), and on as floats (within MEMBERSHIP_TOL of the
    # largest coefficient), whatever the game's mode
    h = PayoffDiff(0, (0, 1))
    coords = [[Fraction(1, 2)], [Fraction(1, 2) + Fraction(1, 10**10)]]
    exact = chart_point(mp_float, (0, 0), coords, mode=RATIONAL)
    floats = chart_point(mp_float, (0, 0), coords)
    for game in (mp_float, mp_exact):
        assert not on_hypersurface(game, h, exact)
        assert on_hypersurface(game, h, floats)


# matching pennies, and the family of both players' payoff differences
PENNIES = ((2, 2), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
DIFFS = GoodFamily(((), ()), (((0, 1),), ((0, 1),)))


def _objects(*coords):
    return tuple(np.array(c, dtype=object) for c in coords)


@pytest.mark.parametrize("point, target, active", [
    # floats in object arrays are floats: 1e-12 off D:1:0:1 is on it
    (ChartPoint((0, 0), _objects([0.5], [0.5 + 1e-12])), (1, 1),
     (PayoffDiff(0, (0, 1)), PayoffDiff(1, (0, 1)))),
    # ints in lists are exact, as Fractions are: 1e-12 off it is off it
    (ChartPoint((1, 1), ([2], [2 - Fraction(1, 10**12)])), (0, 0), (PayoffDiff(1, (0, 1)),)),
], ids=["object floats", "list ints"])
def test_a_point_keeps_its_tolerance_in_every_chart(point, target, active):
    game = make_game(*PENNIES)
    for p in (point, transition(point, target)):
        assert transversal_at(game, DIFFS, p).active == active, p


def test_chart_coords_may_be_lists():
    game = make_game(*PENNIES)
    lists, arrays = ChartPoint((0, 0), ([0.5], [0.5])), chart_point(game, (0, 0), [[0.5], [0.5]])
    got, want = (transversal_at(game, DIFFS, p) for p in (lists, arrays))
    assert (got.active, got.verdict, got.rank) == (want.active, want.verdict, want.rank)
    np.testing.assert_array_equal(got.jacobian, want.jacobian)
    assert on_hypersurface(game, PayoffDiff(0, (0, 1)), lists)


@pytest.mark.parametrize("coords", [_objects([np.inf], [0.5]), _objects([np.nan], [0.5]),
                                    (np.array([np.inf]), np.array([0.5]))],
                         ids=["object inf", "object nan", "float64 inf"])
@pytest.mark.parametrize("call", [
    lambda game, point: on_hypersurface(game, PayoffDiff(1, (0, 1)), point),
    lambda game, point: transversal_at(game, DIFFS, point),
], ids=["on_hypersurface", "transversal_at"])
def test_a_non_finite_chart_coordinate_is_named(coords, call):
    value = coords[0][0]
    with pytest.raises(ValueError, match=f"^player 1 chart coordinate {value} is not a number$"):
        call(make_game(*PENNIES), ChartPoint((0, 0), coords))


def test_one_player_forms_stay_exact():
    # a one-player game's payoff differences are forms in no blocks, 0-d
    # coefficient arrays; a rational game's stay exact, and membership
    # reads them at an exact point and at a float one
    game = make_game((3,), [[1, 1, 0]], mode=RATIONAL)
    form = defining_map(game, PayoffDiff(0, (0, 2)), (0,))
    assert form.is_rational and form.coeffs.shape == () and form.coeffs.item() == 1
    members = [PayoffDiff(0, (0, 1)), PayoffDiff(0, (0, 2)), Coordinate(0, 1), Coordinate(0, 2)]
    for mode in (RATIONAL, "float"):
        point = chart_point(game, (0,), [[0, 1]], mode=mode)  # weights (0, 0, 1)
        assert [on_hypersurface(game, h, point) for h in members] == [True, False, True, False]


def test_membership_invariant_across_charts():
    """A point on a hypersurface stays on it in every chart that can
    see both the point and the hypersurface."""
    rng = np.random.default_rng(8)
    for shape in [(2, 2), (3, 2)]:
        g = random_game(shape, seed=int(rng.integers(10**6)))
        h = PayoffDiff(0, (0, 1))
        for _ in range(20):
            # solve the multi-affine form for the last coordinate of
            # the opponent block to land exactly on the hypersurface
            form = defining_map(g, h, tuple([0] * len(shape)))
            coords = [rng.normal(size=c - 1) for c in shape]
            v = form.eval([coords[1]])
            grad = form.grad([coords[1]], 1)
            if abs(grad[-1]) < 1e-6:
                continue
            coords[1][-1] -= v / grad[-1]
            base = chart_point(g, tuple([0] * len(shape)), coords)
            assert on_hypersurface(g, h, base)
            for chart in all_charts(g):
                try:
                    moved = transition(base, chart)
                    defining_map(g, h, chart)
                except (ZeroDivisionError, ChartExcludesHypersurface):
                    continue
                assert on_hypersurface(g, h, moved)


def test_format_parse_chart(mp_float):
    assert format_chart((1, 0)) == "1,0"
    assert format_chart([np.int64(1), 2.0]) == "1,2"
    for chart, message in [((1.5, 0), "player 1 chart index 1.5 is not an integer"),
                           (None, "chart None is not a sequence")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            format_chart(chart)
    assert parse_chart("1,0", mp_float) == (1, 0)
    with pytest.raises(ValueError):
        parse_chart("2,0", mp_float)
    with pytest.raises(ValueError):
        parse_chart("1", mp_float)


def test_hypersurface_names_round_trip():
    for h in [Coordinate(0, INF), Coordinate(1, 2), PayoffDiff(0, (1, 3))]:
        assert parse_hypersurface(str(h)) == h
    with pytest.raises(ValueError):
        parse_hypersurface("C:0:1")
    with pytest.raises(ValueError):
        parse_hypersurface("D:1:2:2")
    with pytest.raises(ValueError):
        parse_hypersurface("X:1:2")


def test_hypersurface_errors_name_the_member():
    # players are 1-based in the name and 0-based as a player index: C:3:1
    # of a 2-player game has player index 2
    g = random_game((2, 3), seed=0)
    with pytest.raises(ValueError, match="^C:3:1: player index 2 out of range$"):
        parse_hypersurface("C:3:1", g)
    with pytest.raises(ValueError, match="^D:3:0:1: player index 2 out of range$"):
        defining_map(g, PayoffDiff(2, (0, 1)), (0, 0))
    with pytest.raises(ValueError, match="^C:2:3: coordinate index 3 out of range$"):
        defining_map(g, Coordinate(1, 3), (0, 0))
    with pytest.raises(ValueError, match="^D:1:0:2: pair index 2 out of range$"):
        parse_hypersurface("D:1:0:2", g)
    with pytest.raises(ValueError, match="^D:1:1:1: pair must satisfy 0 <= j < k$"):
        PayoffDiff(0, (1, 1))
    # a member whose fields are not indices is named by its repr, as its
    # 1-based label needs them
    with pytest.raises(ValueError, match=re.escape(
            "Coordinate(player=0, index=-1): coordinate index -1 must be >= 0")):
        Coordinate(0, -1)
    # a player is an integer: 1.0 is player 1 (printed 1-based), 0.5 is
    # no player
    assert Coordinate(1.0, 1) == Coordinate(1, 1) and str(Coordinate(1.0, 1)) == "C:2:1"
    assert defining_map(g, PayoffDiff(1.0, (0, 1)), (0, 0)).blocks == (0,)
    with pytest.raises(ValueError, match=re.escape(
            "Coordinate(player=0.5, index=1): player index 0.5 is not an integer")):
        Coordinate(0.5, 1)
    with pytest.raises(ValueError, match=re.escape(
            "PayoffDiff(player=0.5, pair=(0, 1)): player index 0.5 is not an integer")):
        PayoffDiff(0.5, (0, 1))


def test_payoff_diff_validates_pair():
    with pytest.raises(ValueError):
        PayoffDiff(0, (2, 1))
    with pytest.raises(ValueError):
        PayoffDiff(0, (1, 1))
