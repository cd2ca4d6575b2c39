"""Good families, transversality verdicts, probes, and the rank-split
equivalence."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    INF,
    RATIONAL,
    ChartPoint,
    Coordinate,
    EquilibriumCertificate,
    PayoffDiff,
    canonical_equilibrium_family,
    certify_equilibrium,
    chart_point,
    chart_zero_point,
    enumerate_nash,
    enumerate_supports,
    good_family,
    is_good,
    make_game,
    on_hypersurface,
    payoff_slice_values,
    profile_from_weights,
    random_game,
    regular_value_probe,
    support_of,
    transition,
    transversal_at,
    witness_cycle,
)
from nashatlas import equilibrium, genericity
from nashatlas.atlas import chart_excludes, defining_map
from nashatlas.equilibrium import SingularSystem, _newton_starts, solve_support
from nashatlas.forms import _basis_matrix, _contract_axis, contract
from nashatlas.game import WEIGHT_TOL, SupportProfile
from nashatlas.genericity import (
    DEDUP_TOL,
    NEWTON_HALVINGS,
    NEWTON_MAX_ITERS,
    RANDOM_STARTS,
    RANK_TOL,
    RESIDUAL_TOL,
    GoodFamily,
    _dedup,
    _face_system,
    _newton_roots,
    _newton_step,
    _plan,
    _svd_ranks,
    full_gradient,
)

from conftest import oracle_full_support_2x2x2, rank_split_equivalence_test


def nx_family_is_forest(family, counts):
    """Independent acyclicity oracle built on networkx."""
    for i, pairs in enumerate(family.R):
        graph = nx.Graph()
        graph.add_nodes_from(range(counts[i]))
        graph.add_edges_from(pairs)
        if not nx.is_forest(graph):
            return False
    return True


def _zero_game(counts):
    return make_game(counts, [np.zeros(counts) for _ in counts])


def test_good_family_examples():
    g = _zero_game((3, 3))
    assert is_good(good_family(g))
    assert is_good(good_family(g, R=[[(0, 1), (1, 2)], [(0, 2)]]))
    assert not is_good(good_family(g, R=[[(0, 1), (1, 2), (0, 2)], []]))
    # T labels never affect goodness
    assert is_good(good_family(g, T=[[0, 1, 2, INF], [INF]], R=[[], []]))


def test_good_family_validation():
    g = _zero_game((2, 2))
    with pytest.raises(ValueError):
        good_family(g, R=[[(0, 2)], []])
    with pytest.raises(ValueError):
        good_family(g, T=[[3], []])
    with pytest.raises(ValueError):
        good_family(g, R=[[(0, 1)]])


def test_good_family_sorts_and_dedups():
    g = _zero_game((3, 2))
    fam = good_family(g, T=[[2, 0, 2], [INF, 0]], R=[[(1, 2), (0, 1), (1, 2)], []])
    assert fam.T[0] == (0, 2)
    assert fam.T[1] == (0, INF)
    assert fam.R[0] == ((0, 1), (1, 2))
    assert fam.num_pairs == 2


def test_witness_cycle_is_real():
    g = _zero_game((4, 2))
    fam = good_family(g, R=[[(0, 1), (1, 2), (2, 3), (0, 3)], []])
    assert not is_good(fam)
    player, verts = witness_cycle(fam)
    assert player == 0
    assert len(verts) >= 3
    assert len(set(verts)) == len(verts)
    edges = set(fam.R[player])
    closed = list(verts) + [verts[0]]
    for a, b in zip(closed, closed[1:]):
        assert (min(a, b), max(a, b)) in edges
    assert witness_cycle(good_family(g, R=[[(0, 1)], []])) is None


def test_a_repeated_pair_is_one_edge():
    # a hand-built family may list a pair twice; it is no cycle
    assert witness_cycle(GoodFamily(((),), (((0, 1), (0, 1)),))) is None


def test_is_good_matches_networkx_slice():
    counts = (3, 3)
    g = _zero_game(counts)
    all_pairs = list(itertools.combinations(range(3), 2))
    for r1 in itertools.chain.from_iterable(
        itertools.combinations(all_pairs, k) for k in range(4)
    ):
        for r2 in itertools.chain.from_iterable(
            itertools.combinations(all_pairs, k) for k in range(4)
        ):
            fam = good_family(g, R=[list(r1), list(r2)])
            assert is_good(fam) == nx_family_is_forest(fam, counts)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_good_is_monotone_under_removal(data):
    counts = (4, 3)
    g = _zero_game(counts)
    pairs1 = data.draw(
        st.lists(
            st.sampled_from(list(itertools.combinations(range(4), 2))),
            max_size=5,
            unique=True,
        )
    )
    pairs2 = data.draw(
        st.lists(
            st.sampled_from(list(itertools.combinations(range(3), 2))),
            max_size=3,
            unique=True,
        )
    )
    fam = good_family(g, R=[pairs1, pairs2])
    if not is_good(fam):
        return
    for i, pairs in enumerate(fam.R):
        for drop in range(len(pairs)):
            smaller = [list(p) for p in fam.R]
            smaller[i] = [p for k, p in enumerate(pairs) if k != drop]
            assert is_good(good_family(g, R=smaller))


def test_canonical_family_shape(mp_float):
    prof = profile_from_weights([[0.5, 0.5], [1.0, 0.0]])
    fam = canonical_equilibrium_family(mp_float, support_of(prof))
    assert fam.T == ((), (1,))
    assert fam.R == (((0, 1),), ())
    assert is_good(fam)
    surfaces = list(fam.hypersurfaces())
    assert Coordinate(1, 1) in surfaces
    assert PayoffDiff(0, (0, 1)) in surfaces
    # one constraint per chart dimension
    assert len(surfaces) == sum(c - 1 for c in mp_float.strategy_counts)


def test_transversal_at_mp_frozen(mp_float):
    prof = profile_from_weights([[0.5, 0.5], [0.5, 0.5]])
    fam = canonical_equilibrium_family(mp_float, support_of(prof))
    report = transversal_at(
        mp_float, fam, chart_zero_point(prof), active=list(fam.hypersurfaces())
    )
    # payoff-difference rows in matching pennies' payoff unit, 2
    np.testing.assert_allclose(report.jacobian, [[0.0, -2.0], [2.0, 0.0]])
    assert report.rank == 2
    assert report.smallest_singular_value == pytest.approx(2.0)
    assert report.verdict == "transversal"


def test_transversal_at_detects_active(mp_float):
    """Without a pinned active set, membership decides which
    hypersurfaces contribute rows."""
    prof = profile_from_weights([[0.5, 0.5], [0.5, 0.5]])
    fam = canonical_equilibrium_family(mp_float, support_of(prof))
    report = transversal_at(mp_float, fam, chart_zero_point(prof))
    assert set(report.active) == {PayoffDiff(0, (0, 1)), PayoffDiff(1, (0, 1))}
    assert report.verdict == "transversal"


def test_transversal_vacuous_when_nothing_active(mp_float):
    fam = good_family(mp_float, T=[[1], []], R=[[], []])
    point = chart_zero_point(profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))
    report = transversal_at(mp_float, fam, point)
    assert report.active == ()
    assert report.rank == 0
    assert report.verdict == "transversal"


def test_transversal_pigeonhole_degenerate():
    """More active hypersurfaces than the chart has dimensions can
    never meet transversally."""
    g = _zero_game((2, 2))
    fam = good_family(
        g, T=[[1], [1]], R=[[(0, 1)], [(0, 1)]]
    )
    point = chart_zero_point(profile_from_weights([[1.0, 0.0], [1.0, 0.0]]))
    report = transversal_at(g, fam, point, active=list(fam.hypersurfaces()))
    assert len(report.active) == 4
    assert report.verdict == "degenerate"


def test_certify_mp_regular(mp_exact):
    # the face-system Jacobian [[0, -2], [2, 0]] in the payoff unit 2
    result = enumerate_nash(mp_exact)
    cert = result.equilibria[0]
    assert cert.jacobian_verdict == "regular"
    assert cert.smallest_singular_value == pytest.approx(2.0)


def test_certify_bos_pure_regular(bos_exact):
    result = enumerate_nash(bos_exact)
    assert all(c.jacobian_verdict == "regular" for c in result.equilibria)
    assert all(c.smallest_singular_value > 1e-8 for c in result.equilibria)
    # a pure equilibrium has no free weights: an empty Jacobian, like its
    # infinite margins
    pure = [c for c in result.equilibria if all(len(s) == 1 for s in c.support.supports)]
    assert len(pure) == 2
    assert all(c.smallest_singular_value == math.inf for c in pure)


def test_certify_zero_game_singular(zero_game):
    prof = profile_from_weights([[0.5, 0.5], [0.5, 0.5]])
    cert = EquilibriumCertificate(
        point=prof,
        support=support_of(prof),
        equality_residual=0.0,
        inequality_margins=(float("inf"), float("inf")),
    )
    certified = certify_equilibrium(zero_game, cert)
    assert certified.jacobian_verdict == "singular"
    assert certified.smallest_singular_value == 0.0
    assert certified.point is prof


def _chart_verdict(game, cert):
    family = canonical_equilibrium_family(game, cert.support)
    report = transversal_at(game, family, chart_zero_point(cert.point),
                            active=list(family.hypersurfaces()))
    return "regular" if report.verdict == "transversal" else "singular"


def test_face_system_verdict_is_the_chart_verdict():
    # enumerate_nash certifies from the support's face system; the
    # canonical family's transversality in chart (0, ..., 0) must agree
    # (the block-triangular rank lemma), at every power-of-two scale
    verdicts = []
    for shape in [(2, 2), (3, 3), (2, 2, 2)]:
        for seed in range(40_000, 40_030):
            base = random_game(shape, seed=seed)
            for k in (0, -30, 40):
                game = make_game(shape, [u * 2.0 ** k for u in base.utilities])
                for cert in enumerate_nash(game, seed=seed).equilibria:
                    assert cert.jacobian_verdict == _chart_verdict(game, cert), (shape, seed, k)
                    verdicts.append(cert.jacobian_verdict)
    # tied integer games; the last has singular equilibria: player 1's
    # payoffs ignore its own strategy, so its full support holds a curve of
    # equilibria, and Newton reports points of it
    rng = np.random.default_rng(0)
    games = []
    for shape, low in [((3, 3), -4)] * 10 + [((2, 2, 2), -1)] * 10:
        games.append(make_game(shape, [rng.integers(low, 1 - low, shape) for _ in shape],
                               mode=RATIONAL))
    games.append(make_game((2, 2, 2), [[[[-1, 2], [-2, 1]], [[-1, 2], [-2, 1]]],
                                       [[[0, 1], [-1, 1]], [[0, -2], [-2, -1]]],
                                       [[[-1, 1], [2, -1]], [[1, 2], [-1, -2]]]], mode=RATIONAL))
    for game in games:
        for cert in enumerate_nash(game).equilibria:
            assert cert.jacobian_verdict == _chart_verdict(game, cert), game.strategy_counts
            verdicts.append(cert.jacobian_verdict)
    assert set(verdicts) == {"regular", "singular"}


def test_face_jacobian_signs_are_indices():
    # the indices of a nondegenerate game's equilibria sum to +1 (Shapley
    # 1974). On the canonical face in chart (0, ..., 0), unknowns the
    # weights on supp[1:] and rows slope(supp[0]) - slope(t), the sign of
    # the Jacobian's determinant is the index; a pure equilibrium has no
    # unknowns and index +1
    for shape in [(2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 3, 2)]:
        chart = (0,) * len(shape)
        for seed in range(40_000, 40_060):
            game = random_game(shape, seed=seed)
            result = enumerate_nash(game, seed=seed)
            assert not result.degenerate, (shape, seed)
            total = 0
            for cert in result.equilibria:
                supports = cert.support.supports
                z = np.concatenate([w[list(s[1:])]
                                    for w, s in zip(cert.point.as_floats(), supports)])
                if not z.size:
                    total += 1
                    continue
                family = canonical_equilibrium_family(game, cert.support)
                plan = genericity._face_plan(shape, family, chart)
                system = genericity._face_system(game, plan)
                total += int(np.sign(np.linalg.det(system(z)[1])))
            assert total == 1, (shape, seed)


def test_probe_mp_regular(mp_float):
    fam = good_family(mp_float, R=[[(0, 1)], []])
    report = regular_value_probe(mp_float, fam, (0, 0), seed=0)
    assert report.verdict == "regular"
    assert report.dimension == 2
    assert report.num_equations == 1
    assert report.roots
    assert all(r.regular for r in report.roots)
    assert all(abs(r.residual) <= 1e-8 for r in report.roots)


def test_probe_zero_game_degenerate(zero_game):
    fam = good_family(zero_game, R=[[(0, 1)], []])
    report = regular_value_probe(zero_game, fam, (0, 0), seed=0)
    assert report.verdict == "degenerate"
    assert report.roots
    assert not any(r.regular for r in report.roots)


def test_probe_empty_face(mp_float):
    fam = good_family(mp_float, T=[[0, INF], []], R=[[], [(0, 1)]])
    report = regular_value_probe(mp_float, fam, (1, 0), seed=0)
    assert report.empty_face
    assert report.verdict == "regular"
    assert report.roots == ()


def test_probe_zero_dimensional_face(zero_game, mp_float):
    # both players pinned to strategy 0: the face is one point, z has no
    # coordinates and the Jacobian has one row and no columns
    fam = good_family(zero_game, T=[(1,), (1,)], R=[(), ((0, 1),)])
    report = regular_value_probe(zero_game, fam, (0, 0), seed=0)
    assert report.dimension == 0 and not report.empty_face
    assert [r.rank for r in report.roots] == [0]
    assert report.verdict == "degenerate"
    fam = good_family(mp_float, T=[(1,), (1,)], R=[(), ((0, 1),)])
    report = regular_value_probe(mp_float, fam, (0, 0), seed=0)
    assert report.dimension == 0
    assert report.roots == ()
    assert report.verdict == "regular"


def test_probe_one_player_game():
    # a constant payoff difference: no root when it is nonzero, and every
    # start a rank-0 root when it vanishes
    game = make_game([3], [np.array([1.0, 1.0, 0.0])])
    report = regular_value_probe(game, good_family(game, R=[((0, 2),)]), (0,), seed=0)
    assert report.roots == () and report.verdict == "regular"
    report = regular_value_probe(game, good_family(game, R=[((0, 1),)]), (0,), seed=0)
    assert report.roots and {r.rank for r in report.roots} == {0}
    assert report.verdict == "degenerate"


def test_probe_rejects_excluded_face(mp_float):
    fam = good_family(mp_float, T=[[1], []], R=[[], [(0, 1)]])
    with pytest.raises(ValueError):
        regular_value_probe(mp_float, fam, (1, 0), seed=0)


def test_probe_requires_a_pair(mp_float):
    with pytest.raises(ValueError, match="^family has no payoff-difference pairs to probe$"):
        regular_value_probe(mp_float, good_family(mp_float, T=[[1], []]), (0, 0))


def test_probe_requires_good_family(mp_float):
    g = _zero_game((3, 3))
    bad = good_family(g, R=[[(0, 1), (1, 2), (0, 2)], []])
    with pytest.raises(ValueError):
        regular_value_probe(g, bad, (0, 0), seed=0)


def test_probe_rejects_out_of_range_label():
    # a family built without good_family has its coordinate labels checked
    # like its pairs: an unchecked label 5 would be dropped from the face
    g = random_game((2, 3), seed=1)
    fam = GoodFamily(((5,), ()), ((), ((0, 1),)))
    with pytest.raises(ValueError, match="coordinate index 5 out of range"):
        regular_value_probe(g, fam, (0, 0), seed=0)


def test_a_repeated_hypersurface_is_rejected(mp_float):
    # D:1:0:1 listed twice would give two equal Jacobian rows: a false
    # "degenerate" at matching pennies' regular equilibrium, and in the
    # probe of a family whose deduplicated form is regular
    twice = GoodFamily(((), ()), (((0, 1), (0, 1)), ((0, 1),)))
    point = chart_zero_point(profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="D:1:0:1 is listed twice"):
        transversal_at(mp_float, twice, point)
    with pytest.raises(ValueError, match="D:1:0:1 is listed twice"):
        transversal_at(mp_float, twice, point, active=twice.hypersurfaces())
    g = random_game((2, 2, 2), seed=3)
    twice = GoodFamily(((),) * 3, (((0, 1), (0, 1)), ((0, 1),), ((0, 1),)))
    with pytest.raises(ValueError, match="D:1:0:1 is listed twice"):
        regular_value_probe(g, twice, (0, 0, 0), seed=0)
    assert regular_value_probe(g, good_family(g, R=twice.R), (0, 0, 0)).verdict == "regular"


@pytest.mark.parametrize("shape, family", [
    # one player short, and one player too many
    ((2, 2, 2), GoodFamily(((), ()), (((0, 1),), ((0, 1),)))),
    ((2, 2), GoodFamily(((), (), ()), (((0, 1),), ((0, 1),), ((0, 1),)))),
])
def test_family_needs_one_entry_per_player(shape, family):
    # a hand-built family is checked against the game like good_family's:
    # not a numpy broadcast error in the probe, not a player read as empty
    # or an IndexError in transversal_at
    g = random_game(shape, seed=3)
    point = chart_zero_point(profile_from_weights([[0.5, 0.5]] * len(shape)))
    message = "^family needs one T and one R entry per player$"
    with pytest.raises(ValueError, match=message):
        regular_value_probe(g, family, (0,) * len(shape), seed=0)
    with pytest.raises(ValueError, match=message):
        transversal_at(g, family, point)
    with pytest.raises(ValueError, match=message):
        good_family(g, family.T, family.R)


def test_transversal_at_checks_the_chart():
    # a one-entry chart on a 2x3 game: a ValueError up front, not an
    # IndexError from reading player 2's chart slot
    g = random_game((2, 3), seed=0)
    point = ChartPoint((0,), (np.array([0.5]),))
    with pytest.raises(ValueError, match=r"^chart \(0,\) has length 1, expected 2$"):
        transversal_at(g, good_family(g, R=[[], [(0, 1)]]), point)


def test_transversal_at_checks_the_coordinate_count():
    # one coordinate vector for two players: a ValueError naming the
    # missing player, not an IndexError from reading its vector
    g = random_game((2, 2), seed=0)
    family = good_family(g, R=[[(0, 1)]] * 2)
    point = ChartPoint((0, 0), (np.array([0.5]),))
    with pytest.raises(ValueError, match="^player 2 takes 1 chart coordinates, got 0$"):
        transversal_at(g, family, point)


def test_transversal_at_checks_the_coordinate_lengths():
    # a length-2 vector for a two-strategy player: a ValueError naming the
    # 1-based player, as chart_point raises, not a 0-based block from forms
    g = random_game((2, 2), seed=0)
    family = good_family(g, R=[[(0, 1)]] * 2)
    point = ChartPoint((0, 0), (np.array([0.5, 0.5]), np.array([0.5])))
    message = "^player 1 takes 1 chart coordinates, got 2$"
    with pytest.raises(ValueError, match=message):
        transversal_at(g, family, point)
    with pytest.raises(ValueError, match=message):
        chart_point(g, (0, 0), [[0.5, 0.5], [0.5]])


@pytest.mark.parametrize("mode", ["float", RATIONAL])
def test_an_exact_coordinate_with_no_float_is_named_by_transversal_at(mode):
    # the Jacobian is float, so an exact chart coordinate beyond the float
    # range is a ValueError naming the player and the coordinate, where
    # on_hypersurface decides membership there exactly
    g = make_game((2, 2), random_game((2, 2), seed=0).utilities, mode)
    point = chart_point(g, (0, 0), [[10**400], [Fraction(1, 2)]], RATIONAL)
    assert on_hypersurface(g, PayoffDiff(0, (0, 1)), point) is False
    with pytest.raises(ValueError, match=f"^player 1 chart coordinate {10**400} is not a number$"):
        transversal_at(g, good_family(g, R=[[(0, 1)], [(0, 1)]]), point)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_malformed_family_is_a_value_error(data):
    # a wrong entry count, an out-of-range label or pair, a reversed pair,
    # or a label or pair entry that is not an integer (never truncated):
    # good_family, the probe and transversal_at each raise a ValueError
    # that names the defect, never an IndexError or a numpy error; the
    # last kind is raised by GoodFamily itself
    shape = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2, 2)]), label="shape")
    m = len(shape)
    T, R = [[] for _ in shape], [[(0, 1)] for _ in shape]
    i = data.draw(st.integers(0, m - 1), label="player")
    n = shape[i] - 1
    defect = data.draw(st.sampled_from(
        ["T count", "R count", "label", "pair", "reversed", "fractional label", "fractional pair"]))
    if defect.endswith("count"):
        entries = T if defect == "T count" else R
        if data.draw(st.booleans(), label="short"):
            entries.pop()
        else:
            entries.append([])
    elif defect == "label":
        T[i].append(data.draw(st.one_of(st.integers(n + 1, n + 4), st.integers(-3, -1))))
    elif defect == "pair":
        R[i].append((data.draw(st.integers(0, n)), data.draw(st.integers(n + 1, n + 3))))
    elif defect == "reversed":
        k = data.draw(st.integers(1, n))
        R[i].append((k, data.draw(st.integers(0, k - 1))))
    elif defect == "fractional label":
        T[i].append(data.draw(st.integers(0, n - 1)) + 0.5)
    else:
        j = data.draw(st.integers(0, n - 1))
        R[i].append((float(j), j + data.draw(st.sampled_from([0.5, 0.7, 1.7]))))
    g = random_game(shape, seed=1)
    point = chart_zero_point(profile_from_weights([[1 / c] * c for c in shape]))
    message = ("family needs one T and one R entry per player|out of range|must satisfy|>= 0"
               "|is not an integer")
    with pytest.raises(ValueError, match=message):
        good_family(g, T, R)
    if defect.startswith("fractional"):
        # a hand-built family names such an entry, by its member's repr,
        # when it is built, as a support profile does
        with pytest.raises(ValueError,
                           match=r"^(Coordinate|PayoffDiff)\(player=\d, .*is not an integer$"):
            GoodFamily(tuple(map(tuple, T)), tuple(map(tuple, R)))
        return
    family = GoodFamily(tuple(map(tuple, T)), tuple(map(tuple, R)))
    with pytest.raises(ValueError, match=message):
        regular_value_probe(g, family, (0,) * m, seed=0)
    with pytest.raises(ValueError, match=message):
        transversal_at(g, family, point)


@pytest.mark.parametrize("pair", [(0, 5), (-1, 1)])
def test_probe_rejects_bad_pairs(pair):
    # a family built without good_family still has its pairs checked
    g = random_game((3, 3), seed=1)
    with pytest.raises(ValueError, match="pair"):
        regular_value_probe(g, GoodFamily(((), ()), ((pair,), ())), (0, 0), seed=0)


def test_probe_rejects_short_chart():
    # one index short of a 2x2x2 game: a ValueError up front, not an
    # IndexError from inside the face maps
    g = random_game((2, 2, 2), seed=5)
    fam = good_family(g, R=[[(0, 1)], [(0, 1)], [(0, 1)]])
    with pytest.raises(ValueError, match=r"chart \(0, 0\) has length 2, expected 3"):
        regular_value_probe(g, fam, (0, 0), seed=0)


def test_probe_three_player_regular():
    g = random_game((2, 2, 2), seed=5)
    fam = good_family(g, R=[[(0, 1)], [(0, 1)], [(0, 1)]])
    report = regular_value_probe(g, fam, (0, 0, 0), seed=5)
    assert report.dimension == 3
    assert report.num_equations == 3
    assert report.verdict == "regular"


def test_probe_exact_game_matches_float_twin():
    rng = np.random.default_rng(2)
    payoffs = [rng.integers(-3, 4, size=(2, 2, 2)) for _ in range(3)]
    exact = make_game((2, 2, 2), payoffs, mode=RATIONAL)
    twin = make_game((2, 2, 2), [u.astype(float) for u in payoffs])
    fam = good_family(exact, R=[[(0, 1)], [(0, 1)], [(0, 1)]])
    a = regular_value_probe(exact, fam, (0, 0, 0), seed=2)
    b = regular_value_probe(twin, fam, (0, 0, 0), seed=2)
    assert a.roots
    assert a.verdict == b.verdict
    assert [r.rank for r in a.roots] == [r.rank for r in b.roots]
    for r, s in zip(a.roots, b.roots):
        for x, y in zip(r.point.coords, s.point.coords):
            np.testing.assert_allclose(np.asarray(x, dtype=float), y, atol=1e-12)


def test_probe_equations_are_the_defining_maps():
    # _face_plan, then _face_system, builds the probe's equations and the
    # equilibrium route's. At random points of the face, in every chart that does not
    # exclude the family, each residual entry times its player's payoff
    # unit is the value of that PayoffDiff's defining map at the chart
    # point. On the canonical family of every support, in chart (0, 0, 0),
    # the unknowns are the weights on supp[1:], and player i's residual at
    # weights drawn on the support is c[supp[0]] - c[t], t in supp[1:], in
    # its payoff unit, c its offset-free slopes.
    base = random_game((2, 3, 2), seed=7)
    game = make_game(base.strategy_counts,
                     [u * 2.0 ** k for u, k in zip(base.utilities, (5, -7, 0))])
    fam = good_family(game, T=[(), (INF,), (1,)], R=[[(0, 1)], [(0, 1), (1, 2)], []])
    charts = _open_charts(game.strategy_counts, fam)
    assert len(charts) == 4
    inputs = [(fam, chart, None) for chart in charts] + [
        (canonical_equilibrium_family(game, s), (0, 0, 0), s.supports)
        for s in enumerate_supports(game)
    ]
    rng = np.random.default_rng(7)
    for family, chart, supports in inputs:
        plan = genericity._face_plan(game.strategy_counts, family, chart)
        system = genericity._face_system(game, plan)
        diffs = [h for h in family.hypersurfaces() if isinstance(h, PayoffDiff)]
        exponents = np.array([game.payoff_exponents[h.player] for h in diffs], dtype=int)
        forms = [defining_map(game, h, chart) for h in diffs]
        n = sum(a.shape[1] - 1 for a in plan.maps)
        for _ in range(5):
            if supports is None:
                z = rng.normal(0.0, 1.0, n)
            else:
                weights = [np.zeros(c) for c in game.strategy_counts]
                for w, s in zip(weights, supports):
                    w[list(s)] = rng.dirichlet(np.ones(len(s)))
                z = np.concatenate([w[list(s[1:])] for w, s in zip(weights, supports)])
                for w, a, v in zip(weights, plan.weights, plan.vectors(z)):
                    np.testing.assert_allclose(a @ v, w, rtol=0, atol=1e-15)
                want = []
                for i, s in enumerate(supports):
                    c = payoff_slice_values(game, i, weights)
                    want.extend(np.ldexp(c[s[0]] - c[list(s[1:])], -game.payoff_exponents[i]))
                np.testing.assert_allclose(system(z)[0], want, rtol=1e-12, atol=1e-14)
            point = plan.point_at(z)
            assert point.chart == chart
            want = [f.eval([point.coords[b] for b in f.blocks]) for f in forms]
            np.testing.assert_allclose(np.ldexp(system(z)[0], exponents), want,
                                       rtol=1e-13, atol=0)


# square families whose faces use the zeroth-weight and infinity hyperplanes
SQUARE_FAMILIES = [
    ((3, 3), [(0,), (INF,)], [[(0, 1)], [(1, 2)]]),
    ((3, 3), [(0, INF), ()], [[(0, 1), (1, 2)], []]),
    ((2, 3, 2), [(0,), (INF,), ()], [[(0, 1)], [], [(0, 1)]]),
    ((2, 3, 2), [(), (0, INF), ()], [[(0, 1)], [], [(0, 1)]]),
    ((2, 3, 2), [(INF,), (0,), ()], [[], [(0, 2)], [(0, 1)]]),
]


def _open_charts(shape, family):
    """The charts that exclude no hypersurface of the family."""
    return [chart for chart in itertools.product(*(range(c) for c in shape))
            if not any(chart_excludes(chart, h) for h in family.hypersurfaces())]


@pytest.mark.parametrize("shape, T, R", SQUARE_FAMILIES)
def test_probe_roots_lie_on_the_family(shape, T, R):
    # in every chart that does not exclude the family
    game = random_game(shape, seed=3)
    fam = good_family(game, T, R)
    hypersurfaces = fam.hypersurfaces()
    found = 0
    for chart in _open_charts(shape, fam):
        report = regular_value_probe(game, fam, chart, seed=3)
        assert report.num_equations == report.dimension
        for root in report.roots:
            found += 1
            for h in hypersurfaces:
                assert on_hypersurface(game, h, root.point), (chart, h)
    assert found


@pytest.mark.parametrize("shape, T, R", SQUARE_FAMILIES)
@pytest.mark.parametrize("factor, powers", [(1.0, (-1000, 30, -20)), (1.0, (1000, -20, 30)),
                                            (1.875, (1023,) * 3)],
                         ids=["powers0", "powers1", "powers2"])
def test_probe_does_not_depend_on_payoff_scale(shape, T, R, factor, powers):
    # each player's payoffs times its own power of two: the same roots,
    # ranks and verdicts in every chart; at factor 1.875 and 2**1023 the
    # payoffs are floats whose differences lie beyond the float range
    game = make_game(shape, [factor * u for u in random_game(shape, seed=3).utilities])
    scaled = make_game(shape, [u * 2.0 ** k for u, k in zip(game.utilities, powers)])
    fam = good_family(game, T, R)

    def answer(g, chart):
        report = regular_value_probe(g, fam, chart, seed=3)
        return report.verdict, [
            (r.rank, [c.tobytes() for c in r.point.coords]) for r in report.roots]

    for chart in _open_charts(shape, fam):
        assert answer(scaled, chart) == answer(game, chart), chart


def test_membership_and_defining_maps_do_not_depend_on_payoff_scale():
    # payoffs up to 1.875 * 2**1023 are floats, but their differences are
    # not: defining maps built by float basis changes overflowed, and at the
    # mixed equilibrium of 3x3 seed 3 membership dropped D:1:1:2 without a
    # warning; the 80 games of the equilibrium test at the same edge follow
    games = [((3, 3), 3)] + [(shape, seed) for shape in [(2, 2, 2), (3, 3), (2, 3, 2), (4, 4)]
                             for seed in range(500, 520)]
    found = []  # the active sets of 3x3 seed 3
    for shape, seed in games:
        base = make_game(shape, [1.875 * u for u in random_game(shape, seed).utilities])
        big = make_game(shape, [u * 2.0 ** 1023 for u in base.utilities])
        chart = (0,) * len(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in [PayoffDiff(i, p) for i, c in enumerate(shape)
                      for p in itertools.combinations(range(c), 2)]:
                got = defining_map(big, h, chart).coeffs
                with np.errstate(over="ignore"):
                    want = np.ldexp(defining_map(base, h, chart).coeffs, 1023)
                assert np.array_equal(got, want), (shape, seed, h)
            for eq in enumerate_nash(base).equilibria:
                if all(len(s) == 1 for s in eq.support.supports):
                    continue
                family = canonical_equilibrium_family(base, eq.support)
                point = chart_zero_point(eq.point)
                answers = [(r.active, r.rank, r.verdict)
                           for r in (transversal_at(g, family, point) for g in (base, big))]
                assert answers[1] == answers[0], (shape, seed, eq.support)
                if (shape, seed) == ((3, 3), 3):
                    found.append(", ".join(map(str, answers[0][0])))
    assert "C:1:0, C:2:1, D:1:1:2, D:2:0:2" in found


@pytest.mark.parametrize("k", [20, -40])
def test_probe_residuals_scale_with_the_payoffs(k):
    # a root's residual is the defining maps' value, in the game's own
    # payoffs: payoffs times 2^k give the same roots, each residual times
    # 2^k exactly
    game = random_game((2, 2, 2), seed=3)
    scaled = make_game(game.strategy_counts, [u * 2.0 ** k for u in game.utilities])
    fam = good_family(game, R=[[(0, 1)]] * 3)
    residuals = []
    for chart in itertools.product(range(2), repeat=3):
        want = [r.residual * 2.0 ** k for r in regular_value_probe(game, fam, chart, seed=3).roots]
        got = [r.residual for r in regular_value_probe(scaled, fam, chart, seed=3).roots]
        assert got == want, chart
        residuals += got
    assert any(residuals)


def test_probe_residuals_beyond_the_float_range_read_inf():
    # a rational game scaled by 2**1100 has the unscaled game's roots and
    # ranks; their residuals in its own payoffs leave the float range and
    # read inf, without a NumPy overflow warning
    game = make_game((2, 2, 2), random_game((2, 2, 2), seed=40005).utilities, mode=RATIONAL)
    huge = make_game((2, 2, 2), [u * 2**1100 for u in game.utilities], mode=RATIONAL)
    fam = good_family(game, R=[[(0, 1)]] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, scaled = [regular_value_probe(g, fam, (0, 0, 0)) for g in (game, huge)]
    assert base.roots and all(0.0 < r.residual < 1e-10 for r in base.roots)
    assert [r.residual for r in scaled.roots] == [math.inf] * len(base.roots)
    assert [(r.rank, [c.tobytes() for c in r.point.coords]) for r in scaled.roots] == [
        (r.rank, [c.tobytes() for c in r.point.coords]) for r in base.roots]


def _retired_jacobian(game, members, point):
    """The Jacobian as transversal_at built it one member at a time: the
    gradient of each defining map per block it reads (MultilinearForm.grad),
    a payoff-difference row scaled by 2**-e_i into its player's unit."""
    bounds = np.cumsum([0] + [c - 1 for c in game.strategy_counts])
    rows = []
    for h in members:
        form = defining_map(game, h, point.chart)
        inputs = [point.coords[b] for b in form.blocks]
        row = np.zeros(bounds[-1])
        for b in form.blocks:
            row[bounds[b]: bounds[b + 1]] = form.grad(inputs, b)
        rows.append(np.ldexp(row, -game.payoff_exponents[h.player]) if isinstance(h, PayoffDiff)
                    else row)
    return np.array(rows).reshape(len(rows), bounds[-1])


def test_transversal_jacobian_is_coordinate_rows_over_the_face_jacobian():
    # transversal_at's rows are the active coordinate rows and the face
    # system's Jacobian rows of the family with T emptied (full_gradient);
    # they are the gradients of the members' defining maps, per block, in
    # each player's payoff unit, here 2**-30, 1 and 2**40 in turn
    T = [(2,), (INF,), ()]
    R = [((0, 1), (1, 2)), ((0, 1),), ((0, 2),)]
    rng = np.random.default_rng(0)
    points = 0
    for seed in range(20):
        base = random_game((3, 2, 3), seed=seed)
        game = make_game(base.strategy_counts, [
            u * 2.0 ** k for u, k in zip(base.utilities, np.roll([-30, 0, 40], seed))])
        family = good_family(game, T, R)
        for chart in _open_charts(game.strategy_counts, family):
            coords = tuple(rng.normal(size=c - 1) for c in game.strategy_counts)
            point = ChartPoint(chart, coords)
            got = transversal_at(game, family, point, active=family.hypersurfaces()).jacobian
            want = _retired_jacobian(game, family.hypersurfaces(), point)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (seed, chart)
            points += 1
    assert points == 120


def test_transversal_rows_follow_the_active_order():
    # row r of the Jacobian belongs to report.active[r], in whatever order
    # the members come: a shuffled active list permutes the rows alike
    T = [(2,), (INF,), ()]
    R = [((0, 1), (1, 2)), ((0, 1),), ((0, 2),)]
    rng = np.random.default_rng(1)
    for seed in range(5):
        game = random_game((3, 2, 3), seed=seed)
        family = good_family(game, T, R)
        members = family.hypersurfaces()
        for chart in _open_charts(game.strategy_counts, family):
            point = ChartPoint(chart, tuple(rng.normal(size=c - 1) for c in game.strategy_counts))
            base = transversal_at(game, family, point, active=members)
            for _ in range(3):
                order = rng.permutation(len(members))
                shuffled = transversal_at(game, family, point, active=[members[r] for r in order])
                assert shuffled.active == tuple(members[r] for r in order)
                assert np.array_equal(shuffled.jacobian, base.jacobian[order]), (seed, chart)
                assert (shuffled.rank, shuffled.verdict) == (base.rank, base.verdict)


def _greedy_dedup(rows):
    """Reference: first fit, each row kept unless it is within DEDUP_TOL
    of a row kept before it."""
    kept = []
    for x in rows:
        if all(np.max(np.abs(x - r)) > DEDUP_TOL for r in kept):
            kept.append(x)
    return kept


def _per_start_newton(residual, jacobian, starts, accept=None):
    """Reference: damped least-squares Newton one start at a time, the
    loop _newton_roots runs on all starts together, with a Jacobian of
    its own at every iterate, plus a floor that stops a start whose step
    is at most 1e-14: _newton_roots has no floor, and such a start stalls
    there instead, with the same limit."""
    limits = []
    for x in starts:
        fval = residual(x)
        for _ in range(NEWTON_MAX_ITERS):
            if np.max(np.abs(fval)) <= RESIDUAL_TOL:
                break
            step = np.linalg.lstsq(jacobian(x), -fval, rcond=None)[0]
            if np.max(np.abs(step)) <= 1e-14:
                break
            norm0 = np.linalg.norm(fval)
            t = 1.0
            for _ in range(NEWTON_HALVINGS):
                xn = x + t * step
                fn = residual(xn)
                if np.linalg.norm(fn) <= (1.0 - 0.25 * t) * norm0:
                    break
                t *= 0.5
            else:
                break
            x, fval = xn, fn
        if np.max(np.abs(fval)) <= RESIDUAL_TOL and (accept is None or accept(x[None])[0]):
            limits.append(x)
    return _greedy_dedup(limits)


# face maps whose weight maps (forms._basis_matrix's M times them) are the
# identity (1, z_b) -> (1, z_b): M's inverse
IDENTITY_WEIGHTS = np.array([[1.0, 1.0], [0.0, 1.0]])


def _square_test_game():
    """A 2x2x2 game whose pair-(0, 1) payoff differences, with the weight
    maps (1, z_b) -> (1, z_b) (IDENTITY_WEIGHTS), are the equations of the
    test below: u_0[0] = I, u_1[:, 0, :] = diag(-1, 1), u_2[:, :, 0] = I,
    every other entry 0; each player's payoff unit is 1."""
    u = np.zeros((3, 2, 2, 2))
    u[0][0] = np.eye(2)
    u[1][:, 0, :] = np.diag([-1.0, 1.0])
    u[2][:, :, 0] = np.eye(2)
    game = make_game((2, 2, 2), list(u))
    assert game.payoff_exponents == (0, 0, 0)
    return game


def _unequal_blocks_case():
    """A 2x3x2x2 game's support system with blocks of sizes d = 1, 2, 1
    and 0: the first three players mix on every strategy, the fourth
    plays its first (canonical family, chart (0, 0, 0, 0)): its game,
    pairs and face maps, and the Newton starts of support sizes
    (2, 3, 2). It has two real roots, one with a negative third
    coordinate."""
    game = random_game((2, 3, 2, 2), seed=7)
    family = canonical_equilibrium_family(
        game, SupportProfile(((0, 1), (0, 1, 2), (0, 1), (0,))))
    maps = genericity._face_plan(game.strategy_counts, family, (0, 0, 0, 0)).maps
    assert [a.shape[1] - 1 for a in maps] == [1, 2, 1, 0]
    return game, family.R, maps, _newton_starts((2, 3, 2), 0)


@pytest.mark.parametrize("square", [True, False, "unequal_blocks"])
@pytest.mark.parametrize("accept", [None, lambda x: x[:, 2] < 0])
def test_newton_roots_matches_per_start_reference(square, accept):
    # square True / False: three players with one free coordinate each and
    # equations 1 + y w = 0, x w - 1 = 0 and (square only) 1 + x y = 0;
    # the square system has the isolated roots A = (-1, 1, -1) and B = (1,
    # -1, 1), the other one a curve of roots reached by minimum-norm steps;
    # the comments on the starts say what they do on the square system;
    # the reference's step floor gives the answers of the stall rule
    # alone. "unequal_blocks": a random game's square system on blocks of
    # sizes 1, 2, 1 and 0. The reference's residual and Jacobian are the
    # per-player contractions (_contract_face_system), not the loop's
    # system.
    if square == "unequal_blocks":
        game, pairs, maps, starts = _unequal_blocks_case()
    else:
        game, maps = _square_test_game(), [IDENTITY_WEIGHTS] * 3
        pairs = [[(0, 1)], [(0, 1)], [(0, 1)] if square else []]
        starts = [
            np.array([-0.1, 0.03, 0.04]),  # to A after several damped steps
            np.array([0.0, 0.0, 0.0]),  # zero Jacobian: zero step, stalls
            np.array([1.4e-5, -7e-6, 4e-6]),  # square: no halving passes
            np.array([1.0, -1.0, 1.0]),  # B itself: no step
            np.array([-0.7, 1.3, -1.2]),  # to A again, undamped
            np.array([3.0, 0.1, -2.0]),  # damped steps
        ]
    plan = _plan(maps, pairs, (0,) * len(maps))
    system = _face_system(game, plan)
    expected = _per_start_newton(*_contract_face_system(game, pairs, plan.weights), starts,
                                 accept)
    got = _newton_roots(system, starts, accept)
    assert expected
    assert len(got) == len(expected)
    for r, s in zip(got, expected):
        np.testing.assert_allclose(r, s, rtol=0, atol=1e-12)


def _square_test_system():
    # the square system of the test above, and its contraction reference
    game, pairs = _square_test_game(), [[(0, 1)]] * 3
    plan = _plan([IDENTITY_WEIGHTS] * 3, pairs, (0, 0, 0))
    return _face_system(game, plan), _contract_face_system(game, pairs, plan.weights)


def test_newton_roots_all_starts_on_step_floor():
    # the Jacobian vanishes at the origin, so every step is zero: every
    # start stalls in the first step, as no trial length lowers the
    # residual, and the reference stops each on its step floor
    system, (residual, jacobian) = _square_test_system()
    starts = [np.zeros(3)] * 3
    assert _per_start_newton(residual, jacobian, starts) == []
    assert _newton_roots(system, starts).shape == (0, 3)
    assert _newton_roots(system, starts, lambda x: x[:, 0] < 1).shape == (0, 3)


def _counted_steps(monkeypatch):
    """A counter of Newton steps: _newton_step calls, one per step."""
    steps = [0]

    def newton_step(jac, f):
        steps[0] += 1
        return step(jac, f)

    step = genericity._newton_step
    monkeypatch.setattr(genericity, "_newton_step", newton_step)
    return steps


def test_newton_step_makes_one_residual_call(monkeypatch):
    # every halving of every start is tried in the one system call of its
    # step, which also gives the Jacobians; one more call evaluates the
    # starts
    steps, calls = _counted_steps(monkeypatch), [0]

    def newton_roots(system, starts, accept=None):
        def counted(z):
            calls[0] += 1
            return system(z)
        return _newton_roots(counted, starts, accept)

    monkeypatch.setattr(equilibrium, "_newton_roots", newton_roots)
    solve_support(random_game((2, 2, 2), seed=1), SupportProfile(((0, 1),) * 3))
    assert steps[0] > 1
    assert calls[0] == steps[0] + 1


def _first_passing_halving(x, residual, jacobian):
    # the r of the first step length 2^-r the line search accepts at x
    fval = residual(x)
    step = np.linalg.lstsq(jacobian(x), -fval, rcond=None)[0]
    for r in range(60):
        t = 0.5 ** r
        if np.linalg.norm(residual(x + t * step)) <= (1.0 - 0.25 * t) * np.linalg.norm(fval):
            return r
    return None


def test_newton_roots_drops_a_start_that_needs_a_shorter_step():
    # arctan(x) = 0: far out the Newton step overshoots, and the further
    # out, the shorter the first step length that lowers the residual. A
    # face system in one coordinate is affine, so its full steps always
    # pass; this scalar equation exercises the stall rule instead.
    def residual(x):
        return np.arctan(x)

    def jacobian(x):
        return (1.0 / (1.0 + x * x))[..., None]

    def system(x):
        return residual(x), jacobian(x)

    last = NEWTON_HALVINGS - 1
    near, far = np.array([200.0]), np.array([400.0])
    assert _first_passing_halving(near, residual, jacobian) == last
    assert _first_passing_halving(far, residual, jacobian) == last + 1
    roots = _newton_roots(system, [near, far])
    assert len(roots) == 1 and abs(roots[0][0]) <= RESIDUAL_TOL
    np.testing.assert_array_equal(_per_start_newton(residual, jacobian, [near, far]), roots)
    assert _newton_roots(system, [far]).shape == (0, 1)


def test_fixture_games_bound_newton_steps(monkeypatch):
    # stalled starts stop early instead of running to the step limit, and
    # only supports on which all three players mix take Newton: Newton
    # steps (_newton_step calls) over the 2x2x2 games of the acceptance
    # fixture's first 20 seeds (1,383 with 25 halvings, 726 with every
    # support on Newton, 366 with the full support only)
    steps = _counted_steps(monkeypatch)
    for seed in range(40_000, 40_020):
        enumerate_nash(random_game((2, 2, 2), seed=seed), seed=seed)
    assert steps[0] <= 400


def _per_start_newton_starts(sizes, seed):
    """Reference: the Newton starts one at a time, each random start one
    rng.dirichlet call per player, each simplex point without its first
    weight."""
    centroid = np.concatenate([np.full(s - 1, 1.0 / s) for s in sizes])
    offsets = np.cumsum([0] + [s - 1 for s in sizes])
    out = [centroid]
    for choice in itertools.product(*(range(s) for s in sizes)):
        x = centroid.copy() * 0.1
        for o, c in zip(offsets, choice):
            if c > 0:
                x[o + c - 1] += 0.9
        out.append(x)
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_STARTS):
        out.append(np.concatenate([rng.dirichlet(np.ones(s))[1:] for s in sizes]))
    return np.array(out)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 2, 2), (3, 2), (2, 3, 2), (3, 3, 3)])
def test_newton_starts_match_per_start_dirichlet(sizes):
    for seed in range(50):
        got = _newton_starts(sizes, seed)
        expected = _per_start_newton_starts(sizes, seed)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), seed


def _pinv_step(jac, f):
    # the minimum-norm least-squares steps, with np.linalg.lstsq's cutoff
    rcond = np.finfo(float).eps * max(jac.shape[-2:])
    return (np.linalg.pinv(jac, rcond=rcond) @ -f[..., None])[..., 0]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_newton_step_is_the_pinv_step_on_nonsingular_square_stacks(n):
    rng = np.random.default_rng(n)
    # singular values in [1, 4] or so: the LU and pinv steps agree to
    # rounding
    jac = 2.5 * np.eye(n) + rng.uniform(-1.0, 1.0, (50, n, n)) / n
    f = rng.normal(0.0, 1.0, (50, n))
    got, want = _newton_step(jac, f), _pinv_step(jac, f)
    assert got.shape == want.shape == (50, n)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1))


@pytest.mark.parametrize("singular", [np.zeros((3, 3)), [[1, 2, 3], [2, 4, 6], [1, 1, 1]]])
def test_newton_step_takes_pinv_for_a_stack_with_a_singular_member(singular):
    rng = np.random.default_rng(1)
    jac = rng.normal(0.0, 1.0, (10, 3, 3))
    jac[4] = singular
    f = rng.normal(0.0, 1.0, (10, 3))
    np.testing.assert_array_equal(_newton_step(jac, f), _pinv_step(jac, f))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (0, 2), (2, 0)])
def test_newton_step_takes_pinv_for_a_stack_that_is_not_square(shape):
    rng = np.random.default_rng(2)
    jac = rng.normal(0.0, 1.0, (7,) + shape)
    f = rng.normal(0.0, 1.0, (7, shape[0]))
    np.testing.assert_array_equal(_newton_step(jac, f), _pinv_step(jac, f))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=12))
def test_dedup_matches_greedy_first_fit(cells):
    # grid points 0.6 DEDUP_TOL apart: neighbours are one root, points two
    # cells apart are not, so chains a ~ b ~ c with a !~ c are common
    rows = np.array(cells, dtype=float).reshape(len(cells), 3) * (0.6 * DEDUP_TOL)
    got, want = _dedup(rows), _greedy_dedup(rows)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_dedup_keeps_the_far_end_of_a_chain():
    rows = np.array([[0.0], [0.6], [1.2], [0.5], [1.8]]) * DEDUP_TOL
    np.testing.assert_array_equal(_dedup(rows), rows[[0, 2]])
    assert _dedup(np.zeros((0, 2))).shape == (0, 2)


def test_batched_ranks_are_the_per_matrix_ranks():
    # reference: numpy's matrix_rank at the cutoff RANK_TOL * max(1, sigma_max);
    # one matrix gives what its member of a stack gives
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (2, 2), (3, 3), (5, 5), (2, 4), (4, 2)]:
        stack = rng.normal(0.0, 1.0, (50,) + shape)
        stack[::3, -1] = stack[::3, 0]  # rank-deficient members
        stack[1] *= 1e9  # a member whose cutoff scales with it
        stack[2] *= 1e-9
        ranks, smins, full = _svd_ranks(stack)
        for jac, rank, smin, ok in zip(stack, ranks, smins, full):
            sv = np.linalg.svd(jac, compute_uv=False)
            tol = RANK_TOL * max(1.0, sv[0])
            assert rank == np.linalg.matrix_rank(jac, tol=tol), shape
            assert ok == (rank == shape[0])
            assert [x.item() for x in _svd_ranks(jac)] == [rank, smin, ok]
    for empty, full in [((3, 2, 0), False), ((3, 0, 2), True)]:
        ranks, smins, verdicts = _svd_ranks(np.zeros(empty))
        assert ranks.tolist() == [0, 0, 0] and smins.tolist() == [math.inf] * 3
        assert verdicts.tolist() == [full] * 3
    assert [x.tolist() for x in _svd_ranks(np.zeros((0, 2, 2)))] == [[], [], []]


def _contract_face_system(game, pairs, maps):
    """Reference: _face_system's residual and Jacobian as one tensor per
    player with equations, the other players' maps composed one axis at a
    time, evaluated by forms.contract."""
    m = len(maps)
    dims = [a.shape[1] - 1 for a in maps]
    ends = np.cumsum(dims)
    system = []
    for i, (u, own) in enumerate(zip(game.utilities, pairs)):
        if not own:
            continue
        eye = np.eye(game.strategy_counts[i], dtype=int)
        cols = eye[:, [j for j, _ in own]] - eye[:, [k for _, k in own]]
        t = np.ldexp(np.asarray(_contract_axis(u, cols, i), dtype=float),
                     -game.payoff_exponents[i])
        for b in range(m):
            if b != i:
                t = _contract_axis(t, maps[b], b)
        system.append((i, t))
    eq_bounds = np.cumsum([0] + [t.shape[i] for i, t in system])

    def vectors(z):
        one = np.ones(z.shape[:-1] + (1,))
        return [np.concatenate((one, z[..., e - d: e]), axis=-1) for d, e in zip(dims, ends)]

    def residual(z):
        v = vectors(z)
        out = np.empty(z.shape[:-1] + (eq_bounds[-1],))
        for (i, t), lo, hi in zip(system, eq_bounds, eq_bounds[1:]):
            out[..., lo:hi] = contract(t, [None if b == i else v[b] for b in range(m)])
        return out

    def jacobian(z):
        v = vectors(z)
        out = np.zeros(z.shape[:-1] + (eq_bounds[-1], z.shape[-1]))
        for (i, t), lo, hi in zip(system, eq_bounds, eq_bounds[1:]):
            for q in range(m):
                if q == i or not dims[q]:
                    continue
                c = contract(t, [None if b in (i, q) else v[b] for b in range(m)])
                c = np.swapaxes(c, -1, -2) if q < i else c
                out[..., lo:hi, ends[q] - dims[q]: ends[q]] = c[..., 1:]
        return out

    return residual, jacobian


def _random_family(game, rng):
    # per player a random set of labels and a random star of pairs (a
    # forest), each possibly empty
    T, R = [], []
    for c in game.strategy_counts:
        labels = [*range(c), INF]
        T.append([t for t in labels if rng.random() < 0.3])
        R.append([(0, j) for j in range(1, c) if rng.random() < 0.5])
    return good_family(game, T, R)


def test_face_system_matches_the_contraction_reference():
    # the coefficient-matrix residual and Jacobian against the per-player
    # contractions, on random games, families and charts, at one point,
    # a stack of points and an empty stack; every (family, chart) on a
    # game that builds its plan, then on a second game of the same shape
    # that reads that plan, kept; the reference's weight maps are built
    # here, apart from the plans
    genericity._face_plan.cache_clear()
    rng = np.random.default_rng(11)
    seen, warm = set(), 0
    for shape in [(3,), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
        for seed in range(4):
            games = [random_game(shape, seed=seed), random_game(shape, seed=seed + 100)]
            for _ in range(6):
                family = _random_family(games[0], rng)
                for chart in _open_charts(shape, family):
                    maps = genericity._face_maps(shape, family, chart)
                    for game in games:
                        plan = genericity._face_plan(shape, family, chart)
                        if maps is None:
                            assert plan is None, (shape, family, chart)
                            continue
                        weights = [_basis_matrix(len(a)) @ a for a in maps]
                        for a, b in zip((plan.maps, plan.weights), (maps, weights)):
                            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
                        system = genericity._face_system(game, plan)
                        n = sum(a.shape[1] - 1 for a in maps)
                        want = _contract_face_system(game, family.R, weights)
                        for z in [rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, (5, n)),
                                  np.zeros((0, n))]:
                            for a, w in zip(system(z), want):
                                b = w(z)
                                assert a.shape == b.shape, (shape, family, chart)
                                assert np.abs(a - b).max(initial=0.0) <= (
                                    1e-13 * np.abs(b).max(initial=0.0)), (shape, family, chart)
                    if maps is None:
                        continue
                    warm += 1
                    dims = [a.shape[1] - 1 for a in maps]
                    seen.add(f"m={len(shape)}")
                    if family.num_pairs == 0:
                        seen.add("no equations")
                    elif not all(family.R):
                        seen.add("a player without pairs")
                    if 0 in dims:
                        seen.add("a zero-dimensional block")
    assert {"m=1", "m=4", "no equations", "a player without pairs",
            "a zero-dimensional block"} <= seen
    assert genericity._face_plan.cache_info().hits >= warm


def _probe_bits(report):
    """A probe report as a tree of exact values: every float as its bits."""
    return (report.chart, report.dimension, report.num_equations, report.empty_face,
            report.verdict, [(r.point.chart, [c.tobytes() for c in r.point.coords],
                              np.float64(r.residual).tobytes(), r.rank, r.regular)
                             for r in report.roots])


def test_face_plans_are_kept_read_only_per_chart_and_errors_are_not_kept():
    # one plan per (strategy counts, family, chart), shared by every later
    # call: its arrays are read-only; a probe reads the same report, bit
    # for bit, from a plan it builds and from one kept, in every chart;
    # and a bad family or chart raises the same error on every call
    shape = (2, 3, 2)
    game = random_game(shape, seed=5)
    family = good_family(game, [[], [1], []], [[(0, 1)], [(0, 2)], [(0, 1)]])
    charts = _open_charts(shape, family)
    assert len(charts) == 8
    cold = []
    for chart in charts:
        genericity._face_plan.cache_clear()
        cold.append(_probe_bits(regular_value_probe(game, family, chart, seed=1)))
    for _ in range(2):  # the second pass reads every plan the first one kept
        warm = [_probe_bits(regular_value_probe(game, family, chart, seed=1))
                for chart in charts]
        assert warm == cold
    assert any(report[5] for report in cold)

    # the probe validates a chart (as ints) before the lookup: a list finds
    # the plan its tuple keeps
    plan = genericity._face_plan(shape, family, charts[-1])
    hits = genericity._face_plan.cache_info().hits
    regular_value_probe(game, family, list(charts[-1]), seed=1)
    assert genericity._face_plan.cache_info().hits == hits + 1
    arrays = [*plan.maps, *plan.weights, plan.gather, plan.place,
              *(a for player in plan.players for a in player[1:3])]
    assert len(arrays) == 3 + 3 + 2 + 2 * 3
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 1.0

    cycle = GoodFamily(((), (), ()), (((0, 1),), ((0, 1), (1, 2), (0, 2)), ((0, 1),)))
    bad_member = GoodFamily(((), (3,), ()), (((0, 1),), ((0, 1),), ((0, 1),)))
    for fam, chart, error in [
        (cycle, (0, 0, 0), "family is not good"),
        (bad_member, (0, 0, 0), "C:2:3: coordinate index 3 out of range"),
        (family, (0, 1, 0), "C:2:1 has no points in chart 0,1,0"),
        (family, (0, 3, 0), "player 2 chart index 3 out of range"),
        (family, (0, 0.5, 0), "player 2 chart index 0.5 is not an integer"),
    ]:
        raised = []
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(error)) as info:
                regular_value_probe(game, fam, chart)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


def test_a_single_root_probe_reads_its_root_as_a_row_of_any_stack():
    # the probes of the full-support family (pairs (0, k), no labels) of
    # 2x2x2, 2x3x2 and 3x3 games, in every chart, that find one root (126
    # of 290): its residual and rank are the ones read from the face
    # system's row of that root in stacks of 2, 5 and 7 points, though
    # NumPy's matmul sums one row in another order than a stack
    rng = np.random.default_rng(5)
    single = 0
    for shape in [(2, 2, 2), (2, 3, 2), (3, 3)]:
        for seed in range(40_000, 40_010):
            game = random_game(shape, seed=seed)
            family = good_family(game, R=[[(0, k) for k in range(1, c)] for c in shape])
            exponents = np.repeat(game.payoff_exponents, [len(p) for p in family.R])
            for chart in _open_charts(shape, family):
                report = regular_value_probe(game, family, chart, seed=seed)
                if len(report.roots) != 1:
                    continue
                [root] = report.roots
                # no labels: the face coordinates are the chart coordinates
                z = np.concatenate(root.point.coords)
                plan = genericity._face_plan(shape, family, chart)
                system = genericity._face_system(game, plan)
                for size in (2, 5, 7):
                    stack = rng.normal(0.0, 1.0, (size, z.size))
                    place = rng.integers(size)
                    stack[place] = z
                    f, jac = (a[place] for a in system(stack))
                    assert np.abs(np.ldexp(f, exponents)).max() == root.residual, (shape, seed)
                    assert genericity._svd_ranks(jac)[0] == root.rank, (shape, seed)
                single += 1
    assert single == 126


def _double_root_game():
    """x, y, w are the weights of strategy 0; the full-support slope
    differences y - w, x - w and (x - 1/2)(y - 1/2) meet only at
    (1/2, 1/2, 1/2), where the last one vanishes to second order."""
    u = [np.zeros((2, 2, 2)) for _ in range(3)]
    for a, b, c in itertools.product(range(2), repeat=3):
        x, y, w = a == 0, b == 0, c == 0
        u[0][1, b, c] = y - w
        u[1][a, 1, c] = x - w
        u[2][a, b, 1] = (x - 0.5) * (y - 0.5)
    return make_game((2, 2, 2), u)


@pytest.mark.xfail(strict=True, raises=SingularSystem,
                   reason="Newton reports an isolated double root as a continuum")
def test_isolated_double_root_is_not_a_continuum():
    # Newton converges linearly at the double root of _double_root_game,
    # and several starts stop at distinct points whose midpoints also
    # pass the residual test.
    found = solve_support(_double_root_game(), SupportProfile(((0, 1),) * 3))
    assert len(found) == 1
    for weights in found[0].weights:
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-6)


def _projective(point) -> np.ndarray:
    """A chart point's full tilde vectors, each scaled so that its entry of
    largest magnitude is 1: one key per point of the product of P^{c_i-1},
    whichever chart it was read in."""
    return np.concatenate([v / v[np.argmax(np.abs(v))]
                           for v in (np.asarray(w, dtype=float) for w in point.full_vectors())])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 26: regular_value_probe searches one chart "
                                       "and misses, without saying so, roots that lie in it")
def test_every_chart_finds_every_root_that_lies_in_it():
    # the largest-face family of random_game((2, 2, 2, 2), 40000): the 16
    # charts find 6, 6, 4, 5, 3, 5, 3, 5, 6, 5, 3, 4, 8, 5, 4 and 3 roots
    # (seed 0), 9 distinct over all of them, each in every chart
    g = random_game((2, 2, 2, 2), seed=40000)
    family = good_family(g, R=[[(0, 1)]] * 4)
    found = {chart: [_projective(r.point) for r in regular_value_probe(g, family, chart).roots]
             for chart in itertools.product(range(2), repeat=4)}
    union = []
    for key in itertools.chain(*found.values()):
        if not any(np.abs(key - u).max() < DEDUP_TOL for u in union):
            union.append(key)
    assert len(union) == 9
    for chart, keys in found.items():
        inside = [u for u in union
                  if all(abs(u[2 * i + l]) > WEIGHT_TOL for i, l in enumerate(chart))]
        missed = [u for u in inside if not any(np.abs(k - u).max() < DEDUP_TOL for k in keys)]
        assert not missed, (chart, len(keys), len(inside))


# 2x2x2 games with two full-support equilibria; no seed in the ranges
# below has two
TWO_ROOT_GAMES = [("uniform", 100_497), ("uniform", 100_600),
                  ("normal", 200_133), ("normal", 200_418)]


def test_newton_finds_every_full_support_root_of_a_2x2x2_game():
    # Newton's roots against the closed form of an independent oracle,
    # matched one to one: none missed, none extra
    corpus = ([("uniform", seed) for seed in range(100_000, 100_200)]
              + [("normal", seed) for seed in range(200_000, 200_100)] + TWO_ROOT_GAMES)
    full = SupportProfile(((0, 1),) * 3)
    sizes, skipped = [], 0
    for distribution, seed in corpus:
        game = random_game((2, 2, 2), seed=seed, distribution=distribution)
        want = oracle_full_support_2x2x2(game)
        if want is None:
            skipped += 1
            continue
        got = np.array([[w[1] for w in p.weights] for p in solve_support(game, full)])
        got = got.reshape(len(got), 3)
        matches = [np.flatnonzero(np.abs(got - root).max(axis=1, initial=0.0) <= 1e-7)
                   for root in want]
        assert all(len(m) == 1 for m in matches), (distribution, seed)
        assert sorted(int(m[0]) for m in matches) == list(range(len(got))), (distribution, seed)
        sizes.append(len(want))
    assert skipped == 0
    assert sizes.count(2) == len(TWO_ROOT_GAMES) and sizes.count(1) > 0
    assert oracle_full_support_2x2x2(_double_root_game()) is None


def test_full_gradient_placement(mp_float):
    # each row in its member's place and in its player's block of columns:
    # D:1:0:1 reads player 2's weight (-4 in matching pennies' payoff unit
    # 2, so -2), C:2:1 is player 2's weight_1 = 0 and C:1:0 player 1's
    # tilde_0 - tilde_1 = 0, which chart (1, 0) reads with the other slot
    point = chart_zero_point(profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))
    members = [Coordinate(1, 1), PayoffDiff(0, (0, 1)), Coordinate(0, 0)]
    np.testing.assert_array_equal(full_gradient(mp_float, members, point),
                                  [[0.0, 1.0], [0.0, -2.0], [-1.0, 0.0]])
    moved = transition(point, (1, 0))
    np.testing.assert_array_equal(full_gradient(mp_float, members, moved),
                                  [[0.0, 1.0], [0.0, -2.0], [1.0, 0.0]])
    assert full_gradient(mp_float, [], point).shape == (0, 2)


def test_rank_split_basic_cases():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 7))
    for b in range(6):
        assert rank_split_equivalence_test(A, b)
    # rank-deficient: duplicate a bottom row
    B = A.copy()
    B[4] = B[3]
    for b in range(5):
        assert rank_split_equivalence_test(B, b)
    # bottom row inside the top block's span
    C = A.copy()
    C[4] = 0.25 * C[0] - 1.5 * C[1]
    assert rank_split_equivalence_test(C, 2)


def test_rank_split_edge_shapes():
    assert rank_split_equivalence_test(np.zeros((3, 4)), 0)
    assert rank_split_equivalence_test(np.eye(4), 4)
    assert rank_split_equivalence_test(np.eye(4), 0)
    rng = np.random.default_rng(1)
    tall = rng.normal(size=(6, 3))
    for b in range(4):
        assert rank_split_equivalence_test(tall, b)


@pytest.mark.parametrize("b", [-1, 5])
def test_rank_split_block_size_is_a_row_count(b):
    with pytest.raises(ValueError, match=f"coordinate block size {b} outside 0..4"):
        rank_split_equivalence_test(np.eye(4), b)
