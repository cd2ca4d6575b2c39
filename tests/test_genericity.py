"""Good families, transversality verdicts, probes, and the rank-split
equivalence."""

import itertools
import math
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
    rank_split_equivalence_test,
    regular_value_probe,
    support_of,
    transversal_at,
    witness_cycle,
)
from nashatlas import equilibrium, genericity
from nashatlas.atlas import chart_excludes, defining_map
from nashatlas.equilibrium import SingularSystem, _newton_starts, solve_support
from nashatlas.forms import _basis_matrix
from nashatlas.game import SupportProfile
from nashatlas.genericity import (
    DEDUP_TOL,
    NEWTON_HALVINGS,
    NEWTON_MAX_ITERS,
    RANDOM_STARTS,
    RESIDUAL_TOL,
    STEP_TOL,
    GoodFamily,
    _face_system,
    _newton_roots,
    full_gradient,
)


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
                jacobian = genericity._family_system(game, family, chart)[1]
                total += int(np.sign(np.linalg.det(jacobian(z))))
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
    with pytest.raises(ValueError, match="^chart needs 2 indices$"):
        transversal_at(g, good_family(g, R=[[], [(0, 1)]]), point)


def test_transversal_at_checks_the_coordinate_count():
    # one coordinate vector for two players: a ValueError naming the
    # missing player, not an IndexError from reading its vector
    g = random_game((2, 2), seed=0)
    family = good_family(g, R=[[(0, 1)]] * 2)
    point = ChartPoint((0, 0), (np.array([0.5]),))
    with pytest.raises(ValueError, match="^one coordinate vector per player required: "
                                         "player 2 has none$"):
        transversal_at(g, family, point)


def test_transversal_at_checks_the_coordinate_lengths():
    # a length-2 vector for a two-strategy player: a ValueError naming the
    # 1-based player, as chart_point raises, not a 0-based block from forms
    g = random_game((2, 2), seed=0)
    family = good_family(g, R=[[(0, 1)]] * 2)
    point = ChartPoint((0, 0), (np.array([0.5, 0.5]), np.array([0.5])))
    message = "^player 1 takes 1 chart coordinates$"
    with pytest.raises(ValueError, match=message):
        transversal_at(g, family, point)
    with pytest.raises(ValueError, match=message):
        chart_point(g, (0, 0), [[0.5, 0.5], [0.5]])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_malformed_family_is_a_value_error(data):
    # a wrong entry count, an out-of-range label or pair, a reversed pair,
    # or a label or pair entry that is not an integer (never truncated):
    # good_family, the probe and transversal_at each raise a ValueError
    # that names the defect, never an IndexError or a numpy error
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
    family = GoodFamily(tuple(map(tuple, T)), tuple(map(tuple, R)))
    point = chart_zero_point(profile_from_weights([[1 / c] * c for c in shape]))
    message = ("family needs one T and one R entry per player|out of range|must satisfy|>= 0"
               "|is not an integer")
    with pytest.raises(ValueError, match=message):
        good_family(g, T, R)
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
    with pytest.raises(ValueError, match="chart needs 3 indices"):
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
    # _family_system builds the probe's equations and the equilibrium
    # route's. At random points of the face, in every chart that does not
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
        residual, _, vectors, tilde_maps, weight_maps = genericity._family_system(
            game, family, chart)
        diffs = [h for h in family.hypersurfaces() if isinstance(h, PayoffDiff)]
        exponents = np.array([game.payoff_exponents[h.player] for h in diffs], dtype=int)
        forms = [defining_map(game, h, chart) for h in diffs]
        n = sum(a.shape[1] - 1 for a in tilde_maps)
        for _ in range(5):
            if supports is None:
                z = rng.normal(0.0, 1.0, n)
            else:
                weights = [np.zeros(c) for c in game.strategy_counts]
                for w, s in zip(weights, supports):
                    w[list(s)] = rng.dirichlet(np.ones(len(s)))
                z = np.concatenate([w[list(s[1:])] for w, s in zip(weights, supports)])
                for w, a, v in zip(weights, weight_maps, vectors(z)):
                    np.testing.assert_allclose(a @ v, w, rtol=0, atol=1e-15)
                want = []
                for i, s in enumerate(supports):
                    c = payoff_slice_values(game, i, weights, relative=True)
                    want.extend(np.ldexp(c[s[0]] - c[list(s[1:])], -game.payoff_exponents[i]))
                np.testing.assert_allclose(residual(z), want, rtol=1e-12, atol=1e-14)
            point = ChartPoint(chart, tuple(
                np.delete(a @ v, l) for a, v, l in zip(tilde_maps, vectors(z), chart)))
            want = [f.eval([point.coords[b] for b in f.blocks]) for f in forms]
            np.testing.assert_allclose(np.ldexp(residual(z), exponents), want,
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
@pytest.mark.parametrize("powers", [(-1000, 30, -20), (1000, -20, 30)])
def test_probe_does_not_depend_on_payoff_scale(shape, T, R, powers):
    # each player's payoffs times its own power of two: the same roots,
    # ranks and verdicts in every chart
    game = random_game(shape, seed=3)
    scaled = make_game(shape, [u * 2.0 ** k for u, k in zip(game.utilities, powers)])
    fam = good_family(game, T, R)

    def answer(g, chart):
        report = regular_value_probe(g, fam, chart, seed=3)
        return report.verdict, [
            (r.rank, [c.tobytes() for c in r.point.coords]) for r in report.roots]

    for chart in _open_charts(shape, fam):
        assert answer(scaled, chart) == answer(game, chart), chart


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


def test_transversal_jacobian_is_coordinate_rows_over_the_face_jacobian():
    # transversal_at builds its rows one defining map at a time. They are
    # the active coordinate rows (row t of forms._basis_matrix, or e_0 for
    # INF, chart slot dropped) stacked on the Jacobian of the face system
    # of the family with T emptied, at z = the chart coordinates
    T = [(2,), (INF,), ()]
    R = [((0, 1), (1, 2)), ((0, 1),), ((0, 2),)]
    rng = np.random.default_rng(0)
    points = 0
    for seed in range(20):
        game = random_game((3, 2, 3), seed=seed)
        family = good_family(game, T, R)
        bounds = np.cumsum([0] + [c - 1 for c in game.strategy_counts])
        for chart in _open_charts(game.strategy_counts, family):
            coords = tuple(rng.normal(size=c - 1) for c in game.strategy_counts)
            got = transversal_at(game, family, ChartPoint(chart, coords),
                                 active=family.hypersurfaces()).jacobian
            rows = []
            for h in family.hypersurfaces():
                if isinstance(h, Coordinate):
                    i = h.player
                    c = game.strategy_counts[i]
                    vec = np.eye(c)[0] if h.index == INF else _basis_matrix(c, False)[h.index]
                    row = np.zeros(bounds[-1])
                    row[bounds[i]: bounds[i + 1]] = np.delete(vec, chart[i])
                    rows.append(row)
            jacobian = genericity._family_system(game, good_family(game, R=R), chart)[1]
            want = np.vstack([rows, jacobian(np.concatenate(coords))])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (seed, chart)
            points += 1
    assert points == 120


def _per_start_newton(residual, jacobian, starts, accept=None):
    """Reference: damped least-squares Newton one start at a time, the
    loop _newton_roots runs on all starts together."""
    roots = []
    for x in starts:
        fval = residual(x)
        for _ in range(NEWTON_MAX_ITERS):
            if np.max(np.abs(fval)) <= RESIDUAL_TOL:
                break
            step = np.linalg.lstsq(jacobian(x), -fval, rcond=None)[0]
            if np.max(np.abs(step)) <= STEP_TOL:
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
        if np.max(np.abs(fval)) > RESIDUAL_TOL or (accept is not None and not accept(x[None])[0]):
            continue
        if all(np.max(np.abs(x - r)) > DEDUP_TOL for r in roots):
            roots.append(x)
    return roots


def _square_test_game():
    """A 2x2x2 game whose pair-(0, 1) payoff differences, with the maps
    (1, z_b) -> (1, z_b), are the equations of the test below: u_0[0] = I,
    u_1[:, 0, :] = diag(-1, 1), u_2[:, :, 0] = I, every other entry 0;
    each player's payoff unit is 1."""
    u = np.zeros((3, 2, 2, 2))
    u[0][0] = np.eye(2)
    u[1][:, 0, :] = np.diag([-1.0, 1.0])
    u[2][:, :, 0] = np.eye(2)
    game = make_game((2, 2, 2), list(u))
    assert game.payoff_exponents == (0, 0, 0)
    return game


@pytest.mark.parametrize("square", [True, False])
@pytest.mark.parametrize("accept", [None, lambda x: x[:, 2] < 0])
def test_newton_roots_matches_per_start_reference(square, accept):
    # three players with one free coordinate each and equations
    # 1 + y w = 0, x w - 1 = 0 and (square only) 1 + x y = 0; the square
    # system has the isolated roots A = (-1, 1, -1) and B = (1, -1, 1),
    # the other one a curve of roots reached by minimum-norm steps; the
    # comments on the starts say what they do on the square system
    pairs = [[(0, 1)], [(0, 1)], [(0, 1)] if square else []]
    residual, jacobian, _ = _face_system(_square_test_game(), pairs, [np.eye(2)] * 3)
    starts = [
        np.array([-0.1, 0.03, 0.04]),  # to A after several damped steps
        np.array([0.0, 0.0, 0.0]),  # zero Jacobian: step below the floor
        np.array([1.4e-5, -7e-6, 4e-6]),  # square: no halving passes
        np.array([1.0, -1.0, 1.0]),  # B itself: no step
        np.array([-0.7, 1.3, -1.2]),  # to A again, undamped
        np.array([3.0, 0.1, -2.0]),  # damped steps
    ]
    expected = _per_start_newton(residual, jacobian, starts, accept)
    got = _newton_roots(residual, jacobian, starts, accept)
    assert expected
    assert len(got) == len(expected)
    for r, s in zip(got, expected):
        np.testing.assert_allclose(r, s, rtol=0, atol=1e-12)


def _square_test_system():
    # the square system of the test above
    return _face_system(_square_test_game(), [[(0, 1)]] * 3, [np.eye(2)] * 3)


def test_newton_roots_all_starts_on_step_floor():
    # the Jacobian vanishes at the origin, so every start stops on the
    # step floor in the first step and no trial point is left to evaluate
    residual, jacobian, _ = _square_test_system()
    starts = [np.zeros(3)] * 3
    assert _per_start_newton(residual, jacobian, starts) == []
    assert _newton_roots(residual, jacobian, starts) == []
    assert _newton_roots(residual, jacobian, starts, lambda x: x[:, 0] < 1) == []


def test_newton_step_makes_one_residual_call(monkeypatch):
    # every halving of every start is tried in the one residual call of
    # its step, besides the call on the starts
    calls = {"residual": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(z):
            calls[name] += 1
            return fn(z)
        return wrapper

    def newton_roots(residual, jacobian, starts, accept=None):
        return _newton_roots(
            counted("residual", residual), counted("jacobian", jacobian), starts, accept
        )

    monkeypatch.setattr(equilibrium, "_newton_roots", newton_roots)
    solve_support(random_game((2, 2, 2), seed=1), SupportProfile(((0, 1),) * 3))
    assert calls["jacobian"] > 1
    assert calls["residual"] <= calls["jacobian"] + 1


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

    last = NEWTON_HALVINGS - 1
    near, far = np.array([200.0]), np.array([400.0])
    assert _first_passing_halving(near, residual, jacobian) == last
    assert _first_passing_halving(far, residual, jacobian) == last + 1
    roots = _newton_roots(residual, jacobian, [near, far])
    assert len(roots) == 1 and abs(roots[0][0]) <= RESIDUAL_TOL
    np.testing.assert_array_equal(_per_start_newton(residual, jacobian, [near, far]), roots)
    assert _newton_roots(residual, jacobian, [far]) == []


def test_fixture_games_bound_newton_steps(monkeypatch):
    # stalled starts stop early instead of running to the step limit, and
    # only supports on which all three players mix take Newton: one
    # jacobian call per Newton step, counted over the 2x2x2 games of the
    # acceptance fixture's first 20 seeds (1,383 calls with 25 halvings,
    # 726 with every support on Newton, 366 with the full support only)
    calls = [0]

    def newton_roots(residual, jacobian, starts, accept=None):
        def counted(z):
            calls[0] += 1
            return jacobian(z)
        return _newton_roots(residual, counted, starts, accept)

    monkeypatch.setattr(equilibrium, "_newton_roots", newton_roots)
    for seed in range(40_000, 40_020):
        enumerate_nash(random_game((2, 2, 2), seed=seed), seed=seed)
    assert calls[0] <= 400


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


@pytest.mark.xfail(strict=True, raises=SingularSystem,
                   reason="Newton reports an isolated double root as a continuum")
def test_isolated_double_root_is_not_a_continuum():
    # x, y, w are the weights of strategy 0; the full-support slope
    # differences y - w, x - w and (x - 1/2)(y - 1/2) meet only at
    # (1/2, 1/2, 1/2), where the last one vanishes to second order.
    # Newton converges linearly there, and several starts stop at
    # distinct points whose midpoints also pass the residual test.
    u = [np.zeros((2, 2, 2)) for _ in range(3)]
    for a, b, c in itertools.product(range(2), repeat=3):
        x, y, w = a == 0, b == 0, c == 0
        u[0][1, b, c] = y - w
        u[1][a, 1, c] = x - w
        u[2][a, b, 1] = (x - 0.5) * (y - 0.5)
    game = make_game((2, 2, 2), u)
    found = solve_support(game, SupportProfile(((0, 1),) * 3))
    assert len(found) == 1
    for weights in found[0].weights:
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-6)


def test_full_gradient_placement(mp_float):
    from nashatlas import defining_map

    form = defining_map(mp_float, PayoffDiff(0, (0, 1)), (0, 0))
    point = chart_zero_point(profile_from_weights([[0.5, 0.5], [0.5, 0.5]]))
    grad = full_gradient(mp_float, form, point)
    np.testing.assert_allclose(grad, [0.0, -4.0])


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
