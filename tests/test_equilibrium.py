"""Support enumeration, equilibrium solving, and degeneracy handling."""

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    RATIONAL,
    EquilibriumCertificate,
    SingularSystem,
    SupportProfile,
    best_reply_check,
    canonical_equilibrium_family,
    enumerate_nash,
    enumerate_supports,
    make_game,
    payoff_slice_values,
    profile_from_weights,
    random_game,
    solve_support,
    support_of,
)
from nashatlas import equilibrium, genericity
from nashatlas.game import CHECK_TOL, MixedProfile
from nashatlas.equilibrium import _newton_solve, support_label
from nashatlas import game as game_module
from nashatlas.exact import max_min_point, rref, solve_affine
from nashatlas.forms import contract

from conftest import fresh_python, oracle_enumerate_2p, oracle_equilibria_2p


def _weight_tuples(result):
    return sorted(
        tuple(tuple(w) for w in cert.point.weights) for cert in result.equilibria
    )


def _float_tuples(result):
    return sorted(
        tuple(float(x) for w in cert.point.weights for x in w)
        for cert in result.equilibria
    )


@pytest.mark.parametrize(
    "shape,count",
    [((2, 2), 9), ((2, 2, 2), 27), ((3, 2), 21), ((3, 3), 49)],
)
def test_enumerate_supports_counts(shape, count):
    g = make_game(shape, [np.zeros(shape) for _ in shape])
    supports = list(enumerate_supports(g))
    assert len(supports) == count
    assert len(set(s.supports for s in supports)) == count
    full = tuple(tuple(range(c)) for c in shape)
    assert any(s.supports == full for s in supports)
    # the profiles depend on the shape alone: another game of it (here in
    # the other mode) gets equal profiles in the same lexicographic order
    other = make_game(shape, [np.ones(shape, dtype=int)] * len(shape), mode=RATIONAL)
    assert list(enumerate_supports(other)) == supports
    assert [s.supports for s in supports] == sorted(s.supports for s in supports)
    assert all(type(j) is int for s in supports for supp in s.supports for j in supp)


def test_best_reply_check_center(mp_float):
    center = profile_from_weights([[0.5, 0.5], [0.5, 0.5]])
    report = best_reply_check(mp_float, center)
    assert report.all_ok
    assert all(report.ok)
    assert max(report.equality_residuals) == pytest.approx(0.0)
    assert all(m == float("inf") for m in report.inequality_margins)


def test_best_reply_check_rejects_non_equilibrium(mp_float):
    pure = profile_from_weights([[1.0, 0.0], [1.0, 0.0]])
    report = best_reply_check(mp_float, pure)
    assert not report.all_ok
    assert report.ok[0] and not report.ok[1]
    # player 1 is happy (margin 2), player 2 wants to deviate (margin -2)
    assert report.inequality_margins[0] == pytest.approx(2.0)
    assert report.inequality_margins[1] == pytest.approx(-2.0)


def test_best_reply_check_exact(bos_exact):
    mixed = profile_from_weights(
        [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
        mode=RATIONAL,
    )
    report = best_reply_check(bos_exact, mixed)
    assert report.all_ok
    assert all(r == 0 for r in report.equality_residuals)
    # the boundary flag at pure (0, 0), where player 1's margin is eps: on
    # at an exact 0, off at an exact 10^-10, on at a float margin below
    # CHECK_TOL (player 1's payoff unit is 1)
    for eps, mode, boundary in [(Fraction(0), RATIONAL, True),
                                (Fraction(1, 10**10), RATIONAL, False),
                                (1e-10, "float", True)]:
        game = make_game((2, 2), [[[eps, 1], [0, 0]], [[1, 0], [1, 0]]], mode=mode)
        report = best_reply_check(game, profile_from_weights([[1, 0], [1, 0]], mode))
        assert report.all_ok
        assert report.boundary == (boundary, False)


def test_solve_support_mismatched_sizes_empty(mp_float):
    assert solve_support(mp_float, SupportProfile(((0,), (0, 1)))) == []


def test_solve_support_full_support(mp_exact):
    sols = solve_support(mp_exact, SupportProfile(((0, 1), (0, 1))))
    assert len(sols) == 1
    assert sols[0].weights[0][0] == Fraction(1, 2)
    assert sols[0].weights[1][1] == Fraction(1, 2)


def test_solve_support_validates_indices(mp_float):
    with pytest.raises(ValueError):
        solve_support(mp_float, SupportProfile(((0, 2), (0,))))
    with pytest.raises(ValueError):
        solve_support(mp_float, SupportProfile(((0,),)))
    # negative indices would wrap around to other strategies
    with pytest.raises(ValueError):
        solve_support(mp_float, SupportProfile(((-1, 0), (0, 1))))
    with pytest.raises(ValueError):
        solve_support(random_game((2, 2, 2), seed=3),
                      SupportProfile(((-2, 0), (0, 1), (0, 1))))


def test_support_entries_are_integers():
    # an integral entry is the same support; a fractional one names itself
    g = random_game((3, 3), seed=0)
    assert SupportProfile(((0, 1.0), (0, np.int64(1)))).supports == ((0, 1), (0, 1))
    assert solve_support(g, SupportProfile(((0, 1.0), (0, 1)))) == \
        solve_support(g, SupportProfile(((0, 1), (0, 1)))) == []
    with pytest.raises(ValueError, match="^player 1 support entry 0.5 is not an integer$"):
        SupportProfile(((0, 0.5), (0, 1)))


def test_mp_unique_equilibrium(mp_exact):
    result = enumerate_nash(mp_exact)
    assert not result.degenerate
    half = Fraction(1, 2)
    assert _weight_tuples(result) == [((half, half), (half, half))]
    assert result.equilibria[0].exact


def test_bos_three_equilibria(bos_exact):
    result = enumerate_nash(bos_exact)
    assert result.count == 3
    pts = _weight_tuples(result)
    assert (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    ) in pts
    assert ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))) in pts
    assert ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))) in pts


def _sevenths_game():
    """Exact 3x3 game with denominators 3, 5 and 7 (payoff scale lcm 105)."""
    rng = np.random.default_rng(35)
    tables = [
        [[Fraction(int(rng.integers(-20, 21)), int(rng.choice([3, 5, 7])))
          for _ in range(3)] for _ in range(3)]
        for _ in range(2)
    ]
    return make_game((3, 3), tables, mode=RATIONAL)


def _wide_float_game():
    """Float 3x3 game with entries from 5e-324 to 1e300 (payoff scale
    2**1074). Row 2 is strictly dominated for player 1, so player 2's
    huge row-2 payoffs meet zero weight at every equilibrium and the
    float best-reply check stays exact enough to match the oracle."""
    a = [[0.5, -0.25, 0.75], [-0.5, 0.625, 0.125], [-1e300, -1e-300, -2.0]]
    b = [[0.25, -0.5, 5e-324], [-0.75, 0.5, 1e-300], [1e300, -1e300, 3.0]]
    return make_game((3, 3), [a, b])


def test_matches_oracle_on_fixtures(mp_exact, bos_exact):
    sevenths = _sevenths_game()
    assert [scale for _, scale in sevenths.integer_utilities] == [105, 105]
    for game in (mp_exact, bos_exact, sevenths):
        expected, degenerate = oracle_enumerate_2p(game)
        assert not degenerate
        result = enumerate_nash(game)
        assert _weight_tuples(result) == expected


def test_matches_oracle_on_random_games_exact():
    """Dual-route check at scale: the library's support solver against
    the independently coded elimination enumerator, exact arithmetic."""
    compared = 0
    for shape in [(2, 2), (2, 3), (3, 3)]:
        for k in range(12):
            base = random_game(shape, seed=900 + k)
            game = make_game(shape, base.utilities, mode=RATIONAL)
            result = enumerate_nash(game)
            if result.warnings:
                continue
            expected, degenerate = oracle_enumerate_2p(game)
            if degenerate:
                continue
            got = [
                tuple(x for w in c.point.weights for x in w)
                for c in result.equilibria
            ]
            want = [tuple(x for side in eq for x in side) for eq in expected]
            assert sorted(got) == sorted(want)
            compared += 1
    assert compared >= 30


def test_matches_oracle_on_random_float_games():
    """Float games round their exact solutions to float64; the oracle
    keeps full precision, so compare with a tight tolerance."""
    games = [random_game(shape, seed=1300 + k)
             for shape in [(2, 2), (3, 3)] for k in range(8)]
    wide = _wide_float_game()
    assert wide.integer_utilities[1][1] == 2 ** 1074
    compared = []
    for game in games + [wide]:
        result = enumerate_nash(game)
        expected, degenerate = oracle_enumerate_2p(game)
        if degenerate or result.warnings:
            continue
        got = _float_tuples(result)
        want = sorted(
            tuple(float(x) for side in eq for x in side) for eq in expected
        )
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-12)
        compared.append(game)
    assert compared[-1] is wide


def _integer_games(seed, high, shapes, count):
    """count (A, B) integer games, the shapes in turn, A then B drawn as
    default_rng(seed).integers(-high, high + 1, shape)."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(-high, high + 1, shapes[k % len(shapes)]).tolist()
                  for _ in range(2)) for k in range(count)]


#: ROADMAP item 10's examples: (A, B) of two tied 3x3 games
ITEM_10_GAMES = [
    ([[1, -2, -2], [-3, -1, 3], [-1, -1, 1]], [[4, -1, 1], [-1, 1, 0], [1, 0, 2]]),
    ([[4, 1, 1], [-4, 1, -1], [3, -3, -3]], [[1, 2, 3], [0, -1, -2], [-1, 1, 0]]),
]
TIED_GAMES = _integer_games(7, 2, [(3, 3), (3, 4), (4, 4), (2, 4)], 100)


def _solve_rational(a, b):
    return enumerate_nash(make_game(np.shape(a), [a, b], mode=RATIONAL))


def test_generic_integer_games_match_the_vertex_oracle():
    games = _integer_games(3, 1000, [(3, 3), (4, 4), (3, 5)], 40)
    for k, (a, b) in enumerate(games):
        result = _solve_rational(a, b)
        want, continuum = oracle_equilibria_2p(a, b)
        assert (_weight_tuples(result), result.continuum) == (want, continuum), k


def test_float_games_match_the_vertex_oracle():
    # float payoffs are dyadic: the exact route eliminates big integers, and
    # its points are the oracle's, on the exact Fraction payoffs, rounded
    # once to float64
    rng = np.random.default_rng(29)
    for k, shape in enumerate([(4, 4)] * 8 + [(5, 5)] * 4):
        a, b = rng.uniform(-1.0, 1.0, (2, *shape)).tolist()
        result = enumerate_nash(make_game(shape, [a, b]))
        want, continuum = oracle_equilibria_2p(a, b)
        want = sorted(tuple(tuple(map(float, w)) for w in point) for point in want)
        assert (_weight_tuples(result), result.continuum) == (want, continuum), k
        assert not continuum and not result.warnings, k


def test_tied_games_match_the_vertex_oracle_where_it_is_finite():
    # where only the oracle sees a continuum (ROADMAP item 10) the library
    # still warns, and what it lists are extreme equilibria
    finite = 0
    for k, (a, b) in enumerate(TIED_GAMES):
        result = _solve_rational(a, b)
        want, continuum = oracle_equilibria_2p(a, b)
        if not continuum:
            assert (_weight_tuples(result), result.continuum) == (want, False), k
            finite += 1
        elif not result.continuum:
            assert result.warnings and set(_weight_tuples(result)) <= set(want), k
    assert finite  # 24 of the 100 games


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the exact route's continuum "
                   "verdict is wrong on tied games, in both directions")
def test_continuum_flags_are_the_vertex_oracles():
    for k, (a, b) in enumerate(ITEM_10_GAMES + TIED_GAMES):
        assert _solve_rational(a, b).continuum == oracle_equilibria_2p(a, b)[1], k


def _unscreened(game, support):
    """The exact route's candidates before its best-reply screen: every
    positive solution of the slope equalities, as Fraction profiles. A
    positive-dimensional solution set raises SingularSystem, as
    solve_support does."""
    point = equilibrium._integer_solution(game, support)
    return [] if point is None else [equilibrium._rational_profile(point)]


def test_newton_agrees_with_exact_route():
    # the exact route's unscreened candidates, non-equilibria included,
    # are Newton's roots; 3x3 and 2x4 give multi-column Jacobian blocks in
    # both axis orders
    cases = [((2, 3), seed) for seed in range(8)]
    cases += [((3, 3), seed) for seed in range(2)]
    cases += [((2, 4), seed) for seed in range(2)]
    runs = [(random_game(shape, seed=seed), seed, None) for shape, seed in cases]
    # a 3-player game whose first two payoffs ignore player 3: with player
    # 3 pure at k the Newton route solves the 2-player game, e_k appended
    pair = random_game((2, 3), seed=4)
    dummy = make_game((2, 3, 2), [
        np.repeat(pair.utilities[0][:, :, None], 2, axis=2),
        np.repeat(pair.utilities[1][:, :, None], 2, axis=2),
        np.random.default_rng(4).uniform(-1.0, 1.0, (2, 3, 2)),
    ])
    runs += [(pair, 4, k) for k in range(2)]
    for game, seed, k in runs:
        for support in enumerate_supports(game):
            if all(len(s) == 1 for s in support.supports):
                continue  # no equations: only the exact route takes pure supports
            try:
                exact = _unscreened(game, support)
            except SingularSystem:
                continue
            if k is None:
                newton = _newton_solve(game, support, seed=seed)
                tail = ()
            else:
                newton = _newton_solve(
                    dummy, SupportProfile(support.supports + ((k,),)), seed=seed
                )
                tail = tuple(np.eye(2)[k])
            a = sorted(
                tuple(float(x) for w in p.weights for x in w) + tail for p in exact
            )
            b = sorted(
                tuple(float(x) for w in p.weights for x in w) for p in newton
            )
            assert len(a) == len(b)
            for u, v in zip(a, b):
                np.testing.assert_allclose(u, v, atol=1e-8)


def _solved(solve):
    # (candidates, raised): a SingularSystem's candidates count too
    try:
        return solve(), False
    except SingularSystem as exc:
        return exc.candidates, True


def _points(profiles):
    return sorted(tuple(float(x) for w in p.weights for x in w) for p in profiles)


def test_linear_supports_agree_with_newton():
    # with at most two players mixing the slope equations are linear: the
    # exact route solves them, and before its best-reply screen
    # (_unscreened) Newton finds the same candidates and raises on the
    # same supports; a pure support's one candidate is its vertex
    solved = 0
    for shape, seeds in [((2, 2, 2), range(4)), ((2, 3, 2), range(2)), ((2, 2, 2, 2), [0])]:
        for seed in seeds:
            game = random_game(shape, seed=seed)
            for support in enumerate_supports(game):
                mixed = sum(len(s) > 1 for s in support.supports)
                if mixed > 2:
                    continue
                found, raised = _solved(lambda: _unscreened(game, support))
                assert all(p.exact for p in found)
                got = _points(found)
                if mixed == 0:
                    vertex = [float(s == supp[0]) for supp, c in
                              zip(support.supports, shape) for s in range(c)]
                    assert (got, raised) == ([tuple(vertex)], False)
                    continue
                newton, newton_raised = _solved(lambda: _newton_solve(game, support, seed))
                want = _points(newton)
                assert raised == newton_raised and len(got) == len(want), support
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a, b, atol=1e-8)
                solved += mixed == 2 and bool(got)
    assert solved >= 10


def _assert_screen_is_the_check(game, support):
    # solve_support returns exactly the unscreened candidates that pass
    # best_reply_check, with the same Fractions, and raises where they do
    try:
        candidates = _unscreened(game, support)
    except SingularSystem as exc:
        with pytest.raises(SingularSystem) as got:
            solve_support(game, support)
        assert got.value.reason == exc.reason
        witness = [None if w is None else [list(v) for v in w.weights]
                   for w in (got.value.witness, exc.witness)]
        assert witness[0] == witness[1], support
        return 0
    want = [[list(w) for w in p.weights] for p in candidates
            if best_reply_check(game, p).all_ok]
    got = [[list(w) for w in p.weights] for p in solve_support(game, support)]
    assert got == want, support
    assert all(type(x) is Fraction for p in got for w in p for x in w)
    return len(candidates) - len(want)


def test_exact_screen_returns_what_the_best_reply_check_passes():
    # every support of the oddness fixture's 2x2 and 3x3 games, the linear
    # supports of the tied 2x2x2 and 2x3x2 corpus in both modes, and those
    # of random 2x2x2 and 2x3x2 games
    games = [random_game(shape, seed) for shape in [(2, 2), (3, 3)]
             for seed in range(40_000, 40_200)]
    rng = np.random.default_rng(11)
    for shape in [(2, 2, 2)] * 50 + [(2, 3, 2)] * 10:
        payoffs = [rng.integers(-2, 3, shape) for _ in shape]
        games += [make_game(shape, payoffs, mode=mode) for mode in ("float", RATIONAL)]
    games += [random_game(shape, seed) for shape in [(2, 2, 2), (2, 3, 2)] for seed in range(10)]
    screened = 0
    for game in games:
        for support in enumerate_supports(game):
            if sum(len(s) > 1 for s in support.supports) <= 2:
                screened += _assert_screen_is_the_check(game, support)
    assert screened > 1000  # candidates the screen turned away


def test_screen_reads_the_held_player():
    # matching pennies between players 1 and 2 with player 3 at strategy
    # 0, where strategy 1 pays player 3 more: the support's one candidate
    # is a best reply for the two mixed players, and only the held player
    # gains by deviating, so the support holds no equilibrium
    pennies = np.array([[1, -1], [-1, 1]])
    u = [np.stack([pennies, pennies], axis=2), np.stack([-pennies, -pennies], axis=2),
         np.stack([np.zeros((2, 2), dtype=int), np.ones((2, 2), dtype=int)], axis=2)]
    for mode in ("float", RATIONAL):
        game = make_game((2, 2, 2), u, mode=mode)
        support = SupportProfile(((0, 1), (0, 1), (0,)))
        candidate, = _unscreened(game, support)
        assert [list(w) for w in candidate.weights] == [[Fraction(1, 2)] * 2] * 2 + [[1, 0]]
        assert best_reply_check(game, candidate).ok == (True, True, False)
        assert solve_support(game, support) == []


def test_linear_supports_of_a_rational_game_are_exact():
    game = make_game((2, 2, 2), random_game((2, 2, 2), seed=20).utilities, mode=RATIONAL)
    linear = [c for c in enumerate_nash(game).equilibria
              if sum(len(s) > 1 for s in c.support.supports) <= 2]
    assert len(linear) == 2
    for cert in linear:
        assert cert.exact is True
        assert all(type(x) is Fraction for w in cert.point.weights for x in w)
        report = best_reply_check(game, cert.point)
        assert report.all_ok and all(r == 0 for r in report.equality_residuals)
    # one mixed player: its slopes are constants against pure opponents;
    # tied (player 1 at (., 0, 0)) they give a face of its simplex, untied
    # (at (., 1, 0)) nothing
    u = [np.array(random_game((2, 2, 2), seed=5).utilities[k] * 8, dtype=int) for k in range(3)]
    u[0][1, 0, 0] = u[0][0, 0, 0]
    assert u[0][1, 1, 0] != u[0][0, 1, 0]
    tied = make_game((2, 2, 2), u, mode=RATIONAL)
    with pytest.raises(SingularSystem, match="positive-dimensional solution set") as exc:
        solve_support(tied, SupportProfile(((0, 1), (0,), (0,))))
    witness = exc.value.witness
    assert [list(w) for w in witness.weights] == [[Fraction(1, 2)] * 2, [1, 0], [1, 0]]
    assert solve_support(tied, SupportProfile(((0, 1), (1,), (0,)))) == []


def test_support_system_residual_is_the_slope_differences():
    # the Newton equations against an independent reference: each support
    # is solved on its canonical family's face in chart (0, ..., 0), whose
    # unknowns are the weights on supp[1:]; at a random point of the open
    # face, player i's residual is c[supp[0]] - c[t] for t in supp[1:], in
    # its payoff unit, c its offset-free slopes
    rng = np.random.default_rng(0)
    games = []
    for shape, powers in [((2, 2, 2), (0, -20, 7)), ((2, 3, 2), (3, 0, -9))]:
        for seed in range(2):
            base = random_game(shape, seed=seed)
            games.append(make_game(shape, [u * 2.0 ** k for u, k in zip(base.utilities, powers)]))
    for game in games:
        chart = (0,) * game.num_players
        for support in enumerate_supports(game):
            supports = support.supports
            family = canonical_equilibrium_family(game, support)
            plan = genericity._face_plan(game.strategy_counts, family, chart)
            system = genericity._face_system(game, plan)
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


def test_cyclic_three_player_frozen(cyclic_mp3):
    result = enumerate_nash(cyclic_mp3)
    assert not result.degenerate
    assert result.count == 3
    pts = _float_tuples(result)
    np.testing.assert_allclose(pts[0], [0, 1, 0, 1, 0, 1], atol=1e-9)
    np.testing.assert_allclose(pts[1], [0.5] * 6, atol=1e-9)
    np.testing.assert_allclose(pts[2], [1, 0, 1, 0, 1, 0], atol=1e-9)
    assert all(c.jacobian_verdict == "regular" for c in result.equilibria)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permutation_equivariance(data):
    # relabelling each player's strategies, and swapping the players, moves
    # every equilibrium and warning with them. The exact route gives the
    # same Fractions, so the same floats: points compare equal exactly.
    # Generic games only: on tied games the continuum verdict still
    # depends on the labels.
    shape = tuple(data.draw(st.integers(2, 4), label=f"n{k}") for k in (1, 2))
    game = random_game(shape, seed=data.draw(st.integers(0, 2 ** 16), label="seed"))
    perms = [data.draw(st.permutations(range(c)), label="perm") for c in shape]
    swap = data.draw(st.booleans(), label="swap")
    # strategy s of player k in the moved game is strategy perms[k][s] here
    tables = [u[np.ix_(*perms)] for u in game.utilities]
    if swap:
        tables = [tables[1].T, tables[0].T]
    moved = enumerate_nash(make_game(tables[0].shape, tables))
    base = enumerate_nash(game)

    def move(blocks, pick):
        out = [pick(block, perm) for block, perm in zip(blocks, perms)]
        return out[::-1] if swap else out

    def moved_warning(text):
        if not text.startswith("support "):
            return text
        label, reason = text[len("support "):].split(": ", 1)
        supports = [tuple(map(int, s.split(","))) for s in label.split(" | ")]
        supports = move(supports, lambda supp, perm: tuple(
            s for s, p in enumerate(perm) if p in supp))
        return f"support {support_label(SupportProfile(tuple(supports)))}: {reason}"

    expect = sorted(
        tuple(float(x) for w in move(c.point.weights, lambda w, perm: [w[p] for p in perm])
              for x in w)
        for c in base.equilibria
    )
    assert _float_tuples(moved) == expect
    assert sorted(moved.warnings) == sorted(map(moved_warning, base.warnings))


def test_relabelling_three_player_games_moves_every_answer():
    # a seeded corpus of 30 2x2x2, 12 2x3x2 and 3 3x3x2 games, each with
    # its players and every player's strategies permuted at random: the
    # same count, the points within 1e-9 once moved back, the same
    # continuum flag and the same number of warnings (about 0.8 s)
    rng = np.random.default_rng(14)
    games = 0
    for shape, count in [((2, 2, 2), 30), ((2, 3, 2), 12), ((3, 3, 2), 3)]:
        for seed in range(40_000, 40_000 + count):
            game = random_game(shape, seed=seed)
            order = rng.permutation(3)  # player q of the moved game is player order[q] here
            perms = [rng.permutation(c) for c in shape]  # its strategy s is perms[b][s] here
            tables = [np.transpose(game.utilities[b][np.ix_(*perms)], order) for b in order]
            moved = enumerate_nash(make_game(tables[0].shape, tables), seed=seed)
            base = enumerate_nash(game, seed=seed)
            assert moved.count == base.count, (shape, seed)
            assert moved.continuum == base.continuum, (shape, seed)
            assert len(moved.warnings) == len(base.warnings), (shape, seed)
            back = []
            for cert in moved.equilibria:
                weights = [None] * 3
                for q, w in enumerate(cert.point.as_floats()):
                    weights[order[q]] = np.empty(len(w))
                    weights[order[q]][perms[order[q]]] = w
                back.append(tuple(np.concatenate(weights)))
            if base.count:
                np.testing.assert_allclose(sorted(back), _float_tuples(base), rtol=0, atol=1e-9)
            games += 1
    assert games == 45


def test_zero_game_raises_on_full_support(zero_game):
    with pytest.raises(SingularSystem) as exc:
        solve_support(zero_game, SupportProfile(((0, 1), (0, 1))))
    assert "positive-dimensional" in str(exc.value)
    assert exc.value.witness is not None


def test_zero_game_continuum(zero_game):
    result = enumerate_nash(zero_game)
    assert result.continuum
    assert result.degenerate
    assert result.equilibria == []
    assert result.continuum_witness is not None
    assert best_reply_check(zero_game, result.continuum_witness).all_ok
    assert any("continuum" in w for w in result.warnings)
    assert any("positive-dimensional" in w for w in result.warnings)


def test_dup_row_game_continuum(dup_row_game):
    result = enumerate_nash(dup_row_game)
    assert result.continuum
    assert result.equilibria == []
    witness = result.continuum_witness
    assert witness is not None
    assert best_reply_check(dup_row_game, witness).all_ok
    # the degenerate segment is ((t, 1-t), (0, 1))
    np.testing.assert_allclose([float(x) for x in witness.weights[1]], [0, 1])


def test_singular_jacobian_at_a_root():
    # game 20 of a 2x2x2 corpus, every player's payoffs
    # default_rng(5).integers(-1, 2, (2, 2, 2)): the full support's roots
    # lie on a curve, player 2 at (2/3, 1/3), that is not a line: no
    # midpoint of two roots solves, and every root Newton finds has a
    # singular Jacobian. Other supports witness the continuum.
    game = make_game((2, 2, 2), [
        [[[1, 1], [-1, -1]], [[1, 0], [-1, 1]]],
        [[[1, -1], [1, 0]], [[-1, 1], [1, -1]]],
        [[[-1, -1], [1, 1]], [[1, 1], [-1, -1]]],
    ])
    support = SupportProfile(((0, 1),) * 3)
    with pytest.raises(SingularSystem) as exc:
        solve_support(game, support)
    assert exc.value.reason == "singular Jacobian at a root"
    assert exc.value.witness is None
    candidates = exc.value.candidates
    assert candidates
    np.testing.assert_allclose([c.weights[1] for c in candidates],
                               [[2 / 3, 1 / 3]] * len(candidates), rtol=0, atol=1e-9)
    plan = genericity._face_plan((2, 2, 2), canonical_equilibrium_family(game, support), (0, 0, 0))
    system = genericity._face_system(game, plan)
    z = np.array([[w[1] for w in c.weights] for c in candidates])
    assert not genericity._svd_ranks(system(z)[1])[2].any()
    assert enumerate_nash(game).continuum


def test_pair_solve_stops_at_first_block_without_positive_point(monkeypatch):
    # support ({0,1,2}, {0,1}): player 1's block is w0 + w1 = 0 on the
    # simplex (a segment, none of it positive), player 2's block is the
    # whole simplex; only the first needs the simplex method. Mirrored
    # (players swapped), the segment is the second block, so both blocks
    # run the simplex method once.
    u2 = np.array([[0, 1], [0, 1], [0, 0]], dtype=object)
    cases = [
        ([np.zeros((3, 2), dtype=object), u2], ((0, 1, 2), (0, 1)), 1),
        ([u2.T.copy(), np.zeros((2, 3), dtype=object)], ((0, 1), (0, 1, 2)), 2),
    ]
    runs = []

    def counted(rows):
        runs.append(rows)
        return max_min_point(rows)

    monkeypatch.setattr(equilibrium, "max_min_point", counted)
    for utilities, support, simplex_runs in cases:
        game = make_game(utilities[0].shape, utilities, mode=RATIONAL)
        runs.clear()
        with pytest.raises(SingularSystem) as exc:
            solve_support(game, SupportProfile(support))
        assert exc.value.reason == "positive-dimensional solution set"
        assert exc.value.witness is None
        assert len(runs) == simplex_runs


def test_exact_blocks_are_solved_in_face_coordinates(monkeypatch):
    # every support of a 4x4 game: two eliminations, one per block, each
    # on |O| - 1 slope rows over the |S| - 1 face weights plus the
    # right-hand side, so no matrix carries a sum row
    shapes = []

    def counted(rows):
        shapes.append((len(rows), {len(r) for r in rows}))
        return rref(rows)

    monkeypatch.setattr("nashatlas.exact.rref", counted)
    game = random_game((4, 4), seed=5)
    enumerate_nash(game)
    supports = list(enumerate_supports(game))
    assert len(shapes) == 2 * len(supports) == 450
    for k, support in enumerate(supports):
        for solving in (0, 1):
            supp, osupp = support.supports[solving], support.supports[1 - solving]
            rows, widths = shapes[2 * k + solving]
            assert rows == len(osupp) - 1
            assert widths <= {len(supp)}


def _direct_blocks(game, supports):
    """Reference for the exact route's two blocks of a support, built
    straight from the payoff ints: (rows [A | b], unknowns) for each of
    the solving pair i < j (both players of a two-player game, else the
    mixed ones, with the first pure player as partner when one mixes),
    i's block first, every other player at its one strategy; None when
    nobody mixes. A solver's rows are its partner's slope equalities in
    face coordinates: (a_ts - a_{t,s0}, s in supp[1:] | -a_{t,s0}) per t
    in osupp[1:], with a_ts = u[t][s] - u[o][s] and o = osupp[0]."""
    if game.num_players == 2:
        pair = [0, 1]
    else:
        pair = [k for k, s in enumerate(supports) if len(s) > 1]
        if not pair:
            return None
        if len(pair) == 1:
            pair.append(next(k for k, s in enumerate(supports) if len(s) == 1))
        pair.sort()
    blocks = []
    for solver, partner in (pair, pair[::-1]):
        ints = game.integer_utilities[partner][0]

        def a(t, s):
            index = [supp[0] for supp in supports]
            index[partner], index[solver] = t, s
            o = list(index)
            o[partner] = supports[partner][0]
            return ints[tuple(index)] - ints[tuple(o)]

        supp, osupp = supports[solver], supports[partner]
        rows = [[a(t, s) - a(t, supp[0]) for s in supp[1:]] + [-a(t, supp[0])]
                for t in osupp[1:]]
        blocks.append((rows, len(supp) - 1))
    return blocks


@pytest.mark.parametrize("mode", ["float", RATIONAL])
@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (5, 4), (6, 6), (2, 2, 2), (2, 3, 2)])
def test_face_table_rows_are_the_direct_blocks(shape, mode, monkeypatch):
    # every block that reaches solve_affine, read from the game's face
    # table, is the [A | b] built straight from the payoffs, as Python
    # ints, for every support the exact route solves; rational games have
    # small ties, so positive-dimensional blocks are among them
    calls = []

    def recorded(rows, n):
        calls.append((rows, n))
        return solve_affine(rows, n)

    monkeypatch.setattr(equilibrium, "solve_affine", recorded)
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    if mode == RATIONAL:
        game = make_game(shape, [[Fraction(int(p), int(q)) for p, q in zip(
            rng.integers(-3, 4, math.prod(shape)), rng.integers(1, 4, math.prod(shape)))]
            for _ in shape], mode=RATIONAL)
    else:
        game = random_game(shape, seed=int(rng.integers(1000)))
    exact = 0
    for support in enumerate_supports(game):
        supports = support.supports
        if len(shape) > 2 and sum(len(s) > 1 for s in supports) > 2:
            continue  # the Newton route
        calls.clear()
        with contextlib.suppress(SingularSystem):
            equilibrium._integer_solution(game, support)
        want = _direct_blocks(game, supports)
        assert calls == (want or []), supports
        assert all(type(x) is int for rows, _ in calls for row in rows for x in row)
        exact += want is not None
    total = math.prod(2 ** c - 1 for c in shape)
    if len(shape) > 2:  # nobody mixes on the pure profiles, three mix on the rest
        total -= math.prod(shape) + math.prod(2 ** c - 1 - c for c in shape)
    assert exact == total


def test_face_table_is_built_once_per_game(monkeypatch):
    # one face table per pair player and held profile, on the first exact
    # support: 2 for a two-player game, 3 pairs x 2 held strategies x 2
    # players for 2x2x2; a second enumeration builds none
    built = []
    real = game_module._face_table
    monkeypatch.setattr(game_module, "_face_table", lambda u: built.append(u) or real(u))
    for shape, count in [((4, 4), 2), ((2, 2, 2), 12)]:
        game = random_game(shape, seed=9)
        built.clear()
        enumerate_nash(game, seed=9)
        assert len(built) == count
        enumerate_nash(game, seed=9)
        assert len(built) == count
        assert game._face_rows is game._face_rows


def test_continuum_with_tiny_max_min_weight_is_witnessed():
    # Player 2's weights on the full support solve y0 - N y1 + y2 = 0, so
    # every point has y1 = 1/(N + 1) = 1/(2 * 10**7); player 1 is held at
    # (1/2, 1/2). The positivity test is exact (> 0 for rational games),
    # so this continuum is witnessed although its largest smallest weight
    # is below 1e-6, the cut-off of the float LP this route once used.
    n = 2 * 10 ** 7 - 1
    game = make_game(
        (2, 3),
        [np.array([[0, 0, 0], [1, -n, 1]], dtype=object),
         np.array([[0, 1, 2], [0, -1, -2]], dtype=object)],
        mode=RATIONAL,
    )
    result = enumerate_nash(game)
    assert result.continuum
    witness = result.continuum_witness
    assert best_reply_check(game, witness).all_ok
    assert list(witness.weights[0]) == [Fraction(1, 2)] * 2
    assert 0 < min(witness.weights[1]) == Fraction(1, n + 1) <= 1e-6


@pytest.mark.parametrize("payoffs", [[3.0, 1.0, 2.0], [1.0, 1.0, 0.0], [1.0, 1.0 + 1e-12, 0.0]])
def test_one_player_game(payoffs):
    # one player: the slope equalities are integer constants, solved
    # exactly, so a mixed support has no solution (untied payoffs, however
    # near a tie) or a positive-dimensional one, whose witness is exact
    game = make_game([3], [np.array(payoffs)])
    tied = payoffs[0] == payoffs[1]
    for supp in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        if tied and supp == (0, 1):
            with pytest.raises(SingularSystem, match="positive-dimensional solution set"):
                solve_support(game, SupportProfile((supp,)))
        else:
            assert solve_support(game, SupportProfile((supp,))) == []
    result = enumerate_nash(game)
    assert result.continuum == tied
    if tied:
        assert result.equilibria == []
        assert [list(w) for w in result.continuum_witness.weights] == [[0.5, 0.5, 0.0]]
        assert best_reply_check(game, result.continuum_witness).all_ok
    else:
        assert result.warnings == []
        assert _float_tuples(result) == [tuple(float(j == np.argmax(payoffs)) for j in range(3))]


def test_witness_mentions_support(dup_row_game):
    result = enumerate_nash(dup_row_game)
    assert any("support" in w for w in result.warnings)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
)
def test_reported_equilibria_are_equilibria(seed, shape):
    game = random_game(shape, seed=seed)
    result = enumerate_nash(game, seed=seed)
    for cert in result.equilibria:
        report = best_reply_check(game, cert.point)
        assert report.all_ok
        assert support_of(cert.point).supports == cert.support.supports
        assert cert.equality_residual <= 1e-8
    pts = _float_tuples(result)
    for a, b in zip(pts, pts[1:]):
        assert max(abs(x - y) for x, y in zip(a, b)) > 1e-6


def _reference_slopes(game, i, weights):
    """Player i's slopes as a Fraction contraction of the payoff tensor
    read exactly as Fractions (a float as its exact binary value)."""
    vectors = [None if k == i else np.array([Fraction(x) for x in w], dtype=object)
               for k, w in enumerate(weights)]
    u = game.utilities[i]
    exact = np.array([Fraction(x) for x in u.flat], dtype=object).reshape(u.shape)
    return contract(exact, vectors)


def _reference_check(game, profile):
    """best_reply_check on Fraction slopes, compared exactly."""
    supports = support_of(profile).supports
    oks, residuals, margins = [], [], []
    for i, supp in enumerate(supports):
        c = _reference_slopes(game, i, profile.weights)
        inside = [c[j] for j in supp]
        outside = [c[j] for j in range(game.strategy_counts[i]) if j not in supp]
        residual = max(inside) - min(inside)
        margin = math.inf if not outside else min(inside) - max(outside)
        oks.append(residual == 0 and margin >= 0)
        residuals.append(residual)
        margins.append(margin)
    return tuple(oks), tuple(residuals), tuple(margins)


@st.composite
def rational_cases(draw):
    """A rational or float 2x3, 3x3 or 2x2x2 game and a profile of ints
    and Fractions: random weights (zero and negative ones included, each
    player with a nonzero weight), a pure profile, or, for two players,
    an equilibrium or continuum witness that enumerate_nash found on the
    game's exact rational twin."""
    shape = draw(st.sampled_from([(2, 3), (3, 3), (2, 2, 2)]))
    entry = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=6))
    size = int(np.prod(shape))
    payoffs = [draw(st.lists(entry, min_size=size, max_size=size)) for _ in shape]
    game = make_game(shape, payoffs, mode=draw(st.sampled_from([RATIONAL, "float"])))
    kind = draw(st.sampled_from(["random", "pure", "found"]))
    if kind == "found" and len(shape) == 2:
        result = enumerate_nash(make_game(shape, game.utilities, mode=RATIONAL))
        found = [c.point for c in result.equilibria] + [result.continuum_witness]
        point = draw(st.sampled_from(found))
        if point is not None:
            return game, [list(w) for w in point.weights]
    if kind == "pure":
        pure = [draw(st.integers(0, c - 1)) for c in shape]
        return game, [[int(j == p) for j in range(c)] for p, c in zip(pure, shape)]
    weight = st.one_of(st.sampled_from([0, 1, Fraction(1, 2)]), st.integers(-2, 2),
                       st.fractions(-2, 2, max_denominator=9))
    return game, [draw(st.lists(weight, min_size=c, max_size=c).filter(any)) for c in shape]


@settings(max_examples=300, deadline=None)
@given(case=rational_cases())
def test_exact_best_reply_check_matches_fraction_reference(case):
    game, weights = case
    profile = profile_from_weights(weights, RATIONAL)
    report = best_reply_check(game, profile)
    got = (report.ok, report.equality_residuals, report.inequality_margins)
    assert got == _reference_check(game, profile)
    assert all(type(x) is Fraction for x in report.equality_residuals)
    for i in range(game.num_players):
        values = payoff_slice_values(game, i, weights)
        assert values.dtype == object and all(type(x) is Fraction for x in values)
        assert list(values) == list(_reference_slopes(game, i, weights))


def _brute_force_slopes(game, i, weights):
    """Player i's slopes as a Fraction sum over every pure profile, each
    payoff read exactly (a float as its exact binary value) times the
    opponents' weights at that profile."""
    slopes = [Fraction(0)] * game.strategy_counts[i]
    for pure in itertools.product(*map(range, game.strategy_counts)):
        term = Fraction(game.utilities[i][pure])
        for k, s in enumerate(pure):
            if k != i:
                term *= Fraction(weights[k][s])
        slopes[pure[i]] += term
    return slopes


def _assert_brute_force_reply(game, weights, mode):
    """payoff_slice_values and best_reply_check at ``weights`` (read in
    ``mode``) against _brute_force_slopes: the exact values for exact
    weights, each exact value rounded once to float for float weights, and
    ok, a bool, at tolerance 0 or CHECK_TOL in the player's unit. Returns
    the report."""
    profile = profile_from_weights(weights, mode)
    report = best_reply_check(game, profile)
    number = (lambda x: x) if mode == RATIONAL else float
    for i, supp in enumerate(support_of(profile).supports):
        want = _brute_force_slopes(game, i, weights)
        assert list(payoff_slice_values(game, i, weights)) == [number(x) for x in want]
        inside = [want[j] for j in supp]
        outside = [want[j] for j in range(game.strategy_counts[i]) if j not in supp]
        residual = max(inside) - min(inside)
        margin = min(inside) - max(outside) if outside else math.inf
        tol = 0 if mode == RATIONAL else Fraction(math.ldexp(CHECK_TOL, game.payoff_exponents[i]))
        assert report.equality_residuals[i] == number(residual)
        assert report.inequality_margins[i] == number(margin)
        assert report.ok[i] is (residual <= tol and margin >= -tol)
    return report


def test_integer_slope_kernel_matches_a_brute_force_sum():
    # the one integer slope kernel (forms._slope_nums) behind
    # best_reply_check and payoff_slice_values, on 1- to 5-player games: a
    # held opponent is a Segre factor like any other, and its one nonzero
    # weight, 1 or not, keeps the slopes' scale. Float weights
    # (0.1-style decimals, from their own stream) are dyadic rationals and
    # take the same kernel: every slope, residual and margin is the exact
    # one rounded once
    rng = np.random.default_rng(17)
    decimals = np.random.default_rng(18)
    pure_weights = [1, 2, -1, Fraction(1, 3), Fraction(-7, 2)]
    checked = scaled = 0
    for shape in [(2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 2)]:
        for trial in range(12):
            payoffs = [[Fraction(int(n), int(d)) for n, d in zip(
                rng.integers(-6, 7, math.prod(shape)), rng.integers(1, 5, math.prod(shape)))]
                for _ in shape]
            game = make_game(shape, payoffs, mode=(RATIONAL, "float")[trial % 2])
            weights = []
            for c in shape:
                if rng.random() < 0.5:
                    v = pure_weights[rng.integers(len(pure_weights))]
                    w = [0] * c
                    w[rng.integers(c)] = v
                    scaled += v != 1
                else:
                    w = [0] * c
                    while not any(w):
                        w = [Fraction(int(n), int(d)) for n, d in
                             zip(rng.integers(-2, 4, c), rng.integers(1, 6, c))]
                weights.append(w)
            _assert_brute_force_reply(game, weights, RATIONAL)
            floats = [[int(n) / 10 for n in decimals.integers(0, 11, c)] for c in shape]
            for w in floats:
                w[decimals.integers(len(w))] += 0.1
            _assert_brute_force_reply(game, floats, "float")
            checked += 1
    assert checked == 72 and scaled > 20
    # a one-player game, whose one Segre monomial is the empty product 1,
    # and five players, where each mixed player faces three mixed opponents
    # and one held at weight -7/2
    third = Fraction(1, 3)
    for weights in ([[third, 0, 2 * third]],
                    [[third, 2 * third], [Fraction(-1, 2), Fraction(3, 2)],
                     [Fraction(1, 5), Fraction(4, 5)], [0, Fraction(-7, 2)],
                     [Fraction(3, 4), Fraction(1, 4)]]):
        shape = tuple(map(len, weights))
        for mode in (RATIONAL, "float"):
            payoffs = [[Fraction(int(n), int(d)) for n, d in zip(
                rng.integers(-6, 7, math.prod(shape)), rng.integers(1, 5, math.prod(shape)))]
                for _ in shape]
            game = make_game(shape, payoffs, mode=mode)
            _assert_brute_force_reply(game, weights, RATIONAL)
            _assert_brute_force_reply(game, [[float(x) for x in w] for w in weights], "float")
    # equilibria that Newton found on three mixed players pass at CHECK_TOL
    newton = 0
    for shape in [(2, 2, 2), (2, 3, 2)]:
        for seed in range(12):
            game = random_game(shape, seed=seed)
            for cert in enumerate_nash(game, seed=seed).equilibria:
                if min(map(len, cert.support.supports)) > 1:
                    weights = [w.tolist() for w in cert.point.weights]
                    assert _assert_brute_force_reply(game, weights, "float").all_ok
                    newton += 1
    assert newton > 5


def test_best_reply_check_at_a_tiny_payoff_scale():
    # payoffs times 2**-1000: CHECK_TOL in that unit has a denominator
    # beyond any float, and the float point's verdicts are those at scale 1
    game = random_game((2, 3), seed=3)
    tiny = make_game((2, 3), [u * 2.0**-1000 for u in game.utilities])
    for weights in ([[0.5, 0.5], [0.2, 0.3, 0.5]], [[0.5, 0.5], [0.5, 0.5, 0.0]]):
        point = profile_from_weights(weights)
        want, got = best_reply_check(game, point), best_reply_check(tiny, point)
        assert (got.ok, got.boundary) == (want.ok, want.boundary)
        assert got.equality_residuals == tuple(x * 2.0**-1000 for x in want.equality_residuals)


@pytest.mark.parametrize("mode", ["float", RATIONAL])
def test_tied_full_support_residual_is_exactly_zero(mode):
    # 2x2x2 game 3 of the default_rng(11) tied section of tests/ab.py:
    # Newton's full-support root ((1/2, 1/2), (0.8, 0.2), (1/2, 1/2))
    # ties every player's slopes exactly, so its residual is exactly 0.0,
    # not a rounding error, in either game mode
    payoffs = [[[[2, 1], [-2, -1]], [[0, 2], [2, -1]]],
               [[[1, -2], [-2, -1]], [[0, -1], [1, 0]]],
               [[[-1, 2], [1, 1]], [[1, -1], [2, -2]]]]
    result = enumerate_nash(make_game((2, 2, 2), payoffs, mode=mode))
    [full] = [c for c in result.equilibria if c.support.supports == ((0, 1),) * 3]
    assert [w.tolist() for w in full.point.weights] == [[0.5, 0.5], [0.8, 0.2], [0.5, 0.5]]
    assert not full.exact
    assert type(full.equality_residual) is float and full.equality_residual == 0.0


def test_float_weights_on_rational_game_stay_float(bos_exact):
    exact = profile_from_weights([[Fraction(2, 3), Fraction(1, 3)],
                                  [Fraction(1, 3), Fraction(2, 3)]], RATIONAL)
    floats = profile_from_weights([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    for i in range(2):
        values = payoff_slice_values(bos_exact, i, floats.weights)
        assert values.dtype == float
        want = _reference_slopes(bos_exact, i, exact.weights)
        np.testing.assert_allclose(values, want.astype(float))
    report = best_reply_check(bos_exact, floats)
    assert report.all_ok
    assert all(isinstance(x, float)
               for x in report.equality_residuals + report.inequality_margins)
    assert best_reply_check(bos_exact, exact).equality_residuals == (0, 0)


@pytest.mark.parametrize("mode", ["float", RATIONAL])
def test_equilibria_of_different_supports_are_not_merged(mode):
    # a regular coordination game: the mixed equilibrium sits within 1e-7
    # of the pure one on strategy 0, yet it is a third equilibrium
    game = make_game((2, 2), [[[1, 0], [0, 10**7]]] * 2, mode=mode)
    result = enumerate_nash(game)
    assert result.count == 3
    assert result.warnings == [] and not result.degenerate
    assert len({c.support for c in result.equilibria}) == 3


def test_certificate_exact_follows_the_point(bos_exact):
    # a rational 2x2x2 game: supports on which at most two players mix take
    # the exact route, the full support the float Newton route
    game = make_game((2, 2, 2), random_game((2, 2, 2), seed=20).utilities, mode=RATIONAL)
    result = enumerate_nash(game)
    mixed = sorted(sum(len(s) > 1 for s in c.support.supports) for c in result.equilibria)
    assert mixed == [2, 2, 3]
    for cert in result.equilibria:
        linear = sum(len(s) > 1 for s in cert.support.supports) <= 2
        assert cert.exact is linear
        if linear:
            assert all(type(x) is Fraction for w in cert.point.weights for x in w)
        else:
            assert all(w.dtype == float for w in cert.point.weights)
    result = enumerate_nash(bos_exact)
    assert result.equilibria and all(c.exact is True for c in result.equilibria)


def test_certificate_margin_is_a_function_of_the_point():
    # the 85 mixed equilibria of the 2x2x2 fixture games of seeds
    # 40000-40099: the certificate's smallest singular value is the one of
    # the point's Jacobian read from a stack of 2, 5 or 7 points, the point
    # first or last
    mixed = 0
    for seed in range(40_000, 40_100):
        game = random_game((2, 2, 2), seed=seed)
        rng = np.random.default_rng(seed)
        for cert in enumerate_nash(game, seed=seed).equilibria:
            supports = cert.support.supports
            z = np.concatenate([w[list(s[1:])] for w, s in zip(cert.point.as_floats(), supports)])
            if not z.size:
                continue
            mixed += 1
            plan = genericity._face_plan(
                (2, 2, 2), canonical_equilibrium_family(game, cert.support), (0, 0, 0))
            system = genericity._face_system(game, plan)
            others = rng.normal(0.0, 1.0, (6, z.size))
            for jac in (system(np.stack([z, z]))[1][0], system(np.stack([z] * 5))[1][0],
                        system(np.vstack([z, others]))[1][0],
                        system(np.vstack([others, z]))[1][-1]):
                assert genericity._svd_ranks(jac)[1] == cert.smallest_singular_value, seed
    assert mixed == 85


def test_a_point_reads_the_same_bits_alone_and_in_any_stack():
    # the face system's one evaluation rule: at random points of every
    # support's canonical face of 2x2x2, 2x3x2 and 3x3 games, in both
    # modes, system(z) (1-D, and as a stack of one) is bit for bit the
    # matching row of stacks of 2, 5 and 7 points, the point at every
    # place, residual and Jacobian alike, though NumPy's matmul sums one
    # row in another order than a stack
    rng = np.random.default_rng(40)
    checked = 0
    for shape in [(2, 2, 2), (2, 3, 2), (3, 3)]:
        base = random_game(shape, seed=40_000)
        for game in (base, make_game(shape, base.utilities, mode=RATIONAL)):
            chart = (0,) * len(shape)
            for support in enumerate_supports(game):
                plan = genericity._face_plan(
                    shape, canonical_equilibrium_family(game, support), chart)
                if not plan.n:
                    continue
                system = genericity._face_system(game, plan)
                z = rng.normal(0.0, 1.0, plan.n)
                alone = [(f.tobytes(), jac.tobytes())
                         for f, jac in (system(z), (a[0] for a in system(z[None])))]
                assert alone[0] == alone[1]
                for size in (2, 5, 7):
                    for place in range(size):
                        stack = rng.normal(0.0, 1.0, (size, plan.n))
                        stack[place] = z
                        f, jac = system(stack)
                        assert (f[place].tobytes(), jac[place].tobytes()) == alone[0], (
                            shape, game.mode, support, size, place)
                checked += 1
    assert checked == 2 * ((27 - 8) + (63 - 12) + (49 - 9))


def test_certificate_exact_is_its_points_flag():
    fractions = profile_from_weights([[Fraction(1, 2)] * 2] * 2, RATIONAL)
    floats = profile_from_weights([[0.5, 0.5]] * 2)
    for point, exact in ((fractions, True), (floats, False)):
        cert = EquilibriumCertificate(point=point, support=support_of(point),
                                      equality_residual=0, inequality_margins=(math.inf,) * 2)
        assert cert.exact is exact
    with pytest.raises(TypeError):
        EquilibriumCertificate(point=fractions, support=support_of(fractions),
                               equality_residual=0, inequality_margins=(math.inf,) * 2,
                               exact=True)


def test_best_reply_check_accepts_numpy_integer_weights(bos_exact):
    pure = MixedProfile(tuple(np.array([np.int64(1), np.int64(0)], dtype=object)
                              for _ in range(2)))
    report = best_reply_check(bos_exact, pure)
    assert report.all_ok
    assert report.equality_residuals == (0.0, 0.0)


@pytest.mark.parametrize("mode", ["float", RATIONAL])
def test_tiny_strict_dominance_is_not_a_tie(mode):
    # row 1 beats row 0 by exactly eps against everything: one strict
    # equilibrium, not a second one at margin -eps, and no boundary flag
    eps = Fraction(1, 10**10) if mode == RATIONAL else 1e-10
    game = make_game((2, 2), [[[0, 0], [eps, eps]], [[1, 0], [1, 0]]], mode=mode)
    result = enumerate_nash(game)
    assert _float_tuples(result) == [(0.0, 1.0, 1.0, 0.0)]
    assert not result.equilibria[0].boundary_degenerate
    assert not result.degenerate


_dyadic = st.one_of(st.integers(-4, 4), st.integers(-2**20, 2**20).map(lambda n: n / 2**20))


def _scaled(game, powers):
    """game with player i's payoffs times 2**powers[i], in its own mode."""
    two = Fraction(2) if game.mode == RATIONAL else 2.0
    return make_game(game.strategy_counts,
                     [u * two ** k for u, k in zip(game.utilities, powers)], mode=game.mode)


def _scale_free_answer(game):
    """What must not depend on the payoff scale: supports, bitwise points,
    boundary flags, Jacobian verdicts and bitwise smallest singular values
    of the equilibria, warnings and the continuum flag."""
    result = enumerate_nash(game)
    return (
        [(c.support, [w.tobytes() for w in c.point.as_floats()], c.boundary_degenerate,
          c.jacobian_verdict, np.float64(c.smallest_singular_value).tobytes())
         for c in result.equilibria],
        result.warnings,
        result.continuum,
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
    data=st.data(),
    mode=st.sampled_from(["float", RATIONAL]),
)
def test_answers_do_not_depend_on_payoff_scale(shape, data, mode):
    # integers in -4..4 give ties and continua; 21-bit dyadic entries stay
    # exact when scaled by 2**k for any |k| <= 1000 (no overflow, no
    # subnormal), so the scaled game is the same game
    size = math.prod(shape)
    payoffs = [data.draw(st.lists(_dyadic, min_size=size, max_size=size)) for _ in shape]
    powers = [data.draw(st.integers(-1000, 1000)) for _ in shape]
    base = make_game(shape, payoffs, mode=mode)
    assert _scale_free_answer(_scaled(base, powers)) == _scale_free_answer(base)


def test_three_player_answers_do_not_depend_on_payoff_scale():
    # seeds whose answers moved, or were lost without a warning, when
    # every payoff was scaled by 2**30, 2**20 or 2**-20; at 2**-1000 every
    # residual passed and most supports warned
    answers = {}
    for seed in range(500, 520):
        game = random_game((2, 2, 2), seed)
        answers[seed] = _scale_free_answer(game)
        for k in (-20, 20, 30) + ((-1000,) if seed < 504 else ()):
            assert _scale_free_answer(_scaled(game, [k] * 3)) == answers[seed], (seed, k)
    assert [(len(answers[s][0]), answers[s][1]) for s in range(500, 504)] == [
        (1, []), (3, []), (3, []), (1, [])]


def test_answers_at_the_edge_of_the_float_range_do_not_depend_on_payoff_scale():
    # payoffs up to 1.875 * 2**1023 are floats, but their differences are
    # not: face systems built from float differences raised (SVD did not
    # converge) on 41 of these games, rounding an exact margin raised
    # OverflowError on 17, and 3x3 seed 517 was certified singular with
    # smallest singular value nan
    for shape in [(2, 2, 2), (3, 3), (2, 3, 2), (4, 4)]:
        for seed in range(500, 520):
            base = make_game(shape, [1.875 * u for u in random_game(shape, seed).utilities])
            answer = _scale_free_answer(_scaled(base, [1023] * len(shape)))
            assert answer == _scale_free_answer(base), (shape, seed)
            if (shape, seed) == ((3, 3), 517):
                assert [c[3] for c in answer[0]] == ["regular"]


@pytest.mark.parametrize("offset, grid", [(1000.0, 40), (Fraction(1000, 3), 60)])
def test_three_player_answers_do_not_depend_on_payoff_offset(offset, grid):
    # payoffs of range about 2**-20 under a large offset: slopes contracted
    # from the raw payoffs carried rounding of about 1e-13 against a check
    # tolerance of about 1e-14, and mixed equilibria were lost unflagged.
    # Float: on the 2**-40 grid 1000 + u is exact. Rational: 1000/3 + u is
    # exact, but u on the 2**-60 grid makes its float rounding differ entry
    # by entry, so only differences taken before rounding cancel the offset
    mode = RATIONAL if isinstance(offset, Fraction) else "float"
    mixed = 0
    for seed in range(500, 520):
        small = [np.round(u * 2**(grid - 20)) / 2**grid
                 for u in random_game((2, 2, 2), seed).utilities]
        base = make_game((2, 2, 2), small, mode=mode)
        shifted = make_game((2, 2, 2), [u + offset for u in base.utilities], mode=mode)
        answer = _scale_free_answer(base)
        assert _scale_free_answer(shifted) == answer, seed
        mixed += sum(len(s) > 1 for c, *_ in answer[0] for s in c.supports)
    assert mixed > 0


def test_rational_payoffs_of_any_size_give_the_unscaled_answers():
    # the payoff unit is decided exactly (payoff_exponents by bit lengths)
    # and the face system scales exact differences before their rounding,
    # so rational payoffs beyond the float range keep the unscaled answers:
    # at 2**-1100 the 2x2x2 game reported 0 equilibria and a continuum, at
    # 2**1100 the 2x2 game raised OverflowError, and at 10**-400 its mixed
    # equilibrium was certified singular with smallest singular value 0.0;
    # at 2**1100 the 2x2x2 game raised OverflowError in best_reply_check,
    # whose float point's residuals in that unit lie beyond the float range
    for shape, seed, powers in [((2, 2, 2), 40005, (-1100, 1100)),
                                ((2, 2), 40002, (-1100, 1100))]:
        game = make_game(shape, random_game(shape, seed).utilities, mode=RATIONAL)
        answer = _scale_free_answer(game)
        assert [c[3] for c in answer[0]] == ["regular"] * 3
        for k in powers:
            scaled = _scaled(game, [k] * len(shape))
            assert scaled.payoff_exponents == tuple(e + k for e in game.payoff_exponents)
            assert _scale_free_answer(scaled) == answer, (shape, k)
    # the 2x2x2 game's Newton point at 2**1100: its nonzero residuals read
    # inf, its verdicts (in integers) hold
    huge = _scaled(make_game((2, 2, 2), random_game((2, 2, 2), 40005).utilities,
                             mode=RATIONAL), [1100] * 3)
    [mixed] = [c for c in enumerate_nash(huge).equilibria
               if all(len(s) == 2 for s in c.support.supports)]
    report = best_reply_check(huge, mixed.point)
    assert report.ok == (True,) * 3 and report.equality_residuals == (math.inf,) * 3
    tiny = make_game((2, 2), [u / 10**400 for u in game.utilities], mode=RATIONAL)
    assert [(c.jacobian_verdict, c.smallest_singular_value > 0)
            for c in enumerate_nash(tiny).equilibria] == [("regular", True)] * 3


def test_three_player_game_at_huge_scale_finishes():
    # Newton on raw payoffs near 1e301 never came back from its SVD, so
    # the run gets its own interpreter and a time limit
    script = (
        "from nashatlas import enumerate_nash, make_game, random_game\n"
        "game = random_game((2, 2, 2), 501)\n"
        "huge = make_game((2, 2, 2), [u * 2.0 ** 1000 for u in game.utilities])\n"
        "print(enumerate_nash(huge).count, enumerate_nash(game).count)\n"
    )
    run = fresh_python("-c", script, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["3", "3"]


def test_games_by_a_face_crossing_are_odd_or_degenerate():
    # ROADMAP item 22, segment 10: along G(t) = (1 - t) G0 + t G1 the count
    # first changes between the grid points t = 0.12 and 0.14, where an
    # equilibrium on the full support crosses a face's boundary (t near
    # 0.1270379). Bisected to that event, each of 41 games within 2e-9 of
    # it has an odd count or says it is degenerate: Newton keeps a root
    # whose weight is positive but under WEIGHT_TOL, and its certificate
    # is boundary-degenerate, where the root was once dropped unflagged
    g0, g1 = random_game((2, 2, 2), seed=5020), random_game((2, 2, 2), seed=5021)

    def game(t):
        return make_game((2, 2, 2), [(1 - t) * a + t * b for a, b in zip(g0.utilities,
                                                                          g1.utilities)])

    def count(t):
        return enumerate_nash(game(t)).count

    assert [count(k / 50) for k in range(8)] == [3] * 7 + [1]
    lo, hi = 0.12, 0.14
    for _ in range(45):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if count(mid) == 3 else (lo, mid)
    assert abs(lo - 0.1270379) < 1e-7
    for k in range(41):
        result = enumerate_nash(game(lo + (k - 20) * 1e-10))
        assert result.count % 2 == 1 or result.degenerate, k
