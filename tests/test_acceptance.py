"""Acceptance gate: ten numbered criteria, one test (and one pass/fail
line under pytest -v) per criterion. Tolerances are pinned here and
not imported from the library, so a library-side tolerance change
cannot silently weaken the gate.
"""

import itertools
import json
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from nashatlas import (
    INF,
    RATIONAL,
    ChartExcludesHypersurface,
    Coordinate,
    PayoffDiff,
    all_charts,
    chart_point,
    defining_map,
    enumerate_nash,
    good_family,
    homogeneous_decomposition,
    is_good,
    lambda_decomposition,
    make_game,
    on_hypersurface,
    payoff_form,
    random_game,
    transition,
    transversal_at,
)
from nashatlas.cli import main as cli_main

from conftest import fd_gradient, oracle_enumerate_2p, rank_split_equivalence_test
from test_cli import DUP_ROW_TEXT, ZERO_TEXT

SHAPES = [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2)]

RECON_REL_TOL = 1e-10      # criterion 1
GRID_STEP = 200            # criterion 3
GRID_SCREEN_TOL = 1e-8     # criterion 3: same tolerance as best_reply_check
GRID_DIST_TOL = 1e-2       # criterion 3
ODDNESS_RATE = 0.98        # criterion 4
SIGMA_MIN_TOL = 1e-8       # criterion 5
FD_STEP = 1e-6             # criterion 6
FD_REL_TOL = 1e-5          # criterion 6
FD_ABS_TOL = 1e-7          # criterion 6


def _report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _dirichlet_points(rng, counts, n):
    return [rng.dirichlet(np.ones(c), size=n) for c in counts]


def _tilde(mat):
    out = np.empty_like(mat)
    out[:, 0] = mat.sum(axis=1)
    out[:, 1:] = mat[:, 1:]
    return out


def test_criterion_01_decomposition_identities():
    """Both payoff reconstructions agree with direct evaluation."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for shape in SHAPES:
        for k in range(125):
            game = random_game(shape, seed=10_000 + k)
            points = _dirichlet_points(rng, shape, 1000)
            tildes = [_tilde(m) for m in points]
            for i in range(game.num_players):
                direct = payoff_form(game, i).eval(points)
                dec = lambda_decomposition(game, i)
                others = [points[t][:, 1:] for t in dec.kappa.blocks]
                affine = dec.kappa.eval(others)
                for j in range(1, shape[i]):
                    affine = affine + points[i][:, j] * dec.lambdas[j].eval(others)
                hom = homogeneous_decomposition(game, i)
                h_others = [tildes[t] for t in hom.K.blocks]
                homog = tildes[i][:, 0] * hom.K.eval(h_others)
                for j in range(1, shape[i]):
                    homog = homog + tildes[i][:, j] * hom.Lambdas[j].eval(h_others)
                scale = np.maximum(1.0, np.abs(direct))
                worst = max(
                    worst,
                    float(np.max(np.abs(affine - direct) / scale)),
                    float(np.max(np.abs(homog - direct) / scale)),
                )
    # rational mode: the same identities hold exactly for 2-player games
    exact_ok = True
    for shape in [(2, 2), (3, 3)]:
        for k in range(5):
            base = random_game(shape, seed=20_000 + k)
            game = make_game(shape, base.utilities, mode=RATIONAL)
            for _ in range(10):
                w = []
                for c in shape:
                    raw = [Fraction(int(x), 97) for x in rng.integers(1, 97, size=c)]
                    total = sum(raw)
                    w.append([x / total for x in raw])
                tl = [[sum(wt), *wt[1:]] for wt in w]
                for i in range(2):
                    direct = payoff_form(game, i).eval(w)
                    dec = lambda_decomposition(game, i)
                    others = [w[t][1:] for t in dec.kappa.blocks]
                    affine = dec.kappa.eval(others) + sum(
                        w[i][j] * dec.lambdas[j].eval(others)
                        for j in range(1, shape[i])
                    )
                    hom = homogeneous_decomposition(game, i)
                    h_others = [tl[t] for t in hom.K.blocks]
                    homog = tl[i][0] * hom.K.eval(h_others) + sum(
                        tl[i][j] * hom.Lambdas[j].eval(h_others)
                        for j in range(1, shape[i])
                    )
                    exact_ok = exact_ok and affine == direct and homog == direct
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= RECON_REL_TOL and exact_ok and elapsed <= 60,
        f"500 games x 1000 points, worst rel err {worst:.2e}, "
        f"exact rational {'ok' if exact_ok else 'BROKEN'}, {elapsed:.1f}s",
    )


def test_criterion_02_known_games():
    """Matching pennies and battle of the sexes, exact, against the
    independent elimination oracle."""
    start = time.perf_counter()
    half = Fraction(1, 2)
    mp = make_game(
        (2, 2), [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], mode=RATIONAL
    )
    mp_result = enumerate_nash(mp)
    mp_points = sorted(
        tuple(tuple(w) for w in c.point.weights) for c in mp_result.equilibria
    )
    mp_ok = mp_points == [((half, half), (half, half))]

    bos = make_game(
        (2, 2), [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], mode=RATIONAL
    )
    bos_result = enumerate_nash(bos)
    bos_points = sorted(
        tuple(tuple(w) for w in c.point.weights) for c in bos_result.equilibria
    )
    mixed = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
    bos_ok = len(bos_points) == 3 and mixed in bos_points

    oracle_ok = True
    for game, result in [(mp, mp_result), (bos, bos_result)]:
        expected, degenerate = oracle_enumerate_2p(game)
        got = sorted(
            tuple(x for w in c.point.weights for x in w)
            for c in result.equilibria
        )
        want = sorted(tuple(x for side in eq for x in side) for eq in expected)
        oracle_ok = oracle_ok and not degenerate and got == want
    elapsed = time.perf_counter() - start
    _report(
        2,
        mp_ok and bos_ok and oracle_ok and elapsed <= 1,
        f"MP unique, BoS 3 incl (2/3,1/3),(1/3,2/3), oracle agrees, {elapsed:.2f}s",
    )


def _grid_simplex(c, step):
    """All weight vectors on the 1/step grid of the (c-1)-simplex."""
    if c == 2:
        ticks = np.arange(step + 1) / step
        return np.column_stack([1 - ticks, ticks])
    rows = []
    for a in range(step + 1):
        for b in range(step + 1 - a):
            rows.append((a / step, b / step, (step - a - b) / step))
    return np.array(rows)


def _grid_check(game, result):
    """Returns (worst distance, passing count) of the brute-force grid
    screen against the enumerated equilibria."""
    W1 = _grid_simplex(game.strategy_counts[0], GRID_STEP)
    W2 = _grid_simplex(game.strategy_counts[1], GRID_STEP)
    U1, U2 = (np.asarray(u, dtype=float) for u in game.utilities)
    S1 = U1 @ W2.T                       # (c1, m2) pure payoffs of player 1
    M2 = W1 @ U2                         # (m1, c2) pure payoffs of player 2
    eqs = np.array(
        [
            np.concatenate([np.asarray(w, float) for w in c.point.weights])
            for c in result.equilibria
        ]
    )
    worst = 0.0
    passing = 0
    chunk = 512
    for lo in range(0, len(W1), chunk):
        w1 = W1[lo : lo + chunk]
        val1 = w1 @ S1                    # (b, m2)
        reg1 = S1.max(axis=0)[None, :] - val1
        m2 = M2[lo : lo + chunk]
        val2 = m2 @ W2.T
        reg2 = m2.max(axis=1)[:, None] - val2
        mask = (reg1 <= GRID_SCREEN_TOL) & (reg2 <= GRID_SCREEN_TOL)
        if not mask.any():
            continue
        idx1, idx2 = np.nonzero(mask)
        pts = np.concatenate([w1[idx1], W2[idx2]], axis=1)
        passing += len(pts)
        dists = np.abs(pts[:, None, :] - eqs[None, :, :]).max(axis=2).min(axis=1)
        worst = max(worst, float(dists.max()))
    return worst, passing


def test_criterion_03_grid_oracle():
    start = time.perf_counter()
    worst = 0.0
    total_passing = 0
    for shape, base in [((2, 2), 30_000), ((2, 3), 31_000)]:
        for k in range(25):
            game = random_game(shape, seed=base + k)
            result = enumerate_nash(game)
            if result.warnings:
                continue
            d, passing = _grid_check(game, result)
            worst = max(worst, d)
            total_passing += passing
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= GRID_DIST_TOL and total_passing > 0 and elapsed <= 120,
        f"50 games, {total_passing} grid points passed screen, "
        f"worst distance {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def oddness_runs():
    """600 seeded uniform games, shared by criteria 4 and 5."""
    start = time.perf_counter()
    runs = []
    for shape in [(2, 2), (3, 3), (2, 2, 2)]:
        for k in range(200):
            seed = 40_000 + k
            game = random_game(shape, seed=seed)
            runs.append((shape, seed, enumerate_nash(game, seed=seed)))
    return runs, time.perf_counter() - start


def test_criterion_04_oddness(oddness_runs):
    runs, elapsed = oddness_runs
    good = 0
    unwarned_exceptions = []
    for shape, seed, result in runs:
        odd = not result.continuum and result.count % 2 == 1
        if odd and not result.warnings:
            good += 1
        elif not result.warnings:
            unwarned_exceptions.append((shape, seed, result.count))
    rate = good / len(runs)
    _report(
        4,
        rate >= ODDNESS_RATE and not unwarned_exceptions and elapsed <= 600,
        f"odd-and-finite rate {rate:.3f} over {len(runs)} games, "
        f"{len(unwarned_exceptions)} unwarned exceptions, {elapsed:.1f}s",
    )


def test_criterion_05_regularity(oddness_runs):
    runs, _ = oddness_runs
    checked = 0
    failures = []
    for shape, seed, result in runs:
        if result.warnings:
            continue
        for cert in result.equilibria:
            checked += 1
            if (
                cert.jacobian_verdict != "regular"
                or cert.smallest_singular_value is None
                or cert.smallest_singular_value <= SIGMA_MIN_TOL
            ):
                failures.append((shape, seed))
    _report(
        5,
        checked > 0 and not failures,
        f"{checked} equilibria certified regular "
        f"(smallest singular value > {SIGMA_MIN_TOL}), {len(failures)} failures",
    )


def _all_hypersurfaces(game):
    out = []
    for i, c in enumerate(game.strategy_counts):
        out.append(Coordinate(i, INF))
        for j in range(c):
            out.append(Coordinate(i, j))
        for pair in itertools.combinations(range(c), 2):
            out.append(PayoffDiff(i, pair))
    return out


def test_criterion_06_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    points_checked = 0
    worst = 0.0
    games = {shape: random_game(shape, seed=60_000) for shape in SHAPES}
    while points_checked < 1000:
        shape = SHAPES[points_checked % len(SHAPES)]
        game = games[shape]
        charts = list(all_charts(game))
        chart = charts[int(rng.integers(len(charts)))]
        for h in _all_hypersurfaces(game):
            try:
                form = defining_map(game, h, chart)
            except ChartExcludesHypersurface:
                continue
            inputs = [
                rng.normal(size=form.input_length(t))
                for t in range(len(form.blocks))
            ]
            for block in form.blocks:
                analytic = form.grad(inputs, block)
                numeric = fd_gradient(form, inputs, block, step=FD_STEP)
                err = np.abs(analytic - numeric) / np.maximum(
                    1.0, np.abs(analytic)
                )
                worst = max(worst, float(err.max()) if err.size else 0.0)
                assert np.allclose(
                    analytic, numeric, rtol=FD_REL_TOL, atol=FD_ABS_TOL
                )
        points_checked += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        worst <= FD_REL_TOL,
        f"1000 chart points, all defining maps, worst rel err {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_rank_split():
    rng = np.random.default_rng(707)
    checked = 0
    ok = True
    while checked < 1000:
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(rows, rows + 5))
        b = int(rng.integers(0, rows + 1))
        A = rng.normal(size=(rows, cols))
        mode = rng.integers(3)
        if mode == 1 and rows - b >= 1:
            # make a bottom row dependent on the others
            target = int(rng.integers(b, rows))
            others = [r for r in range(rows) if r != target]
            if others:
                coeffs = rng.normal(size=len(others))
                A[target] = coeffs @ A[others]
        elif mode == 2 and rows - b >= 2:
            A[rows - 1] = A[b]
        # precondition: the top block has full row rank
        if b and np.linalg.matrix_rank(A[:b]) < b:
            continue
        ok = ok and rank_split_equivalence_test(A, b)
        checked += 1
    _report(7, ok, "1000 random precondition instances all equivalent")


def _on_surface_point(game, h, chart, rng):
    """Adjust one coordinate of a random point to land exactly on h;
    multi-affine forms are affine in any single coordinate."""
    try:
        form = defining_map(game, h, chart)
    except ChartExcludesHypersurface:
        return None
    for _ in range(20):
        coords = [rng.normal(size=c - 1) for c in game.strategy_counts]
        inputs = [coords[b] for b in form.blocks]
        value = form.eval(inputs)
        for b in form.blocks:
            grad = form.grad(inputs, b)
            k = int(np.argmax(np.abs(grad)))
            if abs(grad[k]) > 1e-6:
                coords[b][k] -= value / grad[k]
                point = chart_point(game, chart, coords)
                if on_hypersurface(game, h, point):
                    return point
                break
    return None


def _family_of(game, h):
    T = [[] for _ in game.strategy_counts]
    R = [[] for _ in game.strategy_counts]
    if isinstance(h, Coordinate):
        T[h.player].append(h.index)
    else:
        R[h.player].append(h.pair)
    return good_family(game, T, R)


def test_criterion_08_chart_covariance():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    disagreements = 0
    for shape in SHAPES:
        game = random_game(shape, seed=80_000)
        surfaces = _all_hypersurfaces(game)
        charts = list(all_charts(game))
        done = 0
        while done < 200:
            h = surfaces[int(rng.integers(len(surfaces)))]
            base_chart = charts[int(rng.integers(len(charts)))]
            point = _on_surface_point(game, h, base_chart, rng)
            if point is None:
                continue
            fam = _family_of(game, h)
            base_member = on_hypersurface(game, h, point)
            base_verdict = transversal_at(
                game, fam, point, active=[h]
            ).verdict
            for target in charts:
                try:
                    defining_map(game, h, target)
                except ChartExcludesHypersurface:
                    continue
                # transitions through near-zero pivots magnify float
                # error without adding information; skip them
                moved_coords_ok = all(
                    abs(p) > 1e-3
                    for p in (
                        point.full_vector(i)[l]
                        for i, l in enumerate(target)
                    )
                )
                if not moved_coords_ok:
                    continue
                moved = transition(point, target)
                member = on_hypersurface(game, h, moved)
                verdict = transversal_at(
                    game, fam, moved, active=[h]
                ).verdict
                if member != base_member or verdict != base_verdict:
                    disagreements += 1
            done += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        disagreements == 0,
        f"200 on-surface points x {len(SHAPES)} shapes across all charts, "
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_09_degenerate_detection(tmp_path, capsys):
    zero = tmp_path / "zero.game"
    zero.write_text(ZERO_TEXT)
    dup = tmp_path / "dup.game"
    dup.write_text(DUP_ROW_TEXT)
    codes = []
    witnesses = []
    for path in (zero, dup):
        codes.append(cli_main(["solve", str(path), "--json"]))
        report = json.loads(capsys.readouterr().out)
        witnesses.append(report["results"]["continuum_witness"])
    with capsys.disabled():
        _report(
            9,
            codes == [2, 2] and all(w is not None for w in witnesses),
            f"zero and duplicate-row games exit 2 with witnesses {witnesses}",
        )


def test_criterion_10_good_family_combinatorics():
    start = time.perf_counter()
    mismatches = 0
    families = 0
    for counts in [(2, 2), (3, 3), (4, 4), (2, 4), (4, 3)]:
        game = make_game(counts, [np.zeros(counts) for _ in counts])
        subsets = []
        for c in counts:
            pairs = list(itertools.combinations(range(c), 2))
            subsets.append(
                list(
                    itertools.chain.from_iterable(
                        itertools.combinations(pairs, k)
                        for k in range(len(pairs) + 1)
                    )
                )
            )
        for combo in itertools.product(*subsets):
            fam = good_family(game, R=[list(r) for r in combo])
            expect = True
            for i, pairs in enumerate(fam.R):
                graph = nx.Graph()
                graph.add_nodes_from(range(counts[i]))
                graph.add_edges_from(pairs)
                if not nx.is_forest(graph):
                    expect = False
                    break
            if is_good(fam) != expect:
                mismatches += 1
            families += 1
    elapsed = time.perf_counter() - start
    _report(
        10,
        mismatches == 0 and families > 4000,
        f"{families} pair-set families, exhaustive up to 4 strategies, "
        f"{mismatches} oracle mismatches, {elapsed:.1f}s",
    )
