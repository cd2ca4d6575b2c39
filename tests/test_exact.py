"""Fraction-free elimination against plain Fraction Gauss-Jordan and,
bit for bit, against fraction-free Gauss-Jordan; a support block in face
coordinates against the whole block; and the exact max-min simplex
against a search over every basis. Every system is a list of integer
rows [A | b], the right-hand side last."""

import contextlib
import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import RATIONAL, SingularSystem, enumerate_supports, make_game, random_game
from nashatlas import equilibrium
from nashatlas.equilibrium import _face_block, _positive_point, _simplex_nums
from nashatlas.exact import max_min_point, rref, solve_affine
from nashatlas.game import _face_table


def _reference_rref(rows):
    """Gauss-Jordan on Fraction entries, normalising each pivot row."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _reference_solve(rows, n):
    """(particular, nullspace) of A x = b, given as rows [A | b], from
    the reference rref."""
    if not rows:
        return [Fraction(0)] * n, [
            [Fraction(int(f == k)) for k in range(n)] for f in range(n)
        ]
    mat, pivots = _reference_rref(rows)
    if n in pivots:
        return None, []
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = mat[r][n]
    nullspace = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        nullspace.append(vec)
    return particular, nullspace


@st.composite
def int_systems(draw):
    """([A | b], n) with 0-5 rows and 0-5 unknowns. Small entries make zero
    rows, zero columns, rank deficiency and inconsistency common; a few
    huge entries stand in for payoffs scaled by 2**1074."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 2100), 2 ** 2100))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if a and draw(st.booleans()):  # a dependent row with a free rhs
        k = draw(st.integers(-2, 2))
        a.append([k * x for x in a[0]])
    if a and n and draw(st.booleans()):  # a zero column
        col = draw(st.integers(0, n - 1))
        for row in a:
            row[col] = 0
    b = draw(st.lists(entry, min_size=len(a), max_size=len(a)))
    return [row + [rhs] for row, rhs in zip(a, b)], n


@settings(max_examples=400, deadline=None)
@given(int_systems())
def test_rref_is_an_echelon_form_of_the_reference(system):
    # one row per pivot, from its pivot column on, each starting with its
    # nonzero int pivot; padded back to full width, with zero rows for the
    # rows without a pivot, the rows reduce to the input's reduced form
    rows, _ = system
    echelon, pivots = rref(rows)
    want = _reference_rref([[Fraction(x) for x in r] for r in rows])
    assert pivots == want[1]
    assert len(echelon) == len(pivots)
    assert all(type(x) is int for r in echelon for x in r)
    assert all(r[0] for r in echelon)
    width = len(rows[0]) if rows else 0
    padded = [[0] * c + r for r, c in zip(echelon, pivots)]
    assert all(len(r) == width for r in padded)
    padded += [[0] * width for _ in range(len(rows) - len(pivots))]
    assert _reference_rref([[Fraction(x) for x in r] for r in padded]) == want


def _gauss_jordan_solve(rows, n):
    """solve_affine's (nums, den, free) by Bareiss's fraction-free
    Gauss-Jordan elimination on the same pivot rows: every pivot clears
    its column in every other row, so every pivot entry ends equal to the
    last pivot d, and d x (free unknowns 0) is read off column n, signed
    so the denominator is > 0. None for nums when the system is
    inconsistent."""
    mat, pivots, prev, r = list(rows), [], 1, 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        mat = [row if i == r else [(top[c] * x - row[c] * y) // prev for x, y in zip(row, top)]
               for i, row in enumerate(mat)]
        prev = top[c]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    if pivots and pivots[-1] == n:
        return None, 1, 0
    den = mat[0][pivots[0]] if pivots else 1
    sign = -1 if den < 0 else 1
    nums = [0] * n
    for r, c in enumerate(pivots):
        nums[c] = sign * mat[r][n]
    return nums, sign * den, n - len(pivots)


def _assert_gauss_jordan_bitwise(rows, n):
    sol = solve_affine(rows, n)
    assert (sol.nums, sol.den, sol.free) == _gauss_jordan_solve(rows, n), (rows, n)
    assert all(type(x) is int for x in [*(sol.nums or ()), sol.den, sol.free])


@settings(max_examples=400, deadline=None)
@given(int_systems())
def test_solve_affine_matches_gauss_jordan_bitwise(system):
    _assert_gauss_jordan_bitwise(*system)


@pytest.mark.parametrize("tied", [False, True])
def test_solve_affine_matches_gauss_jordan_on_game_blocks(tied, monkeypatch):
    # every block the exact route solves in a float 6x6 game, or in a
    # rational 4x4 game with small ties, recorded where the pair route
    # calls solve_affine; the tied game's blocks include inconsistent,
    # unique and positive-dimensional ones
    calls = []

    def recorded(rows, n):
        calls.append((rows, n))
        return solve_affine(rows, n)

    monkeypatch.setattr(equilibrium, "solve_affine", recorded)
    if tied:
        rng = np.random.default_rng(44)
        shape = (4, 4)
        game = make_game(shape, [[Fraction(int(p), int(q)) for p, q in zip(
            rng.integers(-3, 4, math.prod(shape)), rng.integers(1, 4, math.prod(shape)))]
            for _ in shape], mode=RATIONAL)
    else:
        game = random_game((6, 6), seed=6)
    supports = list(enumerate_supports(game))
    for support in supports:
        with contextlib.suppress(SingularSystem):
            equilibrium._integer_solution(game, support)
    assert len(calls) == 2 * len(supports)
    for rows, n in calls:
        _assert_gauss_jordan_bitwise(rows, n)
    if tied:
        kinds = {(nums is None, free > 0) for nums, _, free in
                 (_gauss_jordan_solve(rows, n) for rows, n in calls)}
        assert kinds == {(True, False), (False, False), (False, True)}


def _particular(sol):
    """The solution set's one solution as Fractions."""
    return [Fraction(n, sol.den) for n in sol.nums]


@settings(max_examples=400, deadline=None)
@given(int_systems())
def test_solve_affine_matches_reference(system):
    rows, n = system
    got = solve_affine(rows, n)
    particular, nullspace = _reference_solve([[Fraction(x) for x in r] for r in rows], n)
    assert (got.nums is None) == (particular is None)
    assert got.den > 0
    if particular is not None:
        assert [Fraction(n, got.den) for n in got.nums] == particular
        assert all(type(n) is int for n in got.nums)
    assert got.free == len(nullspace)


def test_solve_affine_examples():
    # x + y = 1, x - y = 0
    sol = solve_affine([[1, 1, 1], [1, -1, 0]], 2)
    assert sol.is_unique and sol.free == 0 and _particular(sol) == [Fraction(1, 2)] * 2
    # 0 x = 1
    assert solve_affine([[0, 1]], 1).nums is None
    # no equations: everything solves
    sol = solve_affine([], 2)
    assert sol.free == 2 and _particular(sol) == [0, 0]
    # 2 x + 4 y = 2: x = 1 - 2 y
    sol = solve_affine([[2, 4, 2]], 2)
    assert _particular(sol) == [1, 0] and sol.free == 1 and not sol.is_unique
    # x = 1, -y = 1: the last fraction-free pivot is -1, the common
    # denominator; the solution set carries it as +1
    rows = [[1, 0, 1], [0, -1, 1]]
    echelon, _ = rref(rows)
    assert echelon[-1][0] == -1
    sol = solve_affine(rows, 2)
    assert (sol.nums, sol.den, sol.free) == ([1, -1], 1, 0)
    assert _particular(sol) == [1, -1]


@pytest.mark.parametrize("strict", [Fraction(0), Fraction(1e-9), 0.0, 1e-9])
def test_positive_point_is_strict(strict):
    # face block -q y = -p (x = 1 - y is recovered): y = p / q over a
    # negative pivot, with p / q the value ``strict`` times 7 / 7 so the
    # integers are not in lowest terms (a float as its exact binary
    # value). Positivity takes no tolerance: y = strict is accepted
    # exactly when strict > 0, however small (WEIGHT_TOL = 1e-9
    # included), and y = strict + 1 / q always is. A unique solution is
    # decided on its simplex numerators (every one > 0), a free one by its
    # max-min point.
    p, q = (7 * x for x in strict.as_integer_ratio())
    for num, accepted in ((p, strict > 0), (p + 1, True)):
        rows = [[-q, -num]]
        sol = solve_affine(rows, 1)
        assert sol.is_unique and Fraction(sol.nums[0], sol.den) == Fraction(num, q)
        nums = _simplex_nums(sol)
        assert [Fraction(n, sol.den) for n in nums] == [1 - Fraction(num, q), Fraction(num, q)]
        assert (min(nums) > 0) == accepted
        # one free unknown: x + y + z = 1 and q y = num, in face
        # coordinates (y, z), so the max-min point of the simplex method
        # has t* = y = num / q (below 1/3)
        free_rows = [[q, 0, num]]
        free = solve_affine(free_rows, 2)
        assert free.free == 1
        point = _positive_point(free, free_rows)
        assert (point is not None) == accepted
        if accepted:
            nums, den = point
            assert den > 0 and min(nums) > 0 and sum(nums) == den
            assert Fraction(nums[1], den) == Fraction(num, q)


@st.composite
def pair_tables(draw):
    """(u, supp, osupp) for one support block: u[j][s] the partner's
    payoff at (j, s) for 1-5 partner strategies (osupp, all of them) and
    1-5 solver strategies, supp a subset of the latter. Small entries
    make ties common; some tables get a row on the line through the
    first two (a dependent face row) or a copy of the first (a zero face
    row), and a few huge entries stand in for payoffs scaled by 2**1074."""
    ns, no = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 2100), 2 ** 2100))
    u = [draw(st.lists(entry, min_size=ns, max_size=ns)) for _ in range(no)]
    if no >= 3 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        u[2] = [a + k * (b - a) for a, b in zip(u[0], u[1])]
    if no >= 2 and draw(st.booleans()):
        u[-1] = list(u[0])
    supp = sorted(draw(st.sets(st.integers(0, ns - 1), min_size=1)))
    return u, tuple(supp), tuple(range(no))


@settings(max_examples=400, deadline=None)
@given(pair_tables())
def test_face_block_matches_the_whole_block(table):
    # the face block (|O| - 1 rows, |S| - 1 unknowns) with w_{supp[0]}
    # recovered agrees with the whole block (the partner's slope
    # equalities plus the sum rule) on emptiness, dimension, particular
    # point and positive point
    u, supp, osupp = table
    rows = _face_block(_face_table(u), supp, osupp)
    assert len(rows) == len(osupp) - 1 and all(len(r) == len(supp) for r in rows)
    whole = ([[u[j][s] - u[osupp[0]][s] for s in supp] + [0] for j in osupp[1:]]
             + [[1] * (len(supp) + 1)])
    sol = solve_affine(rows, len(supp) - 1)
    particular, nullspace = _reference_solve([[Fraction(x) for x in r] for r in whole], len(supp))
    assert (sol.nums is None) == (particular is None)
    if particular is None:
        return
    assert sol.free == len(nullspace)
    assert [Fraction(n, sol.den) for n in _simplex_nums(sol)] == particular
    if sol.is_unique:
        assert (min(_simplex_nums(sol)) > 0) == (min(particular) > 0)
    else:
        point = _positive_point(sol, rows)
        best, t = max_min_point(whole), _reference_max_min(whole)
        best = best and _fractions(best)
        assert (None if point is None else [Fraction(n, point[1]) for n in point[0]]) == (
            best[1] if best is not None and best[0] > 0 else None)
        assert (point is not None) == (t is not None and t > 0)


def _fractions(answer):
    """max_min_point's integer answer (t d, w d, d) as (t, w) in Fractions."""
    t, w, d = answer
    assert d > 0 and all(type(x) is int for x in [t, *w, d])
    return Fraction(t, d), [Fraction(x, d) for x in w]


def _reference_max_min(rows):
    """Largest t over every basic solution of [A | A 1] (s, t) = b, the
    system given as rows [A | b], with (s, t) >= 0, trying every set of
    linearly independent columns; None when no such solution is
    nonnegative."""
    a = [row[:-1] for row in rows]
    cols = [list(c) for c in zip(*a)] + [[sum(row) for row in a]]
    best = None
    for size in range(len(a) + 1):
        for subset in itertools.combinations(range(len(cols)), size):
            aug = [[Fraction(cols[j][i]) for j in subset] + [Fraction(rows[i][-1])]
                   for i in range(len(a))]
            mat, pivots = _reference_rref(aug)
            if pivots != list(range(size)):  # dependent columns or no solution
                continue
            x = [Fraction(0)] * len(cols)
            for r, j in enumerate(subset):
                x[j] = mat[r][size]
            if min(x) >= 0 and (best is None or x[-1] > best):
                best = x[-1]
    return best


@st.composite
def block_systems(draw):
    """Rows [A | b] shaped like a two-player support block: 0-4 payoff
    difference rows over 1-5 weights, then the sum row, b = (0, ..., 0, 1).
    Small entries make ties (degenerate bases) and particular solutions
    with negative entries common; some systems get a scaled duplicate
    row or a zero row."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 2100), 2 ** 2100))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        rows[1] = [draw(st.integers(-2, 2)) * x for x in rows[0]]
    if k and draw(st.booleans()):
        rows[-1] = [0] * n
    return [row + [0] for row in rows] + [[1] * (n + 1)]


@settings(max_examples=400, deadline=None)
@given(block_systems())
def test_max_min_point_matches_basis_search(rows):
    got = max_min_point(rows)
    want = _reference_max_min(rows)
    if want is None:
        assert got is None
        return
    t, point = _fractions(got)
    assert t == want
    assert all(sum(a * w for a, w in zip(row[:-1], point)) == row[-1] for row in rows)
    assert min(point) >= t


def test_max_min_point_examples():
    # w0 + w2 = 3 w1 on the simplex: w1 = 1/4 is the smallest entry
    assert _fractions(max_min_point([[1, -3, 1, 0], [1, 1, 1, 1]])) == (
        Fraction(1, 4), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    # w0 + w1 = 0 forces a zero weight: optimum t = 0, still a point
    assert _fractions(max_min_point([[1, 1, 0, 0], [1, 1, 1, 1]])) == (0, [0, 0, 1])
    # w0 - w1 = 3 with w0 + w1 = 1 has no nonnegative solution
    assert max_min_point([[1, -1, 3], [1, 1, 1]]) is None
    # zero and repeated rows are redundant
    assert _fractions(max_min_point([[0, 0, 0], [2, -2, 0], [1, -1, 0], [1, 1, 1]])) == (
        Fraction(1, 2), [Fraction(1, 2), Fraction(1, 2)])


def test_max_min_point_rejects_an_unbounded_program():
    # w0 = w1 without the sum row: both weights grow without bound
    with pytest.raises(ValueError, match="^unbounded linear program$"):
        max_min_point([[1, -1, 0]])


@settings(max_examples=200, deadline=None)
@given(int_systems())
def test_exact_routines_leave_their_input_rows_unchanged(system):
    # rref copies only the list of rows: elimination must replace rows,
    # never edit one. max_min_point gets the system as a block it can
    # take, A w = |b| with the sum row w_1 + ... + w_n = 1 appended.
    rows, n = system
    before = copy.deepcopy(rows)
    rref(rows)
    assert rows == before
    solve_affine(rows, n)
    assert rows == before
    if n:
        block = [row[:n] + [abs(row[n])] for row in rows] + [[1] * (n + 1)]
        before = copy.deepcopy(block)
        max_min_point(block)
        assert block == before
