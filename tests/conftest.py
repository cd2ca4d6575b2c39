"""Shared fixtures and independently coded oracles.

The oracles here deliberately avoid the library's own numerical
routines: payoffs are evaluated by explicit loops over pure profiles,
the two-player enumerator runs its own Gaussian elimination over
Fractions, the extreme equilibria of a two-player game, tied or not,
come from brute-force vertex enumeration over Fractions, the
full-support equilibria of a 2x2x2 game come from a quadratic in closed
form, and gradients come from central finite differences.

One helper uses a library routine on purpose: rank_split_equivalence_test
counts ranks with genericity._svd_ranks, so that the block-triangular
rank lemma is checked under the rank cutoff the certificate uses.
"""

import itertools
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nashatlas
from nashatlas import FLOAT, RATIONAL, make_game
from nashatlas.genericity import _svd_ranks


def fresh_python(*args, timeout=None):
    """Run `python args...` in a new interpreter that imports this nashatlas;
    subprocess.TimeoutExpired after `timeout` seconds, if given."""
    src = str(Path(nashatlas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


MP_PAYOFFS = [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]
BOS_PAYOFFS = [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]
DUP_ROW_PAYOFFS = [[[1, 2], [1, 2]], [[3, 4], [5, 6]]]


def _float_game(shape, payoffs):
    return make_game(shape, [np.array(u, dtype=float) for u in payoffs])


def _exact_game(shape, payoffs):
    tables = [
        np.array(
            [[Fraction(x) for x in row] for row in u], dtype=object
        )
        for u in payoffs
    ]
    return make_game(shape, tables, mode=RATIONAL)


@pytest.fixture
def mp_float():
    """Matching pennies, float payoffs."""
    return _float_game((2, 2), MP_PAYOFFS)


@pytest.fixture
def mp_exact():
    return _exact_game((2, 2), MP_PAYOFFS)


@pytest.fixture
def bos_exact():
    """Battle of the sexes: two pure equilibria and one mixed."""
    return _exact_game((2, 2), BOS_PAYOFFS)


@pytest.fixture
def zero_game():
    return _float_game((2, 2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])


@pytest.fixture
def dup_row_game():
    """Player 1 indifferent between identical rows: equilibria form a
    segment {((t, 1-t), (0, 1))}."""
    return _float_game((2, 2), DUP_ROW_PAYOFFS)


@pytest.fixture
def cyclic_mp3():
    """Three players, each playing matching pennies against the next.

    Exactly three equilibria: both all-same pure profiles and the
    uniform mixed profile.
    """
    mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
    U = [np.zeros((2, 2, 2)) for _ in range(3)]
    for a, b, c in itertools.product(range(2), repeat=3):
        U[0][a, b, c] = mp[a, b]
        U[1][a, b, c] = mp[b, c]
        U[2][a, b, c] = mp[c, a]
    return make_game((2, 2, 2), U)


def loop_payoff(game, player, weights):
    """Expected payoff by explicit summation over pure profiles."""
    total = 0
    table = game.utilities[player]
    for idx in itertools.product(*(range(c) for c in game.strategy_counts)):
        prob = 1
        for t, j in enumerate(idx):
            prob = prob * weights[t][j]
        total = total + table[idx] * prob
    return total


def fd_gradient(form, points, block, step=1e-6):
    """Central finite differences of a form in one block's coordinates."""
    pos = form.blocks.index(block)
    base = [np.asarray(p, dtype=float) for p in points]
    out = np.zeros(len(base[pos]))
    for k in range(len(base[pos])):
        hi = [p.copy() for p in base]
        lo = [p.copy() for p in base]
        hi[pos][k] += step
        lo[pos][k] -= step
        out[k] = (form.eval(hi) - form.eval(lo)) / (2 * step)
    return out


def rank_split_equivalence_test(full_jacobian, coordinate_block_size: int) -> bool:
    """Check that full rank of the stacked matrix is equivalent to full
    rank of the lower block restricted to the kernel of the (full-rank)
    coordinate block, its first coordinate_block_size rows (0 to all of
    them, else ValueError). Must hold whenever the first rows have full
    rank; returning False would falsify the block-triangular rank
    argument."""
    a = np.asarray(full_jacobian, dtype=float)
    b = int(coordinate_block_size)
    if not 0 <= b <= len(a):
        raise ValueError(f"coordinate block size {b} outside 0..{len(a)}")
    top = a[:b]
    # b = 0: the full SVD of the (0, n) top block has Vh = I, all kernel
    kernel = np.linalg.svd(top)[2][_svd_ranks(top)[0]:].T
    return bool(_svd_ranks(a)[2] == _svd_ranks(a[b:] @ kernel)[2])


def _eliminate(rows, rhs):
    """Gauss-Jordan over Fractions.

    Returns (solution, underdetermined): solution is None when the
    system is inconsistent or underdetermined; underdetermined is True
    when it is consistent with free variables remaining.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((k for k in range(r, len(aug)) if aug[k][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for k in range(r, len(aug)):
        if all(x == 0 for x in aug[k][:n]) and aug[k][n] != 0:
            return None, False
    if len(pivots) < n:
        return None, True
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return sol, False


def _frac_matrix(table):
    return [
        [x if isinstance(x, Fraction) else Fraction(float(x)) for x in row]
        for row in np.asarray(table).tolist()
    ]


def _opponent_weights(payoff, own_support, opp_support):
    """Solve for opponent weights on opp_support that make every
    strategy in own_support yield the same payoff; payoff[j][t] is the
    solving player's payoff of own pure j against opponent pure t.
    """
    base = own_support[0]
    rows = [
        [payoff[j][t] - payoff[base][t] for t in opp_support]
        for j in own_support[1:]
    ]
    rhs = [Fraction(0)] * len(rows)
    rows.append([Fraction(1)] * len(opp_support))
    rhs.append(Fraction(1))
    return _eliminate(rows, rhs)


def oracle_enumerate_2p(game):
    """Independent two-player support enumeration.

    Returns (equilibria, degenerate) where equilibria is a sorted list
    of ((x...), (y...)) Fraction tuples and degenerate reports whether
    any support produced a consistent underdetermined system.
    """
    c1, c2 = game.strategy_counts
    A = _frac_matrix(game.utilities[0])
    Bt = [list(col) for col in zip(*_frac_matrix(game.utilities[1]))]
    found = set()
    degenerate = False
    for r1 in range(1, c1 + 1):
        for s1 in itertools.combinations(range(c1), r1):
            for r2 in range(1, c2 + 1):
                for s2 in itertools.combinations(range(c2), r2):
                    y, under_y = _opponent_weights(A, s1, s2)
                    x, under_x = _opponent_weights(Bt, s2, s1)
                    if (y is None and not under_y) or (x is None and not under_x):
                        continue
                    if under_y or under_x:
                        degenerate = True
                        continue
                    if any(v <= 0 for v in x) or any(v <= 0 for v in y):
                        continue
                    xf = [Fraction(0)] * c1
                    yf = [Fraction(0)] * c2
                    for i, s in enumerate(s1):
                        xf[s] = x[i]
                    for i, t in enumerate(s2):
                        yf[t] = y[i]
                    p1 = [sum(A[j][t] * yf[t] for t in range(c2)) for j in range(c1)]
                    v1 = sum(xf[j] * p1[j] for j in range(c1))
                    p2 = [sum(Bt[k][s] * xf[s] for s in range(c1)) for k in range(c2)]
                    v2 = sum(yf[k] * p2[k] for k in range(c2))
                    if all(p <= v1 for p in p1) and all(p <= v2 for p in p2):
                        found.add((tuple(xf), tuple(yf)))
    return sorted(found), degenerate


def _labelled_vertices(rows, zero_labels, tight_labels):
    """The vertices z != 0 of {z >= 0 : rows z <= 1}, each with its label
    set: zero_labels[t] when z_t = 0, tight_labels[s] when (rows z)_s = 1.
    Every set of len(z) constraints, taken as equations, with a unique
    feasible solution is a vertex."""
    d = len(rows[0])
    cons = [([Fraction(int(t == s)) for t in range(d)], 0) for s in range(d)]
    cons += [(row, 1) for row in rows]
    labels = list(zero_labels) + list(tight_labels)
    out = {}
    for basis in itertools.combinations(range(len(cons)), d):
        z, _ = _eliminate([cons[c][0] for c in basis], [cons[c][1] for c in basis])
        if z is None or not any(z) or any(v < 0 for v in z):
            continue
        values = [sum(a * v for a, v in zip(row, z)) for row, _ in cons]
        if any(v > 1 for v in values[d:]):
            continue
        out[tuple(z)] = {lab for lab, v, (_, b) in zip(labels, values, cons) if v == b}
    return out


def oracle_equilibria_2p(A, B):
    """The extreme equilibria of the bimatrix game (A, B), tied or not, and
    whether the equilibrium set is infinite; exact vertex enumeration (von
    Stengel 2002, Handbook of Game Theory 3, ch. 45).

    A and B (rows: player 1's strategies) are shifted so that every entry
    is >= 1. Label i < m is player 1's strategy i, label m + j player 2's
    strategy j. A vertex x of P = {x >= 0 : B^T x <= 1} has label i where
    x_i = 0 and m + j where (B^T x)_j = 1; a vertex y of Q = {y >= 0 :
    A y <= 1} has label i where (A y)_i = 1 and m + j where y_j = 0. The
    completely labelled pairs, normalised to sum 1, are the extreme
    equilibria, as a sorted list of ((x...), (y...)) Fraction tuples. The
    set is infinite exactly when some vertex has two partners: each
    partner carries every label the vertex lacks, so the segment between
    them, against the vertex, holds only equilibria.
    """
    A = [[Fraction(v) for v in row] for row in A]
    Bt = [[Fraction(v) for v in col] for col in zip(*B)]
    m, n = len(A), len(Bt)
    for M in (A, Bt):
        shift = 1 - min(min(row) for row in M)
        M[:] = [[v + shift for v in row] for row in M]
    P = _labelled_vertices(Bt, range(m), range(m, m + n))
    Q = _labelled_vertices(A, range(m, m + n), range(m))
    pairs = [(x, y) for x, lx in P.items() for y, ly in Q.items()
             if lx | ly == set(range(m + n))]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    continuum = len(set(xs)) < len(xs) or len(set(ys)) < len(ys)
    found = sorted((tuple(v / sum(x) for v in x), tuple(v / sum(y) for v in y))
                   for x, y in pairs)
    return found, continuum


def eliminant_2x2x2(game):
    """The closed form of a 2x2x2 game's full support in exact Fractions:
    ((k0, k1, k2), (ny, py), (nx, px)), the eliminant k0 + k1 z + k2 z^2
    and y = ny(z) / py(z), x = nx(z) / px(z), each linear polynomial as
    (constant, slope), with x, y, z the three players' weights on
    strategy 1.

    Each player's slope difference (strategy 1 minus strategy 0) is
    bilinear in the other two players' weights on strategy 1. Players 1
    and 2 give y and x as linear fractions of z; player 3's equation
    times both denominators is the eliminant.
    """
    def bilinear(i):
        # (c0, c1, c2, c3) of c0 + c1 s + c2 t + c3 s t, where s and t are
        # the weights on strategy 1 of the other two players, in order
        u = np.moveaxis(np.asarray(game.utilities[i]), i, 0)
        d = [[Fraction(u[1][b][c]) - Fraction(u[0][b][c]) for c in range(2)] for b in range(2)]
        return d[0][0], d[1][0] - d[0][0], d[0][1] - d[0][0], d[1][1] - d[1][0] - d[0][1] + d[0][0]

    def times(p, q):
        # product of two polynomials in z of degree 1, (constant, slope)
        return [p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]]

    a0, a1, a2, a3 = bilinear(0)  # in (y, z): y = ny / py
    b0, b1, b2, b3 = bilinear(1)  # in (x, z): x = nx / px
    c0, c1, c2, c3 = bilinear(2)  # in (x, y)
    ny, py, nx, px = (-a0, -a2), (a1, a3), (-b0, -b2), (b1, b3)
    terms = [(c0, times(py, px)), (c1, times(nx, py)), (c2, times(ny, px)), (c3, times(nx, ny))]
    k = tuple(sum(c * t[j] for c, t in terms) for j in range(3))
    return k, (ny, py), (nx, px)


def oracle_full_support_2x2x2(game):
    """The full-support equilibria of a 2x2x2 game in closed form, each
    as (x, y, z), the three players' weights on strategy 1; None when the
    closed form does not decide them: a zero leading coefficient or
    discriminant, or a denominator that vanishes at a root.

    The eliminant's (eliminant_2x2x2) real roots are taken to 40 digits,
    and those with (x, y, z) in the open cube kept.
    """
    (k0, k1, k2), (ny, py), (nx, px) = eliminant_2x2x2(game)
    disc = k1 * k1 - 4 * k2 * k0
    if k2 == 0 or disc == 0:
        return None
    for p in (py, px):
        # the denominator's one zero, when it has one, is rational
        if p[1] == 0 and p[0] == 0:
            return None
        if p[1] != 0 and k0 + k1 * (-p[0] / p[1]) + k2 * (-p[0] / p[1]) ** 2 == 0:
            return None
    if disc < 0:
        return []

    roots = []
    with localcontext() as ctx:
        ctx.prec = 40

        def dec(q):
            return Decimal(q.numerator) / Decimal(q.denominator)

        sq = dec(disc).sqrt()
        for z in ((-dec(k1) - sq) / (2 * dec(k2)), (-dec(k1) + sq) / (2 * dec(k2))):
            y = (dec(ny[0]) + dec(ny[1]) * z) / (dec(py[0]) + dec(py[1]) * z)
            x = (dec(nx[0]) + dec(nx[1]) * z) / (dec(px[0]) + dec(px[1]) * z)
            if all(0 < v < 1 for v in (x, y, z)):
                roots.append((float(x), float(y), float(z)))
    return roots
